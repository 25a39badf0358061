// Host-side ZNS write-buffer tier: a bounded NVRAM-backed pool that absorbs
// sub-ZRWA hot updates in host memory before flushing zone-sized runs to the
// array (the SPDK zns_io_buffer_pool idiom).
//
// The buffer is a BlockTarget decorator stacked above any engine. In
// write-back mode a write is acknowledged `kAckNs` after it lands in the
// pool; repeated updates to the same block overwrite the buffered copy in
// place, so only the final version reaches the device — hot updates erode
// device writes (and thus WA) before the engine ever sees them. Dirty blocks
// drain as contiguous runs once occupancy crosses the flush watermark.
//
// Crash model: the pool models battery-backed NVRAM. Its contents are plain
// C++ state, so they survive Simulator::DropPending (the crash harness'
// power cut) while every in-flight sim event — including unfired write-back
// acks — is lost. Recovery replays DirtyContents() into the recovered
// engine; because the pool always holds the *newest* version of each
// buffered block, replay only moves device state forward. Write-back
// therefore never acknowledges a write a crash can lose: acked data is
// either durable below or replayable from the pool.
//
// Write-through mode forwards every command unmodified and acknowledges on
// the inner completion — today's (pre-buffer) guarantee and device-write
// stream, kept as the conservative baseline.
#ifndef BIZA_SRC_NVME_HOST_BUFFER_H_
#define BIZA_SRC_NVME_HOST_BUFFER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/common/write_tag.h"
#include "src/engines/target.h"
#include "src/sim/simulator.h"

namespace biza {

enum class HostBufferMode {
  kWriteThrough,  // forward + ack on inner completion (no absorption)
  kWriteBack,     // ack from NVRAM pool, flush runs in the background
};

struct HostBufferConfig {
  bool enabled = false;
  HostBufferMode mode = HostBufferMode::kWriteBack;
  uint64_t capacity_blocks = 4096;  // 16 MiB pool
  uint64_t max_run_blocks = 256;    // flush-run cap (1 MiB = ZRWA-sized)
};

struct HostBufferStats {
  uint64_t writes = 0;
  uint64_t write_blocks = 0;
  uint64_t absorbed_blocks = 0;  // overwrote an already-buffered block
  uint64_t flush_runs = 0;
  uint64_t flushed_blocks = 0;
  uint64_t read_hit_blocks = 0;  // read blocks served from the pool
  uint64_t admission_stalls = 0;
  uint64_t bypass_writes = 0;  // requests too large for the pool
};

class HostWriteBuffer : public BlockTarget {
 public:
  HostWriteBuffer(Simulator* sim, BlockTarget* inner,
                  const HostBufferConfig& config);

  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag = WriteTag::kData) override;
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override;
  uint64_t capacity_blocks() const override {
    return inner_->capacity_blocks();
  }
  void FlushBuffers(std::function<void()> done) override;

  const HostBufferConfig& config() const { return config_; }
  const HostBufferStats& stats() const { return stats_; }
  uint64_t occupancy_blocks() const { return entries_.size(); }

  // NVRAM contents that a crash may leave undrained: (lbn, pattern, tag) of
  // every buffered block, newest version each. The crash harness replays
  // these into the recovered engine before checking invariants.
  struct DirtyBlock {
    uint64_t lbn;
    uint64_t pattern;
    WriteTag tag;
  };
  std::vector<DirtyBlock> DirtyContents() const;

 private:
  static constexpr double kFlushWatermark = 0.50;  // drain above this occupancy
  static constexpr SimTime kAckNs = 1 * kMicrosecond;  // NVRAM commit latency

  struct Entry {
    uint64_t pattern;
    uint64_t version;        // bumped on every overwrite
    uint64_t flush_version;  // version an in-flight flush captured
    bool flush_inflight;
    WriteTag tag;
  };
  struct Parked {
    uint64_t lbn;
    std::vector<uint64_t> patterns;
    WriteCallback cb;
    WriteTag tag;
    uint64_t next;  // blocks [0, next) already admitted
  };

  // Returns true when the whole write fit; false leaves it parked.
  bool Admit(Parked* w);
  void AckWrite(WriteCallback cb);
  void MaybeFlush(bool force);
  void OnFlushDone(uint64_t run_lbn,
                   const std::vector<uint64_t>& captured_versions);
  void DrainParked();
  void MaybeFinishFlushAll();

  Simulator* sim_;
  BlockTarget* inner_;
  HostBufferConfig config_;
  HostBufferStats stats_;

  std::map<uint64_t, Entry> entries_;  // ordered: deterministic run formation
  std::deque<Parked> parked_;          // FIFO admission under memory pressure
  uint64_t inflight_flush_blocks_ = 0;
  uint64_t outstanding_flushes_ = 0;
  std::vector<std::function<void()>> flush_all_waiters_;
};

}  // namespace biza

#endif  // BIZA_SRC_NVME_HOST_BUFFER_H_
