// Simulated conventional block-interface SSD (models the WD SN640).
//
// A page-mapped FTL over the same NAND backend as the ZNS device:
// * L2P table (4 KiB pages), out-of-place updates, per-flash-block valid
//   counts.
// * Over-provisioned physical space; greedy garbage collection (victim =
//   fewest valid pages) triggered when free blocks run low. GC migrations
//   and erases occupy channel/die resources inline, so host I/O issued
//   during GC queues behind it — the uncontrollable latency spikes that
//   block-interface AFAs suffer (§2.1).
// * Internal write-amplification accounting (host vs flash writes).
//
// The device is intentionally "dumb": no stream separation and no hints, as
// with a real conventional SSD. It is itself a BlockTarget, and the
// mdraid+ConvSSD baseline builds on it. Commands cross the host interface
// through a DevicePort (src/nvme/device_port.h), as on the ZNS device.
#ifndef BIZA_SRC_CONVSSD_CONV_SSD_H_
#define BIZA_SRC_CONVSSD_CONV_SSD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/sparse_array.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/common/write_tag.h"
#include "src/engines/target.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/observability.h"
#include "src/nand/nand_backend.h"
#include "src/nvme/device_port.h"
#include "src/sim/simulator.h"

namespace biza {

// The host interface (dispatch_jitter_ns, nvme) is inherited.
struct ConvSsdConfig : HostInterfaceConfig {
  std::string model = "SIM-SN640";
  uint64_t capacity_blocks = 512 * 1024;  // 2 GiB user-visible
  double over_provision = 0.10;
  uint64_t pages_per_flash_block = 1024;  // 4 MiB erase unit
  NandTimingConfig timing = ConvTiming();
  uint64_t seed = 1;

  static NandTimingConfig ConvTiming() {
    NandTimingConfig t;
    // SN640: 2250 MB/s write, 3331 MB/s read (Table 5), same flash basis.
    t.ctrl_write_mbps = 2250.0;
    t.ctrl_read_mbps = 3331.0;
    return t;
  }
};

struct ConvSsdStats {
  uint64_t host_written_blocks = 0;
  uint64_t flash_programmed_blocks = 0;  // host + GC migrations
  uint64_t flash_by_tag[kNumWriteTags] = {};
  uint64_t gc_migrated_blocks = 0;
  uint64_t host_read_blocks = 0;
  uint64_t erases = 0;
  uint64_t gc_runs = 0;

  double WriteAmplification() const {
    if (host_written_blocks == 0) {
      return 0.0;
    }
    return static_cast<double>(flash_programmed_blocks) /
           static_cast<double>(host_written_blocks);
  }
};

class ConvSsd final : public BlockTarget {
 public:
  ConvSsd(Simulator* sim, const ConvSsdConfig& config);

  // Writes patterns.size() blocks starting at `lbn` (async). `tag`
  // classifies the write for WA-breakdown accounting.
  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag = WriteTag::kData) override;
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override;
  uint64_t capacity_blocks() const override {
    return config_.capacity_blocks;
  }

  Result<uint64_t> ReadPatternSync(uint64_t lbn) const;

  const ConvSsdConfig& config() const { return config_; }
  const ConvSsdStats& stats() const { return stats_; }
  NandBackend& backend() { return *backend_; }
  const NvmeQueuePair& nvme_queue() const { return port_.queue(); }

  // Bytes of FTL state currently resident (L2P + physical-page tables +
  // flash-block descriptors). Scales with written data, not raw capacity.
  uint64_t ResidentStateBytes() const;

  // Interposes `injector` on every command this device serves; `device_id`
  // names this device in the injector's fault plan. Pass nullptr to detach.
  void AttachFaultInjector(FaultInjector* injector, int device_id) {
    port_.AttachFaultInjector(injector, device_id);
  }

  // Registers this device's counters ("dev<id>.conv.*") with the registry
  // and forwards the tracer to the NAND backend for channel/die spans.
  // Pass nullptr to detach.
  void AttachObservability(Observability* obs, int device_id);

 private:
  static constexpr double kGcTriggerFreeRatio = 0.06;  // start GC below this
  static constexpr double kGcStopFreeRatio = 0.10;     // collect until this
  static constexpr uint64_t kUnmapped = ~0ULL;

  struct FlashBlock {
    int channel = 0;
    uint64_t next_page = 0;       // allocation cursor within the block
    uint64_t valid_pages = 0;
    bool free = true;
  };

  void DoWrite(uint64_t lbn, std::vector<uint64_t> patterns, WriteCallback cb,
               WriteTag tag);
  void DoRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb);

  // Allocates one physical page on `channel`'s active block (FTLs stripe
  // user writes across channels), running GC first if space is low.
  uint64_t AllocatePage(int channel);
  uint64_t GrabFreeBlock(int channel_pref);
  void MaybeRunGc();
  // Returns false when no victim exists.
  bool CollectOne();

  Simulator* sim_;
  ConvSsdConfig config_;
  std::unique_ptr<NandBackend> backend_;
  DevicePort port_;

  uint64_t total_pages_ = 0;
  uint64_t num_flash_blocks_ = 0;
  // l2p_ is paged because host writes can be uniform-random over a vast LBA
  // space (a large chunk per scattered write would blow up); a write's
  // entry reference survives the GC remaps AllocatePage may run. The
  // physical tables fill densely within each flash block, so chunks suit
  // them.
  BlockMap<uint64_t> l2p_{kUnmapped};  // lbn -> ppn (kUnmapped if unwritten)
  ChunkedArray<uint64_t> p2l_;         // ppn -> lbn (kUnmapped if invalid)
  ChunkedArray<uint64_t> page_pattern_;
  std::vector<FlashBlock> flash_blocks_;
  std::vector<uint64_t> active_blocks_;   // one open block per channel
  size_t write_rr_ = 0;                   // channel rotation for user writes
  uint64_t gc_active_block_ = kUnmapped;  // separate cursor for GC writes
  uint64_t free_blocks_ = 0;
  ConvSsdStats stats_;
};

}  // namespace biza

#endif  // BIZA_SRC_CONVSSD_CONV_SSD_H_
