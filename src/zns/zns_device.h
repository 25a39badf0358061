// Simulated ZNS SSD with Zone Random Write Area (ZRWA) support.
//
// Implements the behavioural contract of the NVMe Zoned Namespace Command
// Set (spec 1.1a) plus Technical Proposal 4076 (ZRWA) at block granularity:
//
// * Zones with a state machine (EMPTY / OPEN / CLOSED / FULL / OFFLINE), a
//   write pointer, and an open-zone budget.
// * Sequential-write-required zones reject any write not at the write
//   pointer with a write failure, exactly the hazard of §3.2.
// * Zones opened with ZRWA accept random writes and in-place updates inside
//   a window of `zrwa_blocks` blocks starting at the flush pointer. Writes
//   landing beyond the window implicitly commit ("shift") the window: blocks
//   leaving the window are programmed to flash. In-place updates inside the
//   window hit on-device DRAM only — this is the write-amplification lever
//   BIZA exploits.
// * APPEND is supported on non-ZRWA zones (device picks the offset) and is
//   mutually exclusive with ZRWA, per the NVMe stipulation cited in §3.2.
// * Every programmed block carries an out-of-band (OOB) record written by
//   hitch-hiking on the same program operation (§4.1); recovery code reads
//   it back with ReadOobSync().
// * Zone -> I/O-channel mapping is assigned when a zone is opened, normally
//   round-robin but with a configurable wear-leveling deviation probability;
//   the mapping is hidden from the host (engines must guess and verify), but
//   DebugChannelOf() exposes the truth to tests and oracles.
// * Commands cross the host interface through a DevicePort
//   (src/nvme/device_port.h), and the device is itself a ZonedTarget (the
//   sequential-zone view dm-zap stacks on).
//
// Data plane: the device stores one 64-bit pattern per block instead of
// 4 KiB of payload — enough for end-to-end integrity verification at a
// thousandth of the memory cost.
#ifndef BIZA_SRC_ZNS_ZNS_DEVICE_H_
#define BIZA_SRC_ZNS_ZNS_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
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
#include "src/zns/zns_config.h"

namespace biza {

enum class ZoneState : uint8_t {
  kEmpty,
  kOpen,     // implicitly or explicitly opened; can serve writes
  kClosed,   // active but not open (resources retained)
  kFull,
  kOffline,
};

std::string_view ZoneStateName(ZoneState state);

// Out-of-band record persisted with each block program (72 bits in the
// paper: 40-bit LBN + 32-bit SN). `tag` is simulation-side accounting only
// (it classifies the flash program for the WA breakdown) and carries no
// device semantics.
struct OobRecord {
  uint64_t lbn = kUnsetLbn;
  uint32_t sn = 0;
  WriteTag tag = WriteTag::kData;

  static constexpr uint64_t kUnsetLbn = ~0ULL;
  bool set() const { return lbn != kUnsetLbn; }
};

struct ZoneInfo {
  ZoneState state = ZoneState::kEmpty;
  bool with_zrwa = false;
  // For ZRWA zones this is the flush pointer (start of the ZRWA window);
  // for sequential zones it is the classic write pointer.
  uint64_t write_pointer = 0;
  // Highest written offset + 1 (includes blocks still in the ZRWA buffer).
  uint64_t high_water = 0;
};

// Device-wide endurance / traffic counters.
struct ZnsDeviceStats {
  uint64_t host_written_blocks = 0;     // blocks received from the host
  uint64_t flash_programmed_blocks = 0; // blocks programmed to the backbone
  uint64_t flash_by_tag[kNumWriteTags] = {};
  uint64_t zrwa_absorbed_blocks = 0;    // in-place overwrites absorbed in DRAM
  uint64_t host_read_blocks = 0;
  uint64_t zone_resets = 0;
  uint64_t write_failures = 0;

  double WriteAmplification() const {
    if (host_written_blocks == 0) {
      return 0.0;
    }
    return static_cast<double>(flash_programmed_blocks) /
           static_cast<double>(host_written_blocks);
  }
};

class ZnsDevice final : public ZonedTarget {
 public:
  using AppendCallback = std::function<void(const Status&, uint64_t offset)>;

  ZnsDevice(Simulator* sim, const ZnsConfig& config);

  // --- data plane (asynchronous, goes through the device port) -----------

  // Writes `patterns.size()` blocks at (zone, offset). `oobs` may be empty
  // (no OOB metadata) or match patterns in size. Implicitly opens the zone
  // if needed; implicit opens never enable ZRWA (use OpenZone for that).
  void SubmitWrite(uint32_t zone, uint64_t offset,
                   std::vector<uint64_t> patterns, std::vector<OobRecord> oobs,
                   WriteCallback cb);

  // Zone append: device assigns the offset. Rejected on ZRWA zones.
  void SubmitAppend(uint32_t zone, std::vector<uint64_t> patterns,
                    std::vector<OobRecord> oobs, AppendCallback cb);

  // Reads deliver block contents only; OOB records are read back through
  // ReadOobSync (recovery and GC liveness scans).
  void SubmitRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                  ReadCallback cb);

  // --- ZonedTarget (sequential zones; ZRWA stays behind OpenZone) ---------

  uint32_t num_zones() const override { return config_.num_zones; }
  uint64_t zone_capacity_blocks() const override {
    return config_.zone_capacity_blocks;
  }
  int max_open_zones() const override { return config_.max_open_zones; }
  // SubmitWrite with OOB records that carry only `tag`.
  void SubmitZoneWrite(uint32_t zone, uint64_t offset,
                       std::vector<uint64_t> patterns, WriteCallback cb,
                       WriteTag tag) override;
  void SubmitZoneRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                      ReadCallback cb) override {
    SubmitRead(zone, offset, nblocks, std::move(cb));
  }

  // --- control plane (synchronous admin commands) ------------------------

  Status OpenZone(uint32_t zone, bool with_zrwa);
  Status CloseZone(uint32_t zone);
  // Programs any buffered blocks and transitions the zone to FULL.
  Status FinishZone(uint32_t zone) override;
  // Discards all data (buffered and flashed) and recycles the zone; the
  // erase occupies the zone's channel in the background.
  Status ResetZone(uint32_t zone) override;
  // Explicit ZRWA commit: advances the flush pointer to `upto` (exclusive),
  // programming buffered blocks below it.
  Status CommitZrwa(uint32_t zone, uint64_t upto);

  ZoneInfo Report(uint32_t zone) const;
  int open_zone_count() const { return open_zones_; }

  // --- recovery / test hooks ---------------------------------------------

  // Reads the OOB record of a flashed-or-buffered block (recovery path; the
  // cost of a full scan is charged separately by callers).
  Result<OobRecord> ReadOobSync(uint32_t zone, uint64_t offset) const;
  Result<uint64_t> ReadPatternSync(uint32_t zone, uint64_t offset) const;

  // Smallest offset >= `from` in `zone` that may hold a written block, or
  // the zone capacity when the rest of the zone was never touched. OOB /
  // liveness scans (recovery, GC) hop over never-allocated regions in
  // chunk-sized strides instead of probing every block of a 1077 MiB zone.
  uint64_t NextWrittenCandidate(uint32_t zone, uint64_t from) const;

  // Bytes currently held by lazily-allocated per-zone block state. Resident
  // memory scales with written data, not raw capacity (a full-geometry
  // device starts near zero and chunk state is bulk-freed on zone reset).
  uint64_t ResidentStateBytes() const;

  // Ground truth of the hidden zone->channel mapping (oracle for tests and
  // for initial zone-to-zone diagnosis calibration).
  int DebugChannelOf(uint32_t zone) const;

  // Architected mapping query (only with config.expose_channel_on_open —
  // the "future ZNS" design of §6 where OPEN completions carry the channel;
  // returns -1 otherwise or when the zone has no channel yet).
  int ChannelOf(uint32_t zone) const;

  const ZnsConfig& config() const { return config_; }
  const ZnsDeviceStats& stats() const { return stats_; }
  // The NVMe queue-pair frontend (inert unless config.nvme.enabled).
  const NvmeQueuePair& nvme_queue() const { return port_.queue(); }
  NandBackend& backend() { return *backend_; }
  Simulator* sim() { return sim_; }

  // Interposes `injector` on every command this device serves; `device_id`
  // names this device in the injector's fault plan. Pass nullptr to detach.
  void AttachFaultInjector(FaultInjector* injector, int device_id) {
    port_.AttachFaultInjector(injector, device_id);
  }

  // Registers this device's counters/gauges ("dev<id>.zns.*") with the
  // registry, its write/read latency histograms, and zns.* spans with the
  // tracer (which is also forwarded to the NAND backend for channel/die
  // spans). Pass nullptr to detach.
  void AttachObservability(Observability* obs, int device_id);

 private:
  // Buffer-drain allowance: a ZRWA write that triggers an implicit commit
  // stalls only for the part of the flush beyond this backlog (models the
  // finite but non-zero depth of the device write buffer).
  static constexpr SimTime kZrwaFlushAllowanceNs = 300 * kMicrosecond;

  struct Block {
    uint64_t pattern = 0;
    OobRecord oob;
    bool written = false;
    bool buffered = false;  // still in the ZRWA write buffer
  };

  struct Zone {
    ZoneState state = ZoneState::kEmpty;
    bool with_zrwa = false;
    uint64_t flush_ptr = 0;   // ZRWA window start / sequential write pointer
    uint64_t high_water = 0;  // highest written offset + 1
    int channel = -1;
    // Per-zone ZRWA ack pipeline: acks are paced at the zone's channel rate
    // (one in-flight writer sees ~channel-transfer + ack latency per
    // request and loses most of the zone's bandwidth, §3.2; concurrent
    // writers pipeline the transfers and saturate it).
    SimTime ack_free = 0;
    // Per-block pattern/OOB state in lazily-allocated chunks: a zone costs
    // nothing until written, and a reset bulk-frees it. Reads of absent
    // chunks see the default Block (unwritten), matching the deallocated
    // read semantics of real zones.
    ChunkedArray<Block> blocks;
  };

  Status ValidateZoneId(uint32_t zone) const;
  Status EnsureOpenForWrite(Zone& z, uint32_t zone_id);
  // Draws from the device RNG (the port's) when wear levelling deviates.
  void AssignChannel(Zone& z);
  // Programs buffered blocks in [from, to) to flash and advances flush_ptr.
  // Returns the time the background program drains (now if nothing to do).
  SimTime FlushRange(Zone& z, uint64_t from, uint64_t to);
  void MaybeTransitionFull(Zone& z);

  void DoWrite(uint32_t zone, uint64_t offset, std::vector<uint64_t> patterns,
               std::vector<OobRecord> oobs, WriteCallback cb);
  void DoAppend(uint32_t zone, std::vector<uint64_t> patterns,
                std::vector<OobRecord> oobs, AppendCallback cb);
  void DoRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
              ReadCallback cb);

  // Span + latency-histogram hook for one data-plane command completing at
  // `done` (simulated). One null check when observability is not attached.
  void ObserveIo(uint16_t span, LatencyHistogram* hist, SimTime done,
                 uint32_t zone, uint64_t offset, uint64_t nblocks) {
    if (obs_ == nullptr) {
      return;
    }
    const SimTime now = sim_->Now();
    if (hist != nullptr) {
      hist->Record(done - now);
    }
    if (obs_->tracer.Armed(now)) {
      obs_->tracer.Record(Tracer::kLaneDevice, span, now, done, key_zone_,
                          zone, key_offset_, static_cast<int64_t>(offset),
                          key_blocks_, static_cast<int64_t>(nblocks));
    }
  }

  Simulator* sim_;
  ZnsConfig config_;
  std::unique_ptr<NandBackend> backend_;
  DevicePort port_;
  Observability* obs_ = nullptr;
  uint16_t span_write_ = 0;
  uint16_t span_read_ = 0;
  uint16_t span_append_ = 0;
  uint16_t key_zone_ = 0;
  uint16_t key_offset_ = 0;
  uint16_t key_blocks_ = 0;
  LatencyHistogram* h_write_ = nullptr;
  LatencyHistogram* h_read_ = nullptr;
  std::vector<Zone> zones_;
  int open_zones_ = 0;
  uint64_t open_rr_counter_ = 0;
  ZnsDeviceStats stats_;
};

}  // namespace biza

#endif  // BIZA_SRC_ZNS_ZNS_DEVICE_H_
