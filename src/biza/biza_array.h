// BizaArray: the self-governing block-interface ZNS AFA engine (§4).
//
// Exposes a plain block interface while coordinating all SSD-internal tasks
// through the ZNS interface of the member devices:
//
//   write request
//     └─ parity computed per touched stripe (RAID 5, left-asymmetric)
//     └─ zone group selector (ghost caches) picks the tier of every chunk:
//          high-profit  -> ZRWA-aware zone group (updates absorbed in ZRWA)
//          high-revenue -> GC-aware zone group   (dies together, cheap GC)
//          otherwise    -> trivial zone group
//     └─ GC avoidance picks, within the group, a zone whose detected I/O
//        channel is not BUSY with garbage collection
//     └─ ZRWA-aware sliding-window scheduler submits the device writes in
//        parallel, immune to I/O-stack reordering
//     └─ completion latencies feed the guess-and-verify channel detector
//
// Mapping state is the paper's two tables:
//   BMT: LBN -> 40-bit physical address (8-bit SSD | 32-bit offset) + SN
//   SMT: SN  -> parity physical address(es)
// plus an in-DRAM stripe member index (data PAs + live count) used for
// degraded reads and GC parity invalidation; like BMT/SMT it is rebuilt
// from the per-block OOB records (LBN, SN) during recovery.
//
// The write path is log-structured with ZRWA relaxation: a chunk whose
// current location is still inside its zone's sliding window — and whose
// stripe parity is too — is overwritten in place (no flash program until
// the window slides); everything else is appended into a fresh stripe.
#ifndef BIZA_SRC_BIZA_BIZA_ARRAY_H_
#define BIZA_SRC_BIZA_BIZA_ARRAY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/biza/biza_config.h"
#include "src/biza/channel_detector.h"
#include "src/common/sparse_array.h"
#include "src/biza/ghost_cache.h"
#include "src/biza/zone_scheduler.h"
#include "src/engines/join.h"
#include "src/engines/rebuild.h"
#include "src/engines/request_front.h"
#include "src/engines/target.h"
#include "src/health/device_health.h"
#include "src/health/read_mitigation.h"
#include "src/metrics/cpu_account.h"
#include "src/metrics/observability.h"
#include "src/metrics/wa_report.h"
#include "src/raid/geometry.h"
#include "src/raid/reed_solomon.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"

namespace biza {

struct BizaStats {
  uint64_t user_written_blocks = 0;
  uint64_t user_read_blocks = 0;
  uint64_t inplace_updates = 0;        // data chunks overwritten in ZRWA
  uint64_t appended_chunks = 0;        // out-of-place data chunk writes
  uint64_t parity_writes = 0;          // parity chunk device writes (incl. PP updates)
  uint64_t parity_inplace_updates = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_migrated_data = 0;
  uint64_t gc_migrated_parity = 0;
  uint64_t gc_zone_resets = 0;
  uint64_t degraded_reads = 0;
  uint64_t degraded_writes = 0;  // data chunks skipped onto parity only
  uint64_t write_retries = 0;    // transient write errors retried with backoff
  uint64_t read_retries = 0;     // transient read errors retried with backoff
  uint64_t write_stalls = 0;     // requests parked awaiting GC space
  uint64_t busy_skips = 0;       // zone picks steered off a BUSY channel

  // Gray-failure mitigation plane (zero unless a health monitor is attached).
  ReadMitigationStats mitigation;
  uint64_t steered_parity_stripes = 0;  // stripes re-rolled off gray parity
  uint64_t gray_channel_skips = 0;    // zone picks steered off a gray channel
};

class BizaArray : public BlockTarget, private RebuildSweep::Engine {
 public:
  BizaArray(Simulator* sim, std::vector<ZnsDevice*> devices,
            const BizaConfig& config);
  ~BizaArray() override = default;

  uint64_t capacity_blocks() const override { return exposed_blocks_; }

  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag) override;
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override;
  void FlushBuffers(std::function<void()> done) override;

  // Fault injection: degraded reads reconstruct this device's chunks from
  // the surviving stripe members + parity. The write path also reacts: new
  // stripes skip the failed member (the chunk's content is carried by the
  // stripe parity alone until the device is replaced and rebuilt). Device
  // deaths are additionally auto-detected from UNAVAILABLE completions.
  void SetDeviceFailed(int device, bool failed);

  // Online rebuild: swaps the failed `device` slot for an empty
  // `replacement` (same geometry) and starts the rebuild sweep
  // (RebuildSweep), which re-homes every chunk of every stripe referencing
  // the dead device through the normal write path under foreground I/O.
  // Progress is visible through rebuild().
  Status ReplaceDevice(int device, ZnsDevice* replacement);
  const RebuildStats& rebuild() const { return rebuild_.stats(); }

  // Crash recovery: rebuilds BMT/SMT/stripe index by scanning every
  // device's OOB records (§4.1). Requires a quiesced array (no in-flight
  // I/O or GC).
  Status Recover();

  // Gray-failure mitigation: feeds every device completion into `monitor`
  // and turns on the three mitigations (hedged reads when a device is
  // suspect, reconstruct-around reads when it is gray, write steering off
  // gray devices/channels plus an in-flight cap on their schedulers). Pass
  // nullptr to detach; a detached array is byte-identical to one that never
  // had a monitor.
  void SetHealthMonitor(DeviceHealthMonitor* monitor);

  // Registers the engine's counters/gauges ("biza.*", including the channel
  // detector, GC, and rebuild planes), its write/read latency histograms,
  // and biza.* spans; forwards the tracer to every zone scheduler (current
  // and future). Pass nullptr to detach.
  void AttachObservability(Observability* obs);

  const BizaStats& stats() const { return stats_; }
  CpuAccount& cpu() { return cpu_; }
  const ChannelDetector& detector(int device) const {
    return *detectors_[static_cast<size_t>(device)];
  }
  bool gc_active() const { return gc_active_; }
  const BizaConfig& config() const { return config_; }

  // Bytes of mapping/stripe state currently resident (BMT + SMT + stripe
  // index). Scales with written data, not exposed capacity.
  uint64_t ResidentStateBytes() const;

  // Test hooks.
  uint64_t DebugBmtPa(uint64_t lbn) const;
  uint64_t FreeZonesOf(int device) const {
    return free_zones_[static_cast<size_t>(device)];
  }

 private:
  static constexpr uint64_t kInvalidPa = ~0ULL;

  // 40-bit physical address: 8-bit device | 32-bit global block offset.
  static uint64_t MakePa(int device, uint32_t zone, uint64_t offset,
                         uint64_t zone_cap) {
    return (static_cast<uint64_t>(device) << 32) |
           (static_cast<uint64_t>(zone) * zone_cap + offset);
  }
  int PaDevice(uint64_t pa) const { return static_cast<int>(pa >> 32); }
  // Phantom PA: a degraded write's chunk was never written anywhere — its
  // content exists only XOR-ed into the stripe parity. The device field
  // still routes reads into the degraded path; the offset field is the
  // all-ones sentinel no real (zone, offset) pair can produce.
  static uint64_t PhantomPa(int device) {
    return (static_cast<uint64_t>(device) << 32) | 0xFFFFFFFFULL;
  }
  static bool IsPhantomPa(uint64_t pa) {
    return pa != kInvalidPa && (pa & 0xFFFFFFFFULL) == 0xFFFFFFFFULL;
  }
  uint32_t PaZone(uint64_t pa) const {
    return static_cast<uint32_t>((pa & 0xFFFFFFFFULL) / zone_cap_);
  }
  uint64_t PaOffset(uint64_t pa) const {
    return (pa & 0xFFFFFFFFULL) % zone_cap_;
  }

  struct BmtEntry {
    uint64_t pa = kInvalidPa;
    uint32_t sn = 0;
    bool operator==(const BmtEntry&) const = default;
  };

  enum class ZoneUse : uint8_t { kFree, kActive, kSealed };

  struct DevZone {
    ZoneUse use = ZoneUse::kFree;
    uint64_t valid = 0;
    std::unique_ptr<ZoneScheduler> sched;  // non-null while kActive
    bool seal_pending = false;
    // Bumped every time the zone's content is destroyed (GC reset, device
    // replacement). Reconstruct-around reads snapshot it per source block
    // and revalidate at completion: an unchanged epoch proves a sealed
    // source still holds the bytes that were read.
    uint64_t epoch = 0;
  };

  // A zone group on one device: a rotating set of active ZRWA zones kept
  // at `width` members (full zones are sealed and replaced).
  struct ZoneGroup {
    std::vector<uint32_t> zones;  // active zone ids
    size_t rr = 0;
    size_t width = 0;
  };
  enum GroupKind {
    kGroupZrwa = 0,
    kGroupGcAware = 1,
    kGroupTrivial = 2,
    kGroupParity = 3,
    kGroupGcDest = 4,
    kNumGroups = 5,
  };
  // Open zones per device in each group (§4.2), by GroupKind: high-profit
  // chunks, high-revenue chunks, everything else, stripe parities (always
  // ZRWA-reserved) and GC migration destinations ("GC-interfered"). The sum
  // must not exceed the device's max_open_zones.
  static constexpr int kGroupWidths[kNumGroups] = {3, 3, 3, 2, 2};
  // Free zones per device reserved for GC destinations and stripe parity;
  // data-group replenishment never takes them, so GC always has room to
  // migrate into and stripes always get a parity block.
  static constexpr uint64_t kReservedZones = 3;
  // Live victim blocks per GC step: contiguous ones are read with one device
  // command per run, and the step's data chunks re-homed through one gather
  // write.
  static constexpr uint64_t kGcBatchBlocks = 16;

  // Stripe under construction for a placement class.
  struct StripeBuilder {
    bool open = false;
    uint32_t sn = 0;
    std::vector<uint64_t> patterns;      // filled slots
    std::vector<uint64_t> lbns;
    std::vector<int> parity_devices;     // m rotating parity drives
    std::vector<uint64_t> parity_pa;     // m parity locations
    bool degraded = false;               // some slot skipped a dead member
  };

  // Shared completion join for all device writes of one block request.
  using WriteJoin = Join<WriteCallback>;

  // The request bodies behind the request front (DESIGN.md §4 item 18):
  // SubmitWrite/SubmitRead run them for host requests, and parked
  // remainders, GC and rebuild migrations and re-dispatched reads re-enter
  // them directly. An empty `gather_lbns` means targets are contiguous from
  // `lbn`; otherwise gather_lbns[i] is the target of patterns[i] and `lbn`
  // is unused.
  void WriteBody(uint64_t lbn, std::vector<uint64_t> gather_lbns,
                 std::vector<uint64_t> patterns, WriteCallback cb,
                 WriteTag tag);
  void ReadBody(uint64_t lbn, uint64_t nblocks, ReadCallback cb);
  // Gather write (kGcData): one WriteBody pass over arbitrary targets, so a
  // GC or rebuild batch of N chunks costs one partial-parity refresh and one
  // coalesced device write per member instead of N single-block requests.
  // Placement is append-anywhere, so scattered targets batch just as well
  // as a contiguous run.
  void WriteGather(std::vector<uint64_t> lbns, std::vector<uint64_t> patterns,
                   WriteCallback cb);

  ZoneScheduler* SchedOf(uint64_t pa);
  DevZone& ZoneOf(int device, uint32_t zone) {
    return zones_[static_cast<size_t>(device)][zone];
  }
  // The only writer of DevZone::use: keeps free_zones_ in step with every
  // transition so the per-write GC trigger reads a counter, not the zones.
  void SetZoneUse(int device, uint32_t zone, ZoneUse use);

  // Opens a fresh zone (with ZRWA) into the group; returns false when the
  // device has no free zones. GC-destination and parity groups may dip into
  // the reserved zones so GC and stripe parity always make progress.
  bool ReplenishGroup(int device, GroupKind kind, bool emergency = false);
  void RetryStalled();
  // Picks the zone in the group to write next, honouring BUSY channels.
  ZoneScheduler* PickZone(int device, GroupKind kind, uint64_t need_blocks);
  void SealZone(int device, uint32_t zone);
  void MaybeFinishSeal(int device, uint32_t zone);
  // Force-seals the most-garbage idle ACTIVE zone so GC has a victim when
  // every sealed zone is fully valid (garbage trapped in open zones).
  bool ForceSealGarbageZone();

  // Unmaps the chunk `entry` (a BMT entry) points at: zone valid count,
  // stripe live count and, for a stripe's last chunk, its parities.
  void InvalidateChunk(BmtEntry& entry);
  void InvalidatePa(uint64_t pa);
  // Opens the zone groups up to their widths. `fresh`: every zone of the
  // device is free (construction, replacement), so the whole group plan must
  // fit. After Recover a nearly full device may sit at its free-zone reserve
  // and open groups short; PickZone tops them up on later picks.
  void InitGroups(bool fresh);
  void InitDeviceGroups(int device, bool fresh);
  // Refreshes each parity row in place when its window allows, else
  // appends it to a parity zone. The ack waits for the parity writes of a
  // DEGRADED stripe only — a skipped chunk's content lives in parity alone,
  // so acking before parity is durable would lose acknowledged data on a
  // crash.
  void WriteStripeParity(StripeBuilder& builder, WriteTag tag,
                         const std::shared_ptr<WriteJoin>& join);
  // One member write of a block request: submits through `sched` and, when
  // the write lands, flags a dead device, feeds the channel detector and the
  // health monitor (RecordCompletion) and, if `leg`, releases the count it
  // took on `join`. The completion holds `join` even without a count, so the
  // request's continuation — and the GC or rebuild join it captures — lives
  // until this write lands (DESIGN.md §4 item 17).
  void WriteLeg(ZoneScheduler* sched, int device, uint64_t offset,
                std::vector<uint64_t> patterns, std::vector<OobRecord> oobs,
                const std::shared_ptr<WriteJoin>& join, bool leg = true);

  // Fault plane.
  bool DeviceWritable(int device) const { return rebuild_.Writable(device); }
  // True while a rebuild must still re-home this stripe (it references the
  // replaced device). Such stripes are pinned out-of-place: an in-place
  // update would keep the stale stripe alive forever.
  bool StripeNeedsRebuild(uint32_t sn) const {
    return rebuild_.stats().active &&
           static_cast<size_t>(sn) < rebuild_touched_.size() &&
           rebuild_touched_[sn] != 0;
  }
  void OnDeviceUnavailable(int device) { rebuild_.MemberLost(device); }
  // Device read with bounded retry-with-backoff for transient errors
  // (IssueWithRetry); the outcome feeds the health monitor, if any.
  void DeviceRead(int device, uint64_t pa, uint64_t nblocks,
                  std::function<void(const Status&, std::vector<uint64_t>)> cb);

  // One chunk rebuilt from its stripe peers: the degraded read and the
  // mitigated read both go through ReconstructFromPeers.
  struct Peer {
    uint64_t pa;  // kInvalidPa for an unwritten parity row
    int slot;     // data slot, or k_ + parity row
  };
  using ChunkCallback = std::function<void(const Status&, uint64_t)>;
  // Every other written data slot of `entry`'s stripe, then every parity
  // row, in that order.
  std::vector<Peer> StripePeers(const BmtEntry& entry) const;
  // Reads `peers` and decodes the chunk at `entry`: XOR for m = 1, Reed-
  // Solomon for m >= 2 (BIZA's m = 1 stripes are XOR parity, not RS(k, 1)).
  // Phantom chunks, members on dead devices and unwritten parity rows are
  // erasures, as is the chunk itself; unfilled data slots read as zero. More
  // than m erasures fail with kDataLoss before any read.
  void ReconstructFromPeers(const BmtEntry& entry,
                            const std::vector<Peer>& peers, ChunkCallback cb);

  // Gray-failure mitigation plane (all no-ops when health_ == nullptr).
  // True when every stripe peer the reconstruct would read is written,
  // durable and quiescent (StableAt) on a usable, non-gray device.
  bool CanMitigateRead(const BmtEntry& entry) const;
  bool PaStable(uint64_t pa) const;
  // Rebuilds the single chunk at `entry` from its stripe peers, off the
  // critical path of the (slow) target device. The result is revalidated
  // against the current stripe tables at completion; a concurrent GC
  // migration/overwrite fails it with kFailedPrecondition and the caller
  // falls back to a direct read.
  void ReconstructChunk(uint64_t lbn, const BmtEntry& entry, ChunkCallback cb);
  // Applies/clears the in-flight cap on every active scheduler of `device`.
  void ApplyInflightCap(int device, uint64_t cap);
  // The rebuild's engine side: the live lbns of touched stripes,
  // ascending, and one batch's re-homing.
  void RebuildRescan(std::function<void(RebuildSweep::Keys)> next) override;
  bool RebuildTake(uint64_t lbn) override;
  void RebuildMigrate(RebuildSweep::Keys lbns,
                      const RebuildSweep::Token& token) override;
  void RebuildEnd(bool restored) override;

  // GC machinery (§4.3).
  void MaybeStartGc();
  void GcStep();
  std::pair<int, uint32_t> PickGcVictim() const;
  void FinishGcVictim();
  // The channel(s) GC keeps busy on `device`: the GC destination zone's
  // channel on every device, plus the victim zone's channel on the victim
  // device (reads + the eventual erase hammer it).
  bool IsBusyChannel(int device, int channel) const;
  int VoteChannelOf(int device) const;  // channel spikes are attributed to
  bool VoteConfirmed(int device) const;

  void RecordCompletion(int device, uint32_t zone, SimTime submit_time);

  Simulator* sim_;
  std::vector<ZnsDevice*> devices_;
  BizaConfig config_;
  StripeGeometry geometry_;
  int n_;
  int k_;
  int m_ = 1;
  std::unique_ptr<ReedSolomon> rs_;  // non-null when m_ >= 2
  uint64_t zone_cap_;
  uint32_t num_zones_;
  uint64_t exposed_blocks_;

  // BMT: lbn -> (pa, sn). At full geometry the exposed LBA space is
  // hundreds of millions of blocks and user writes may hit it uniformly at
  // random, so it is paged: memory tracks the pages written, and a
  // never-written lbn reads back as the default BmtEntry (pa = kInvalidPa),
  // a dense table's initial state. An entry reference stays valid across
  // later inserts, so a write looks its lbn up once.
  BlockMap<BmtEntry> bmt_;
  // SMT: sn -> m parity PAs (flat, stride m_), per the paper's table layout.
  std::vector<uint64_t> smt_;
  // Stripe member index, flat: data PAs (stride k_) + live counts. Parity
  // locations live in the SMT alone (the old per-stripe copy was a strict
  // mirror of it).
  std::vector<uint64_t> stripe_data_pa_;  // sn * k + slot
  std::vector<uint32_t> stripe_live_;     // sn
  uint32_t next_sn_ = 0;

  BmtEntry BmtGet(uint64_t lbn) const { return bmt_.Get(lbn); }
  uint64_t StripeDataPa(uint32_t sn, int slot) const {
    return stripe_data_pa_[static_cast<size_t>(sn) * static_cast<size_t>(k_) +
                           static_cast<size_t>(slot)];
  }
  void SetStripeDataPa(uint32_t sn, int slot, uint64_t pa) {
    stripe_data_pa_[static_cast<size_t>(sn) * static_cast<size_t>(k_) +
                    static_cast<size_t>(slot)] = pa;
  }

  uint64_t SmtAt(uint32_t sn, int row) const {
    return smt_[static_cast<size_t>(sn) * static_cast<size_t>(m_) +
                static_cast<size_t>(row)];
  }
  void SmtSet(uint32_t sn, int row, uint64_t pa) {
    smt_[static_cast<size_t>(sn) * static_cast<size_t>(m_) +
         static_cast<size_t>(row)] = pa;
  }
  // Computes the m parity patterns over the builder's (possibly partial,
  // zero-padded) data slots.
  std::vector<uint64_t> ComputeParities(const std::vector<uint64_t>& data) const;

  std::vector<std::vector<DevZone>> zones_;          // [device][zone]
  std::vector<uint64_t> free_zones_;  // [device] zones with use == kFree
  std::vector<std::array<ZoneGroup, kNumGroups>> groups_;  // [device]
  GhostCache ghost_;  // the zone group selector (array-wide)
  std::vector<std::unique_ptr<ChannelDetector>> detectors_;  // per device

  // Stripe builders: one per data placement class (3 tiers + GC).
  static constexpr int kNumBuilders = 4;
  static constexpr int kGcBuilder = 3;
  std::array<StripeBuilder, kNumBuilders> builders_;

  // GC state.
  bool gc_active_ = false;
  int gc_device_ = -1;
  uint32_t gc_victim_zone_ = 0;
  uint64_t gc_scan_ = 0;
  // A migration in the current pass failed or could not allocate a
  // destination. The scan cursor is rolled back over the affected chunks,
  // so the victim cannot be declared empty (and reset) while live content
  // remains — resetting would erase acknowledged data. Failed passes retry
  // with a backoff; after too many futile passes the victim is abandoned
  // un-reset (safe: its chunks stay readable in place).
  bool gc_pass_failed_ = false;
  uint64_t gc_futile_passes_ = 0;
  // Per-device BUSY channel attribution while GC runs (the channels of the
  // GC destination zones).
  std::vector<int> gc_busy_channel_set_;
  std::vector<bool> gc_busy_confirmed_set_;
  int gc_victim_channel_ = -1;
  bool gc_victim_confirmed_ = false;
  // Channels still digesting a zone erase: busy until the stored time even
  // after GC itself has moved on ([device][channel] -> cooldown end).
  std::vector<std::vector<SimTime>> channel_busy_until_;

  uint64_t selector_rr_ = 0;    // BIZAw/oSelector round-robin
  uint64_t parity_version_ = 0; // monotonic version stamped into parity OOB
  std::vector<std::function<void()>> stalled_writes_;  // GC backpressure
  bool stall_timer_armed_ = false;
  bool retry_scheduled_ = false;
  bool fail_stalled_ = false;   // ENOSPC mode: parking requests fail instead
  uint64_t stall_progress_marker_ = 0;
  int stall_futile_rounds_ = 0;
  void ArmStallTimer();

  std::vector<bool> device_failed_;

  // Online-rebuild state (see ReplaceDevice).
  RebuildSweep rebuild_;
  std::vector<char> rebuild_touched_;   // sn -> stripe referenced dead device

  BizaStats stats_;
  RequestFront front_;
  CpuAccount cpu_;

  DeviceHealthMonitor* health_ = nullptr;

  Observability* obs_ = nullptr;
  uint16_t span_gc_step_ = 0;
  uint16_t key_device_ = 0;
  uint16_t key_zone_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_BIZA_BIZA_ARRAY_H_
