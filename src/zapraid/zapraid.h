// ZapRaid: a ZapRAID-style log-structured RAID engine over raw ZNS zones
// (Li et al., "High-Performance Log-Structured RAID System for ZNS SSDs").
// A third design point next to BIZA's ZRWA-anchored stripes and Mdraid's
// in-place parity:
//
// * Zone groups: group g is physical zone g on every member device. Stripe
//   row o of a group spans all members at in-zone offset o — one rotating
//   parity chunk plus data chunks, written strictly sequentially per zone
//   (no ZRWA, no zone append), so any ZNS device can serve as a member.
// * Log-structured block interface: an L2P table maps each LBN to its
//   current (device, group, row) home; overwrites append at the write
//   frontier and invalidate the old chunk (per-group valid counters drive
//   group-granular GC).
// * Lightweight stripe-header journaling: every chunk's OOB record is the
//   stripe header — data chunks carry (LBN, wsn) where wsn is a strictly
//   monotonic per-block write sequence number; parity chunks carry their
//   global row id; pad chunks a sentinel. Crash recovery is a pure OOB
//   scan: highest-wsn-wins rebuilds the L2P with a total order, so
//   concurrent user/GC frontiers can never resurrect stale data. There is
//   no metadata zone and no ordered metadata write on the data path (the
//   RAIZN bottleneck ZapRAID eliminates).
// * Ack-on-data-durability: a write is acknowledged when its own data
//   chunks finish programming — parity of the open row follows
//   asynchronously. Acked data therefore survives any crash (zero
//   acked-write loss), while rows whose parity had not landed are readable
//   but unprotected until GC rewrites them (the open-stripe window of the
//   ZapRAID paper; see DESIGN.md §8.4).
// * Fault/health planes: degraded reads XOR the row's survivors; device
//   death is auto-detected from UNAVAILABLE completions and queued chunks
//   are re-appended onto live members preserving their original wsn;
//   ReplaceDevice evacuates every row the dead member touched through the
//   GC frontier in throttled batches (RebuildSweep) — reconstructing the
//   dead member's chunks, copying their live siblings — so rebuilt rows are
//   fully redundant again. With a DeviceHealthMonitor attached,
//   suspect members get hedged reads, gray members reconstruct-around
//   reads with periodic probes, and new rows steer parity onto the gray
//   member so its stretched completions leave the read path.
#ifndef BIZA_SRC_ZAPRAID_ZAPRAID_H_
#define BIZA_SRC_ZAPRAID_ZAPRAID_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/sparse_array.h"
#include "src/engines/rebuild.h"
#include "src/engines/request_front.h"
#include "src/engines/target.h"
#include "src/health/device_health.h"
#include "src/health/read_mitigation.h"
#include "src/metrics/cpu_account.h"
#include "src/metrics/observability.h"
#include "src/sim/simulator.h"
#include "src/zapraid/zapraid_config.h"
#include "src/zns/zns_device.h"

namespace biza {

struct ZapRaidStats {
  uint64_t user_written_blocks = 0;
  uint64_t user_read_blocks = 0;
  uint64_t appended_chunks = 0;   // data chunk device writes (user + GC)
  uint64_t parity_writes = 0;     // parity chunk device writes
  uint64_t pad_writes = 0;        // pad chunks closing short rows
  uint64_t rows_closed_early = 0; // rows sealed before filling k data slots
  uint64_t requeued_chunks = 0;   // chunks re-appended off a dead member
  uint64_t gc_runs = 0;           // victim groups collected
  uint64_t gc_abandoned = 0;      // victims given up after zero-progress passes
  uint64_t gc_migrated_data = 0;  // valid chunks migrated by GC
  uint64_t gc_zone_resets = 0;
  uint64_t degraded_reads = 0;
  uint64_t write_retries = 0;
  uint64_t read_retries = 0;
  uint64_t write_stalls = 0;      // requests parked awaiting a free group
  // Gray-failure mitigation plane (zero unless a health monitor is attached).
  ReadMitigationStats mitigation;
  uint64_t steered_parity_rows = 0;  // rows whose parity was steered to gray
};

class ZapRaid : public BlockTarget, private RebuildSweep::Engine {
 public:
  ZapRaid(Simulator* sim, std::vector<ZnsDevice*> devices,
          const ZapRaidConfig& config);
  ~ZapRaid() override = default;

  uint64_t capacity_blocks() const override { return exposed_blocks_; }

  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag) override;
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override;
  // Seals the open rows of both frontiers (parity out, pads in) and fires
  // `done` once every queued chunk is durable. Data needs no flush — it is
  // acked only when durable — so this is a parity-protection barrier, not a
  // durability one.
  void FlushBuffers(std::function<void()> done) override;

  // Fault injection: degraded reads reconstruct this device's chunks from
  // the row's survivors + parity. New rows exclude the member; its queued
  // chunks are re-appended onto live members (original wsn preserved, so
  // recovery ordering is unaffected). Deaths are also auto-detected from
  // UNAVAILABLE completions.
  void SetDeviceFailed(int device, bool failed);

  // Online rebuild: swaps the failed `device` slot for an empty
  // `replacement` (same geometry) and re-homes every L2P-valid chunk of
  // the dead member through the GC frontier in throttled batches, while
  // foreground I/O keeps flowing (reads reconstruct from parity). The
  // member rejoins new groups immediately; device_failed clears when the
  // sweep finds no stale chunk left.
  Status ReplaceDevice(int device, ZnsDevice* replacement);
  const RebuildStats& rebuild() const { return rebuild_.stats(); }

  // Crash recovery: rebuilds the L2P and per-row stripe metadata by
  // scanning every device's OOB stripe headers. Requires a quiesced array
  // (no in-flight I/O, GC, or rebuild) — construct with recover_mode.
  Status Recover();

  // Gray-failure mitigation: feeds every device completion into `monitor`
  // and arms hedged reads (suspect), reconstruct-around reads with probes
  // (gray) and parity steering onto gray members. Pass nullptr to detach;
  // a detached array is byte-identical to one that never had a monitor.
  void SetHealthMonitor(DeviceHealthMonitor* monitor) { health_ = monitor; }

  // Registers the engine's counters/gauges ("zapraid.*"), its write/read
  // latency histograms, and zapraid.* spans. Pass nullptr to detach.
  void AttachObservability(Observability* obs);

  const ZapRaidStats& stats() const { return stats_; }
  CpuAccount& cpu() { return cpu_; }
  const ZapRaidConfig& config() const { return config_; }
  bool gc_active() const { return gc_active_; }

  // Bytes of mapping/stripe state currently resident (L2P, row metadata,
  // live masks, host copies). Scales with written data, not exposed
  // capacity.
  uint64_t ResidentStateBytes() const;

  // Cross-checks the engine's redundant bookkeeping; returns an error naming
  // the first mismatch. Every live bit is the L2P home of exactly one LBN and
  // every L2P entry's chunk has its live bit; each group's live-bit count
  // equals its valid count; free_groups_ counts the kFree groups. These are
  // updated together, so they hold between events; tests check them at
  // quiesce points.
  Status CheckInvariants() const;

  // Test hook.
  uint64_t FreeGroups() const { return free_groups_; }

 private:
  static constexpr uint64_t kInvalidPa = ~0ULL;
  // OOB sentinel spaces, disjoint from user LBNs (< 2^40) and from
  // OobRecord::kUnsetLbn: parity headers encode base + global row id, pads
  // a single marker.
  static constexpr uint64_t kParityLbnBase = 1ULL << 48;
  static constexpr uint64_t kPadLbn = 1ULL << 49;
  static bool IsParityOobLbn(uint64_t lbn) {
    return lbn >= kParityLbnBase && lbn < kPadLbn;
  }
  // Group-granular GC thresholds on the free-group ratio: GC starts below
  // the trigger and runs victims until it climbs back above the stop.
  static constexpr double kGcTriggerFreeRatio = 0.20;
  static constexpr double kGcStopFreeRatio = 0.28;
  // Valid data chunks migrated per GC batch before yielding the array.
  static constexpr uint64_t kGcBatchChunks = 32;
  // Free groups only GC destinations may take; user writes stall rather
  // than dip into them, so migration always has room to make progress.
  static constexpr uint64_t kReservedGroups = 2;
  // Max blocks coalesced into one device write when a zone queue drains.
  static constexpr uint64_t kDispatchBatchBlocks = 64;

  // 40-bit physical address, mirroring BIZA: 8-bit device | 32-bit global
  // block offset (group * zone_cap + row).
  uint64_t MakePa(int device, uint32_t group, uint64_t row) const {
    return (static_cast<uint64_t>(device) << 32) |
           (static_cast<uint64_t>(group) * zone_cap_ + row);
  }
  static int PaDevice(uint64_t pa) { return static_cast<int>(pa >> 32); }
  uint32_t PaGroup(uint64_t pa) const {
    return static_cast<uint32_t>((pa & 0xFFFFFFFFULL) / zone_cap_);
  }
  uint64_t PaRow(uint64_t pa) const { return (pa & 0xFFFFFFFFULL) % zone_cap_; }

  struct L2pEntry {
    uint64_t pa = kInvalidPa;
    uint32_t wsn = 0;
    bool operator==(const L2pEntry&) const = default;
  };

  // Per-row stripe metadata: which members hold a chunk (present), which
  // chunks finished programming (durable), and where parity sits. Rebuilt
  // from the OOB scan on recovery.
  struct RowMeta {
    uint16_t present = 0;
    uint16_t durable = 0;
    // Member mask the row's parity XOR covers, stamped when the row closed
    // (also carried in the parity chunk's OOB header). Recovery trusts a
    // persisted parity only when `present` matches it exactly — a torn row
    // (parity programmed, a data program lost) must not reconstruct.
    uint16_t parity_cover = 0;
    int8_t parity_dev = -1;
    bool parity_durable = false;
  };

  enum class GroupUse : uint8_t { kFree, kOpen, kSealed };

  struct Group {
    GroupUse use = GroupUse::kFree;
    uint64_t valid = 0;        // L2P-valid data chunks in the group
    uint64_t data_chunks = 0;  // data chunks ever appended (garbage delta)
    uint64_t epoch = 0;        // bumped on reset; recons revalidate with it
    // Devices holding the group's chunks: the live members when it opened
    // (recovery: the devices whose zone has a header). Fixed until the
    // reset — a member dropped later (death, dead zone) still holds the
    // rows it wrote, so it keeps its bit.
    uint16_t members = 0;
    std::vector<RowMeta> rows; // sized zone_cap_ while the group holds data
    // Per row, the members whose chunk is some LBN's L2P home. Kept apart
    // from `rows` so that an overwrite clears two bytes; sized with `rows`.
    std::vector<uint16_t> live;
  };

  // One queued chunk program for a (group, device) zone. Zones are
  // sequential-write-required, so each zone runs a one-batch-in-flight FIFO
  // (the RAIZN discipline) — `offset` values are contiguous by construction.
  struct ChunkOp {
    uint64_t offset = 0;
    uint64_t pattern = 0;
    OobRecord oob;
    WriteTag tag = WriteTag::kData;
    std::function<void(const Status&)> done;  // fires when durable
    bool finish_sentinel = false;             // FinishZone when dequeued
  };

  struct ZoneQueue {
    std::deque<ChunkOp> q;
    bool busy = false;
  };

  // Per-open-group I/O state; outlives the builder's move to the next
  // group (sealed groups drain their queues in the background).
  struct GroupIo {
    uint32_t group = 0;
    std::vector<ZoneQueue> queues;  // indexed by device
  };

  // A write frontier: one open group, one open row. Two frontiers exist —
  // user appends and GC/rebuild migrations — so migration traffic never
  // interleaves into user stripes.
  struct Builder {
    bool open = false;
    uint32_t group = 0;
    uint64_t row = 0;
    std::vector<int> members;  // live members of the open group (sorted)
    std::shared_ptr<GroupIo> io;
    bool row_open = false;
    int parity_dev = -1;
    std::vector<int> data_devs;
    size_t next_slot = 0;
    std::vector<uint64_t> row_patterns;
  };
  static constexpr int kUserBuilder = 0;
  static constexpr int kGcBuilder = 1;
  static constexpr int kNumBuilders = 2;

  struct PendingWrite {
    uint64_t pattern = 0;
    uint32_t wsn = 0;
  };

  int TagBuilder(WriteTag tag) const {
    return (tag == WriteTag::kGcData || tag == WriteTag::kGcParity)
               ? kGcBuilder
               : kUserBuilder;
  }
  bool DeviceWritable(int device) const { return rebuild_.Writable(device); }
  // The only writer of Group::use: keeps free_groups_ in step with every
  // transition so the per-write GC trigger reads a counter, not the groups.
  void SetGroupUse(Group& grp, GroupUse use);

  // Frontier machinery.
  bool EnsureBuilderOpen(int b);
  void EnsureRowOpen(int b);
  // Appends one chunk at the frontier of builder `b`. `oob` carries the
  // chunk's identity; when `repoint_from` != kInvalidPa this is a requeue
  // off a dead member and the L2P is re-pointed only if it still references
  // that location (original wsn preserved). Returns false when no group
  // could be opened (caller parks the request).
  bool AppendChunk(int b, uint64_t pattern, OobRecord oob, WriteTag tag,
                   std::function<void(const Status&)> done,
                   uint64_t repoint_from = kInvalidPa);
  void CloseRow(int b, WriteTag parity_tag);
  void CloseRowEarly(int b);
  void SealGroup(int b);
  void Enqueue(const std::shared_ptr<GroupIo>& io, int device, ChunkOp op);
  void Dispatch(const std::shared_ptr<GroupIo>& io, int device);
  void FinishZoneIfOpen(int device, uint32_t zone);
  // Drops `device` from builder `b`'s open group (member death, or a zone
  // gone terminally bad): closes the in-progress row and seals the group
  // when fewer than two members remain.
  void DropBuilderMember(int b, int device);
  // One coalesced member write, retried through IssueWithRetry.
  void DeviceWriteBatch(const std::shared_ptr<GroupIo>& io, int device,
                        std::vector<ChunkOp> ops);
  void MarkDurable(uint32_t group, int device, const ChunkOp& op);
  void PurgeQueue(const std::shared_ptr<GroupIo>& io, int device);
  void CheckGroupDrained(const std::shared_ptr<GroupIo>& io);
  void RequeueOp(int builder, ChunkOp op, uint32_t from_group, int from_dev);

  // Unmaps the chunk at `pa` (an LBN's previous L2P home): clears its live
  // bit and drops its group's valid count.
  void InvalidatePa(uint64_t pa);
  void RetryStalled();
  void MaybeFlushDone();
  bool AllIdle() const { return inflight_ == 0 && queued_ops_ == 0; }

  // Read-path helpers; `land` receives the block's status and content.
  // Resolves one block of a SubmitRead: direct read on a healthy home,
  // degraded reconstruction on a dead one, hedged / reconstruct-around
  // variants under health-monitor direction.
  void ReadBlock(uint64_t lbn, L2pEntry entry, ReadLegs::Done land);
  // Re-resolves one block after its home member died mid-read: serves the
  // host copy from pending_ when the requeue machinery already re-pointed
  // the L2P at a not-yet-programmed home, else re-drives via ReadBlock.
  void RedriveRead(uint64_t lbn, ReadLegs::Done land);
  // One member read, retried through IssueWithRetry.
  void DeviceRead(int device, uint32_t zone, uint64_t offset, uint64_t nblocks,
                  std::function<void(const Status&, std::vector<uint64_t>)> cb);
  bool CanReconstructRow(const Group& grp, const RowMeta& meta,
                         int target) const;
  // XOR of the row's other durable chunks = the target chunk. Revalidates
  // the group epoch at completion (a GC reset fails it; callers fall back).
  void ReconstructChunk(uint64_t pa,
                        std::function<void(const Status&, uint64_t)> cb);
  void OnDeviceUnavailable(int device);
  // Drops a failed member from the open groups, re-homing its queued chunks.
  void DegradeMember(int device);

  // GC machinery (group-granular).
  void MaybeStartGc();
  void GcStep();
  // GC's liveness test: the stripe header of the chunk at (device, group,
  // row) when that chunk is its LBN's L2P home, else nullopt.
  std::optional<OobRecord> LiveChunkHeader(int device, uint32_t group,
                                           uint64_t row) const;
  // Debug check of the live masks: no chunk of `row` on a device in `devs`
  // passes LiveChunkHeader unless its live bit is set.
  bool LiveMaskCovers(uint32_t group, uint64_t row, unsigned devs) const;
  int PickGcVictim() const;
  // Appends one GC or rebuild migration at the GC frontier (wsn 0: a fresh
  // one) for an LBN still at `from_pa`, parking a retry while no group is
  // free.
  void Relocate(uint64_t lbn, uint32_t wsn, uint64_t pattern, uint64_t from_pa,
                std::function<void(const Status&)> done);
  void FinishGcVictim();

  // The rebuild's engine side. RebuildCovers: `e` still lives in a row the
  // replaced member contributed to (chunk or parity) and predates the
  // rebuild (post-rebuild appends never need re-homing).
  bool RebuildCovers(const L2pEntry& e) const;
  void RebuildRescan(std::function<void(RebuildSweep::Keys)> next) override;
  bool RebuildTake(uint64_t lbn) override;
  void RebuildMigrate(RebuildSweep::Keys lbns,
                      const RebuildSweep::Token& token) override;
  void RebuildEnd(bool restored) override;

  Simulator* sim_;
  std::vector<ZnsDevice*> devices_;
  ZapRaidConfig config_;
  int n_;
  int k_;
  uint64_t zone_cap_;
  uint32_t num_zones_;
  uint64_t exposed_blocks_;

  // lbn -> (pa, wsn); a never-written lbn reads as L2pEntry{}. Paged, so
  // an entry reference survives later inserts (AppendChunk looks up once).
  BlockMap<L2pEntry> l2p_;
  uint32_t next_wsn_ = 1;
  std::vector<Group> groups_;
  uint64_t free_groups_ = 0;  // groups with use == kFree
  std::unordered_map<uint32_t, std::shared_ptr<GroupIo>> active_io_;
  Builder builders_[kNumBuilders];
  // In-flight write content served to reads before the program lands (the
  // host-DRAM copy of a submitted-but-not-yet-durable block), keyed by LBN.
  SparseTable<PendingWrite> pending_;

  uint64_t inflight_ = 0;    // device write batches in flight
  uint64_t queued_ops_ = 0;  // chunks sitting in zone queues
  std::vector<std::function<void()>> flush_waiters_;
  std::vector<std::function<void()>> stalled_writes_;

  bool gc_active_ = false;
  uint32_t gc_victim_ = 0;
  uint64_t gc_row_ = 0;
  int gc_passes_ = 0;               // consecutive zero-progress rescan passes
  uint64_t gc_pass_valid_ = 0;      // victim valid count at last pass end
  uint64_t gc_victim_pending_ = 0;  // migrations not yet durable
  bool gc_scan_done_ = false;

  std::vector<bool> device_failed_;
  RebuildSweep rebuild_;
  uint32_t rebuild_start_wsn_ = 0;

  ZapRaidStats stats_;
  RequestFront front_;
  CpuAccount cpu_;
  DeviceHealthMonitor* health_ = nullptr;

  Observability* obs_ = nullptr;
  uint16_t span_gc_step_ = 0;
  uint16_t key_blocks_ = 0;
  uint16_t key_device_ = 0;
  uint16_t key_group_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_ZAPRAID_ZAPRAID_H_
