// dm-zap: block-interface to ZNS-interface adapter (models the Western
// Digital dm-zap device-mapper target, as revised by the BIZA authors to
// write all open zones in parallel).
//
// Responsibilities (§2.3):
// * Maintains LBN -> (zone, in-zone offset) mappings so the upper layer can
//   issue random block writes against sequential-write zones.
// * Allocates incoming writes log-structured across up to
//   `max_open_data_zones` concurrently open zones — but enforces ONE
//   in-flight write per zone, the discipline real dm-zap uses to survive
//   I/O-stack reordering (§3.2). The wait a request spends queued behind the
//   in-flight write of its zone is charged as spinlock CPU burn, which is
//   what makes dm-zap the dominant CPU consumer in Fig. 17.
// * Runs its own greedy garbage collection when free zones run low. dm-zap
//   is lifetime-oblivious: hot and cold blocks share zones, so victims carry
//   much valid data — the write-amplification problem of §2.3.
//
// dm-zap stacks on any ZonedTarget: a raw ZNS SSD (mdraid+dmzap) or RAIZN
// (dmzap+RAIZN).
#ifndef BIZA_SRC_ENGINES_DMZAP_H_
#define BIZA_SRC_ENGINES_DMZAP_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/sparse_array.h"
#include "src/engines/request_front.h"
#include "src/engines/target.h"
#include "src/metrics/cpu_account.h"
#include "src/sim/simulator.h"

namespace biza {

struct DmZapConfig {
  // Fraction of the zoned capacity exposed as block space (rest is GC OP).
  double exposed_capacity_ratio = 0.80;
};

struct DmZapStats {
  uint64_t user_written_blocks = 0;
  uint64_t user_read_blocks = 0;
  uint64_t gc_migrated_blocks = 0;
  uint64_t gc_zone_resets = 0;
  uint64_t gc_runs = 0;
};

class DmZap : public BlockTarget {
 public:
  DmZap(Simulator* sim, ZonedTarget* backend, const DmZapConfig& config);
  ~DmZap() override = default;

  uint64_t capacity_blocks() const override { return exposed_blocks_; }

  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag) override;
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override;

  const DmZapStats& stats() const { return stats_; }
  CpuAccount& cpu() { return cpu_; }
  // Bytes of dm-zap's own mapping state (L2P, reverse maps, zone table),
  // not its backend's.
  uint64_t ResidentStateBytes() const;
  bool gc_active() const { return gc_active_; }

 private:
  static constexpr uint64_t kUnmapped = ~0ULL;
  // Zones written in parallel (authors' revision; original dm-zap used 1),
  // capped by the backend's open-zone limit.
  static constexpr int kMaxOpenDataZones = 6;
  static constexpr double kGcTriggerFreeRatio = 0.12;  // start GC below this
  static constexpr double kGcStopFreeRatio = 0.18;     // collect until this
  static constexpr uint64_t kGcBatchBlocks = 16;  // blocks migrated per step

  struct ZoneMeta {
    uint64_t wptr = 0;          // allocation pointer (shadow write pointer)
    uint64_t valid = 0;         // live blocks
    // In-zone offset -> lbn (engine-side reverse map); a zone fills from
    // offset 0, so chunks suit it.
    ChunkedArray<uint64_t> rmap;
    bool open = false;
    bool busy = false;          // one in-flight write per zone
    bool sealed = false;        // finished (GC candidate)
    SimTime last_dispatch = 0;  // for clamping the spin-wait CPU charge
  };

  struct WriteJob {
    uint64_t offset;
    std::vector<uint64_t> patterns;
    std::vector<uint64_t> lbns;
    WriteTag tag;
    SimTime enqueued_at;
    std::function<void()> done;
  };

  // Picks an open zone with room, opening a new one if needed. GC writes
  // may use one reserved open-zone slot so migration can always drain.
  // Returns the zone id or kUnmapped if no space exists.
  uint64_t PickZoneForWrite(uint64_t want_blocks, bool for_gc);
  // The write body behind the request front (DESIGN.md §4 item 18):
  // SubmitWrite runs it for host writes, and parked remainders and GC
  // migrations re-enter it directly.
  void WriteBody(uint64_t lbn, std::vector<uint64_t> patterns,
                 WriteCallback cb, WriteTag tag);
  // Parks a write that found no space until GC frees a zone.
  void RetryStalled();
  void EnqueueZoneWrite(uint32_t zone, WriteJob job);
  void PumpZone(uint32_t zone);
  void OnZoneWriteDone(uint32_t zone, const WriteJob& job);
  void SealIfFull(uint32_t zone);

  void MaybeStartGc();
  void GcStep();
  uint64_t PickVictim() const;

  uint64_t FreeZones() const { return free_zones_; }
  // Unmaps the block `loc` (an L2P entry) points at and clears the entry.
  void Invalidate(uint64_t& loc);

  Simulator* sim_;
  ZonedTarget* backend_;
  DmZapConfig config_;
  uint64_t exposed_blocks_;
  uint64_t zone_cap_;

  // lbn -> zone * zone_cap + offset, kUnmapped if unwritten.
  BlockMap<uint64_t> l2p_{kUnmapped};
  std::vector<ZoneMeta> zones_;
  // Zones neither open nor sealed (wptr 0): moved only where a zone opens
  // and where GC resets one, so the per-write GC trigger never scans.
  uint64_t free_zones_ = 0;
  std::vector<uint32_t> open_zones_;  // data zones currently open
  std::deque<std::deque<WriteJob>> zone_queues_;
  size_t open_rr_ = 0;

  bool gc_active_ = false;
  uint64_t gc_victim_ = kUnmapped;
  uint64_t gc_scan_offset_ = 0;
  std::vector<std::function<void()>> stalled_writes_;

  DmZapStats stats_;
  // Never attached: the four dm-zaps under mdraid would share one name.
  RequestFront front_;
  CpuAccount cpu_;
};

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_DMZAP_H_
