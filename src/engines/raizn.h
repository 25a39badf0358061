// RAIZN: Redundant Array of Independent Zoned Namespaces (Kim et al.,
// ASPLOS '23), reimplemented as the ZNS-interface AFA baseline of the paper.
//
// Exposes logical zones (ZonedTarget) striped over N ZNS SSDs:
// * Logical zone L maps to physical zone L on every device. Each stripe
//   occupies the same in-zone offset on all devices: k = N-1 data blocks
//   plus one parity block on the rotating (left-asymmetric) parity drive.
// * Sequential-write-only, like the ZNS interface it exposes.
// * Partial parity (the XOR of the blocks written so far in an unfinished
//   stripe) is persisted to a CENTRALIZED per-device metadata zone so a
//   crash mid-stripe loses nothing. All partial parities of a device funnel
//   into that one zone — the throughput cap the paper identifies (§3.3).
//   Two metadata zones ping-pong: when one fills it is reset (its parities
//   are stale once their stripes sealed) and the other takes over.
// * One in-flight write per physical zone (the safe ordering discipline for
//   sequential-write zones under a reordering I/O stack).
// * Optional volatile parity buffer ("stripe cache", §5.4): partial parities
//   are held in host DRAM and only flushed if their stripe stays open past
//   a compensation deadline — trading fault tolerance for endurance, used
//   for the Fig. 14 comparison.
#ifndef BIZA_SRC_ENGINES_RAIZN_H_
#define BIZA_SRC_ENGINES_RAIZN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/engines/target.h"
#include "src/metrics/cpu_account.h"
#include "src/raid/geometry.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"

namespace biza {

struct RaiznConfig {
  // Volatile PP buffer capacity in entries (0 = synchronous PP persistence,
  // the crash-consistent default).
  uint64_t parity_buffer_entries = 0;
};

struct RaiznStats {
  uint64_t user_written_blocks = 0;
  uint64_t parity_written_blocks = 0;   // final parities to data zones
  uint64_t pp_written_blocks = 0;       // partial parities to metadata zones
  uint64_t pp_absorbed = 0;             // PPs that died in the DRAM buffer
  uint64_t md_zone_resets = 0;
};

class Raizn : public ZonedTarget {
 public:
  Raizn(Simulator* sim, std::vector<ZnsDevice*> devices,
        const RaiznConfig& config);
  ~Raizn() override = default;

  uint32_t num_zones() const override { return num_logical_zones_; }
  uint64_t zone_capacity_blocks() const override {
    return dev_zone_cap_ * static_cast<uint64_t>(k_);
  }
  int max_open_zones() const override { return max_open_zones_; }

  void SubmitZoneWrite(uint32_t zone, uint64_t offset,
                       std::vector<uint64_t> patterns, WriteCallback cb,
                       WriteTag tag) override;
  void SubmitZoneRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                      ReadCallback cb) override;
  Status ResetZone(uint32_t zone) override;
  Status FinishZone(uint32_t zone) override;

  const RaiznStats& stats() const { return stats_; }
  CpuAccount& cpu() { return cpu_; }

 private:
  // Deadline after which a buffered PP is persisted anyway (fault-tolerance
  // compensation, cf. §5.4's discussion of volatile write buffers).
  static constexpr SimTime kParityBufferFlushNs = 30 * kMillisecond;
  struct PhysJob {
    uint64_t offset;
    std::vector<uint64_t> patterns;
    std::vector<OobRecord> oobs;
    std::function<void()> done;  // may be empty
  };
  struct PhysZoneState {
    bool busy = false;
    bool finish_pending = false;  // finish the device zone once drained
    std::deque<PhysJob> queue;
  };
  struct LogicalZone {
    uint64_t wptr = 0;
    std::vector<uint64_t> stripe_buf;  // patterns of the open partial stripe
  };
  struct BufferedPp {
    uint32_t zone;
    uint64_t stripe;  // global stripe id
    uint64_t pattern;
    int parity_device;
    SimTime buffered_at;
    bool dead = false;  // stripe sealed before the PP had to be persisted
  };

  uint64_t GlobalStripe(uint32_t zone, uint64_t in_zone_stripe) const {
    return static_cast<uint64_t>(zone) * dev_zone_cap_ + in_zone_stripe;
  }

  void EnqueuePhys(int device, uint32_t phys_zone, PhysJob job);
  void PumpPhys(int device, uint32_t phys_zone);
  void MaybeFinishPhys(int device, uint32_t phys_zone);

  // Persists a partial parity to the metadata zone of `device`.
  void PersistPp(int device, uint64_t pattern, std::function<void()> done);
  void BufferPp(uint32_t zone, uint64_t stripe, uint64_t pattern, int pdrive);
  void DropBufferedPp(uint32_t zone, uint64_t stripe);
  void SchedulePpSweep();
  void PpSweep();

  Simulator* sim_;
  std::vector<ZnsDevice*> devices_;
  RaiznConfig config_;
  StripeGeometry geometry_;
  int n_;
  int k_;
  uint64_t dev_zone_cap_;
  uint32_t num_logical_zones_;
  int max_open_zones_;

  std::vector<LogicalZone> logical_zones_;
  // phys_state_[device][zone]
  std::vector<std::vector<PhysZoneState>> phys_state_;
  // Metadata zones: per device, two physical zone ids ping-ponging.
  struct MdState {
    uint32_t zones[2];
    int active = 0;
    uint64_t wptr = 0;
  };
  std::vector<MdState> md_;

  std::deque<BufferedPp> pp_buffer_;
  bool pp_sweep_scheduled_ = false;

  RaiznStats stats_;
  CpuAccount cpu_;
};

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_RAIZN_H_
