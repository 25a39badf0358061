// The gray-failure read policy, shared by every engine (BizaArray, Mdraid,
// ZapRaid). DESIGN.md §6 "Acting on reads" describes it:
//
//   * a read of a *suspect* member races a direct read against a
//     reconstruct from the peers, fired after HedgeDelayNs; the first
//     successful leg delivers;
//   * a read of a *gray* member is reconstructed around outright, except
//     every probe_interval-th read, which races at delay 0 so the detector
//     keeps receiving the member's samples.
//
// The helper owns the decision, the probe schedule, the hedge timer, the
// first-completion latch and the counters. The engine supplies the legs:
// how to read the block directly, how to rebuild it, whether a rebuild is
// sound right now, and what to do when a leg fails.
#ifndef BIZA_SRC_HEALTH_READ_MITIGATION_H_
#define BIZA_SRC_HEALTH_READ_MITIGATION_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/status.h"
#include "src/health/device_health.h"
#include "src/metrics/stat_registry.h"
#include "src/sim/simulator.h"

namespace biza {

struct ReadMitigationStats {
  uint64_t hedged_reads = 0;        // direct reads raced against a reconstruct
  uint64_t hedge_recon_wins = 0;    // races the reconstruct leg won
  uint64_t recon_around_reads = 0;  // gray-member reads reconstructed outright
  uint64_t probe_reads = 0;         // scheduled direct probes of a gray member
  uint64_t recon_fallbacks = 0;     // gray reconstructs that failed over

  // Registers the five counters as `<engine>.health.<name>`.
  void Register(StatRegistry& reg, const std::string& engine) const;
};

// One block's legs, all engine code. `direct` and `reconstruct` report the
// block's pattern (or an error) through their Done argument.
struct ReadLegs {
  using Done = std::function<void(const Status&, uint64_t)>;

  // True while the block can be rebuilt soundly from its peers. Asked at
  // the decision and again when the hedge timer fires.
  std::function<bool()> can_reconstruct;
  std::function<void(Done)> direct;       // read the block from the member
  std::function<void(Done)> reconstruct;  // rebuild it from the peers
  Done deliver;                           // hand the result to the reader
  // A gray-member reconstruct failed: serve the block the engine's way.
  std::function<void()> fallback;
  // The direct leg returned kUnavailable: mark the member dead and read
  // the block again.
  std::function<void()> redrive;
};

// MitigateRead's body, for a suspect or gray `device`.
bool MitigateReadWith(Simulator* sim, DeviceHealthMonitor* health, int device,
                      ReadMitigationStats* stats, ReadLegs legs);

// Runs the policy on a read of `device` with the legs from `make_legs()`.
// Returns false, with no side effects, when `health` is null, the device is
// neither suspect nor gray, or the block cannot be rebuilt; the caller then
// reads it plainly. Healthy reads never build the legs.
template <typename MakeLegs>
bool MitigateRead(Simulator* sim, DeviceHealthMonitor* health, int device,
                  ReadMitigationStats* stats, MakeLegs&& make_legs) {
  if (health == nullptr) {
    return false;
  }
  const DeviceHealth state = health->state(device);
  if (state != DeviceHealth::kSuspect && state != DeviceHealth::kGray) {
    return false;
  }
  return MitigateReadWith(sim, health, device, stats, make_legs());
}

}  // namespace biza

#endif  // BIZA_SRC_HEALTH_READ_MITIGATION_H_
