#include "src/health/read_mitigation.h"

#include <memory>
#include <utility>

namespace biza {

void ReadMitigationStats::Register(StatRegistry& reg,
                                   const std::string& engine) const {
  const std::string prefix = engine + ".health.";
  reg.RegisterCounter(prefix + "hedged_reads", [this] { return hedged_reads; });
  reg.RegisterCounter(prefix + "hedge_recon_wins",
                      [this] { return hedge_recon_wins; });
  reg.RegisterCounter(prefix + "recon_around_reads",
                      [this] { return recon_around_reads; });
  reg.RegisterCounter(prefix + "probe_reads", [this] { return probe_reads; });
  reg.RegisterCounter(prefix + "recon_fallbacks",
                      [this] { return recon_fallbacks; });
}

namespace {

// Shared by the legs of one mitigated read; `done` latches the first leg
// that delivers (or re-drives) so the other one is ignored.
struct Race {
  ReadLegs legs;
  bool done = false;
};

}  // namespace

bool MitigateReadWith(Simulator* sim, DeviceHealthMonitor* health, int device,
                      ReadMitigationStats* stats, ReadLegs legs) {
  if (!legs.can_reconstruct()) {
    return false;
  }
  const bool gray = health->IsGray(device);
  const bool probe = gray && health->ProbeDue(device);
  auto race = std::make_shared<Race>();
  race->legs = std::move(legs);
  if (gray && !probe) {
    // Reconstruct-around: the gray member never sees this read.
    stats->recon_around_reads++;
    race->legs.reconstruct(
        [race, stats](const Status& status, uint64_t pattern) {
          if (status.ok()) {
            race->legs.deliver(status, pattern);
            return;
          }
          // Sources changed in flight (GC, overwrite, a flush): slow beats
          // wrong, so the engine serves the block another way.
          stats->recon_fallbacks++;
          race->legs.fallback();
        });
    return true;
  }
  // Hedged read: a suspect member, or a gray-member probe raced at delay 0
  // so the reader never waits on the probe. The timer is a sim event, so
  // the race is deterministic per seed.
  stats->hedged_reads++;
  if (probe) {
    stats->probe_reads++;
  }
  race->legs.direct([race](const Status& status, uint64_t pattern) {
    if (race->done) {
      return;  // the reconstruct already delivered
    }
    race->done = true;
    if (status.code() == ErrorCode::kUnavailable) {
      race->legs.redrive();
      return;
    }
    race->legs.deliver(status, pattern);
  });
  const SimTime delay = probe ? 0 : health->HedgeDelayNs(device);
  sim->Schedule(delay, [race, stats] {
    // Revalidate before spending the reconstruct: the mapping or the
    // stripe may have changed while the timer was pending.
    if (race->done || !race->legs.can_reconstruct()) {
      return;  // the direct leg still owns delivery
    }
    race->legs.reconstruct(
        [race, stats](const Status& status, uint64_t pattern) {
          if (race->done || !status.ok()) {
            return;  // the direct leg owns delivery
          }
          race->done = true;
          stats->hedge_recon_wins++;
          race->legs.deliver(status, pattern);
        });
  });
  return true;
}

}  // namespace biza
