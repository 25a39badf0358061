// Open-loop arrival processes for the multi-tenant serving frontend.
//
// An ArrivalProcess emits request arrival timestamps for one tenant: a
// Poisson base rate modulated by deterministic burst episodes (an on/off
// duty cycle, e.g. a batch job waking every period) and a diurnal ramp (a
// sinusoid, the day/night swing compressed to simulation scale). The
// instantaneous rate λ(t) is a pure function of (spec, virtual time), and
// sampling uses Lewis–Shedler thinning against the peak rate, so the
// arrival sequence is a pure function of (spec, seed) — independent of
// platform, device frontend, or anything downstream. tests/serve_test.cc pins
// this determinism contract.
#ifndef BIZA_SRC_WORKLOAD_ARRIVAL_H_
#define BIZA_SRC_WORKLOAD_ARRIVAL_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace biza {

struct ArrivalSpec {
  double base_iops = 1000.0;  // long-run average arrival rate (requests/s)

  // Burst episodes: the rate is multiplied by `burst_mult` during the first
  // `burst_on_s` seconds of every `burst_period_s`-second period (shifted by
  // `burst_phase_s`). period <= 0 disables bursts.
  double burst_mult = 1.0;
  double burst_period_s = 0.0;
  double burst_on_s = 0.0;
  double burst_phase_s = 0.0;

  // Diurnal ramp: rate scaled by 1 + amplitude * sin(2π t / period).
  // amplitude must stay in [0, 1); period <= 0 disables the ramp.
  double ramp_amplitude = 0.0;
  double ramp_period_s = 0.0;

  uint64_t seed = 1;
};

class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalSpec& spec);

  // Instantaneous rate λ(t) in requests/s — pure in (spec, t).
  double RateAt(SimTime t) const;

  // Upper bound on λ(t) over all t (the thinning envelope).
  double PeakRate() const { return peak_iops_; }

  // The next arrival strictly after `t`. Mutates the internal RNG; calling
  // in monotonically non-decreasing order replays the same sequence for the
  // same (spec, seed).
  SimTime NextAfter(SimTime t);

  const ArrivalSpec& spec() const { return spec_; }

 private:
  ArrivalSpec spec_;
  double peak_iops_;
  Rng rng_;
};

}  // namespace biza

#endif  // BIZA_SRC_WORKLOAD_ARRIVAL_H_
