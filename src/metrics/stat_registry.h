// Registry of named counters, gauges, and latency histograms.
//
// The registry is pull-based: components register *probes* — callables that
// read their existing stats structs — so the hot path pays nothing for a
// counter being observable. Probes are evaluated only when somebody asks
// (the time-series sampler, `afa_bench --stats`, tests).
//
//   counter — monotonically non-decreasing (blocks written, GC runs). The
//             sampler emits per-interval deltas for counters.
//   gauge   — instantaneous level (open zones, queue depth, ZRWA occupancy).
//             The sampler emits the raw value.
//
// Histograms are push-based by necessity (a percentile cannot be derived
// from a probe) but stay cheap: a component asks for a histogram once at
// attach time, caches the pointer, and records behind a null check. When no
// observability is attached the pointer is null and the cost is one branch.
//
// One registry belongs to one experiment (one Simulator); there is no
// locking. Registration order is deterministic — it follows platform
// construction order — and defines the sampler's CSV column order.
#ifndef BIZA_SRC_METRICS_STAT_REGISTRY_H_
#define BIZA_SRC_METRICS_STAT_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/histogram.h"

namespace biza {

enum class StatKind : uint8_t { kCounter, kGauge };

class StatRegistry {
 public:
  using Probe = std::function<uint64_t()>;

  // `name` is dotted: "<component><id>.<stat>", e.g. "dev0.zns.zone_resets".
  // Names must be unique; re-registering a name replaces the probe (a
  // replaced probe supports hot-swapped devices after a rebuild).
  void RegisterCounter(std::string name, Probe probe) {
    Register(std::move(name), StatKind::kCounter, std::move(probe));
  }
  void RegisterGauge(std::string name, Probe probe) {
    Register(std::move(name), StatKind::kGauge, std::move(probe));
  }

  // Find-or-create. The pointer stays valid for the registry's lifetime
  // (node-based map), so callers cache it at attach time.
  LatencyHistogram* Histogram(const std::string& name) {
    return &histograms_[name];
  }

  struct Sample {
    const std::string* name;
    StatKind kind;
    uint64_t value;
  };
  // Evaluates every probe, in registration order.
  std::vector<Sample> Collect() const;

  size_t num_probes() const { return probes_.size(); }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }

  // One JSON object mapping histogram name to {count, p50_us, p99_us,
  // p999_us, max_us}; empty histograms are skipped. afa_bench --stats prints
  // it in a histograms bench record, which tools/run_benches.sh folds into
  // BENCH_sim.json.
  std::string HistogramSummaryJson() const;

 private:
  struct Entry {
    std::string name;
    StatKind kind;
    Probe probe;
  };

  void Register(std::string name, StatKind kind, Probe probe);

  std::vector<Entry> probes_;
  std::map<std::string, size_t> index_;  // name -> probes_ slot
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace biza

#endif  // BIZA_SRC_METRICS_STAT_REGISTRY_H_
