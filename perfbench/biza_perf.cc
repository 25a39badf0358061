// biza_perf: the repository benchmark. One process, one thread.
//
//   biza_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run builds a fresh platform through Platform::Create, prefills the
// workload's read footprint, warms up, and then measures a fixed amount of
// simulated work ("a round"). Rounds repeat with the same seed until
// --seconds of host time are used (at least two), so:
//   * host metrics (host_req_per_s, setup_s) are medians over rounds of
//     host times scaled to a reference host's speed by a probe kernel
//     timed next to them (see SpeedProbe);
//   * virtual metrics (MB/s, latency quantiles, WA) are a pure function of
//     the seed, and every round must reproduce them bit for bit.
//
// Every request is generated here and submitted through the public
// BlockTarget::SubmitWrite/SubmitRead at call sites this file owns. Each
// write carries a pattern that encodes (sequence number, block), so every
// read is verified against the last acknowledged write of each block; a
// write still in flight during the read may be returned instead.
//
// --trace 1 runs one untraced round and one traced round. The traced round
// attaches Observability (StatRegistry + Tracer armed over a steady-state
// window) and host-clock boundary timers around the engine calls and this
// file's own callbacks, and prints the per-layer metrics.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is non-zero when any correctness check fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rss.h"
#include "src/metrics/observability.h"
#include "src/serve/admission.h"
#include "src/serve/tenant.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/arrival.h"
#include "src/workload/workload.h"

using namespace biza;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact nearest-rank quantile of per-request latencies, in microseconds.
double QuantileUs(std::vector<SimTime>* samples, double q) {
  if (samples->empty()) {
    return 0.0;
  }
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(samples->begin(), samples->begin() + static_cast<long>(rank),
                   samples->end());
  return static_cast<double>((*samples)[rank]) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Host-speed probe: a fixed unit of work that uses no simulator code, run
// every kSliceRequests measured completions and every kSetupSegment of
// set-up. On a shared host the speed of a core changes for seconds to
// minutes at a time, and the simulator slows with it. Host times are scaled
// by kProbeRefSeconds / (the probe's time next to them), so they read as on
// a host where the probe takes kProbeRefSeconds. The work is what the event
// loop spends its time on: hash-table updates in a table that fits in L2,
// and small heap allocations. (A pointer chase over 16 MiB and a binary
// heap were tried too; their times followed the simulator's speed less
// closely.)
class SpeedProbe {
 public:
  // The probe's time on the reference host (4-core Xeon VM at 2.1 GHz,
  // quiet). Changing it rescales every host figure.
  static constexpr double kProbeRefSeconds = 0.6e-3;

  SpeedProbe() : blocks_(kBlocks) {
    map_.reserve(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      map_[k] = k;
    }
  }

  // Host seconds of one unit of work.
  double Run() {
    const Clock::time_point start = Clock::now();
    uint64_t h = sink_;
    for (uint32_t i = 0; i < kSteps; ++i) {
      h = h * 0x9E3779B97F4A7C15ULL + i;
      map_[(h >> 20) % kKeys] += h;
      if ((i & 1) == 0) {
        blocks_[(i >> 1) % kBlocks].reset(new char[32 + (h >> 57)]);
      }
    }
    sink_ = h;
    return SecondsBetween(start, Clock::now());
  }

 private:
  static constexpr uint32_t kSteps = 1 << 15;
  static constexpr uint64_t kKeys = 8192;
  static constexpr uint32_t kBlocks = 1024;
  std::unordered_map<uint64_t, uint64_t> map_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  uint64_t sink_ = 0;
};

// A host time scaled to the reference host's speed.
double Scaled(double seconds, double probe_s) {
  return seconds * Ratio(SpeedProbe::kProbeRefSeconds, probe_s);
}

// A written block's content: the write's sequence number and the block
// number, so a read can tell a stale, misdirected or never-written block.
uint64_t PatternOf(uint64_t lbn, uint32_t seq) {
  return (static_cast<uint64_t>(seq) << 32) | (lbn & 0xFFFFFFFFULL);
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  PlatformKind kind;
  uint32_t zones;
  uint64_t zone_blocks;
  bool nvme;       // NVMe SQ/CQ pairs instead of the legacy dispatch path
  bool open_loop;  // serving tenants through DRR admission
  int iodepth;     // closed loop: QD; open loop: admission window
  // Closed loop: a Table 6 profile, warm-up and measured request counts.
  TraceProfile profile;
  uint64_t warmup_requests = 0;
  uint64_t measured_requests = 0;
  // Open loop: prefilled span split between the tenants, and virtual
  // warm-up and measured durations.
  uint64_t serve_footprint_blocks = 0;
  SimTime warmup_ns = 0;
  SimTime measure_ns = 0;
};

constexpr uint64_t kScaledZoneBlocks = 8 * kMiB / kBlockSize;

// Host time is recorded, and the speed probe run, per slice of this many
// measured completions; in set-up, per segment of this much host time.
constexpr uint64_t kSliceRequests = 20000;
constexpr auto kSetupSegment = std::chrono::milliseconds(20);

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w{};
    w.name = "casa_fullgeo";
    w.kind = PlatformKind::kBiza;
    w.zones = ZnsConfig::kFullZn540Zones;
    w.zone_blocks = ZnsConfig::kFullZn540ZoneBlocks;
    w.iodepth = 32;
    w.profile = TraceProfile::Casa();
    w.warmup_requests = 50000;
    w.measured_requests = 800000;
    out.push_back(w);
  }
  {
    WorkloadSpec w{};
    w.name = "tencent_zapraid";
    w.kind = PlatformKind::kZapRaid;
    w.zones = 96;
    w.zone_blocks = kScaledZoneBlocks;
    w.iodepth = 32;
    w.profile = TraceProfile::Tencent();
    w.warmup_requests = 100000;
    w.measured_requests = 200000;
    out.push_back(w);
  }
  {
    // The repository's default scaled ZN540 (128 zones x 24 MiB per SSD),
    // so the tenants' writes never fill the array and GC never runs.
    WorkloadSpec w{};
    w.name = "serve_read";
    w.kind = PlatformKind::kBiza;
    w.zones = 128;
    w.zone_blocks = 24 * kMiB / kBlockSize;
    w.nvme = true;
    w.open_loop = true;
    w.iodepth = 256;
    w.serve_footprint_blocks = 4 * kGiB / kBlockSize;
    w.warmup_ns = 250 * kMillisecond;
    w.measure_ns = 8 * kSecond;
    out.push_back(w);
  }
  return out;
}

// A latency tenant (4 KiB, 90 % reads) and a throughput tenant (64 KiB,
// 50 % reads, diurnal ramp). The rates keep the NAND under 5 % busy but give
// enough interaction in the NVMe queues that latency is not one constant
// service time (see perfbench/README.md).
std::vector<TenantSpec> ServeTenants() {
  return {TenantSpec::ForClass(TenantClass::kLatency, "latency0", 80000.0),
          TenantSpec::ForClass(TenantClass::kThroughput, "throughput1", 6000.0)};
}

// ---------------------------------------------------------------------------
// Counter snapshots: measured-phase metrics are deltas between two of these.

struct Counters {
  uint64_t events = 0;
  uint64_t flash_by_tag[kNumWriteTags] = {};
  uint64_t host_written = 0;
  uint64_t zrwa_absorbed = 0;
  uint64_t zone_resets = 0;
  uint64_t write_failures = 0;
  uint64_t bus_busy_ns = 0;
  uint64_t channels = 0;
  NvmeQueueStats nvme;
  BizaStats biza;
  ZapRaidStats zapraid;
};

Counters Snapshot(const Simulator& sim, Platform& platform) {
  Counters c;
  c.events = sim.fired_events();
  for (ZnsDevice* dev : platform.zns_devices()) {
    const ZnsDeviceStats& s = dev->stats();
    for (int t = 0; t < kNumWriteTags; ++t) {
      c.flash_by_tag[t] += s.flash_by_tag[t];
    }
    c.host_written += s.host_written_blocks;
    c.zrwa_absorbed += s.zrwa_absorbed_blocks;
    c.zone_resets += s.zone_resets;
    c.write_failures += s.write_failures;
    for (int ch = 0; ch < dev->backend().num_channels(); ++ch) {
      c.bus_busy_ns += dev->backend().channel_stats(ch).bus_busy_ns;
      c.channels++;
    }
    const NvmeQueueStats& q = dev->nvme_queue().stats();
    c.nvme.commands += q.commands;
    c.nvme.doorbells += q.doorbells;
    c.nvme.interrupts += q.interrupts;
    c.nvme.qd_stalls += q.qd_stalls;
  }
  if (platform.biza() != nullptr) {
    c.biza = platform.biza()->stats();
  }
  if (platform.zapraid() != nullptr) {
    c.zapraid = platform.zapraid()->stats();
  }
  return c;
}

// ---------------------------------------------------------------------------
// Host-clock boundary timers (traced rounds only). A stack of modes: time
// between two transitions is charged to the mode on top. Whatever is not
// charged to the engine or to this file is simulator event time.

class BoundaryTimers {
 public:
  enum Mode { kSim = 0, kBench, kEngine, kProbe, kNumModes };

  // The stack is kept whether or not the timers run, so Start/Stop may be
  // called from inside a scope.
  void Start() {
    on_ = true;
    last_ = Clock::now();
  }
  void Stop() {
    if (on_) {
      Charge();
      on_ = false;
    }
  }
  void Push(Mode mode) {
    if (on_) {
      Charge();
    }
    stack_[++depth_] = mode;
  }
  void Pop() {
    if (on_) {
      Charge();
    }
    --depth_;
  }
  double ns(Mode mode) const { return ns_[mode]; }

 private:
  void Charge() {
    const Clock::time_point now = Clock::now();
    ns_[stack_[depth_]] +=
        std::chrono::duration<double, std::nano>(now - last_).count();
    last_ = now;
  }

  bool on_ = false;
  int depth_ = 0;
  Mode stack_[64] = {};
  double ns_[kNumModes] = {};
  Clock::time_point last_;
};

class Scoped {
 public:
  Scoped(BoundaryTimers* timers, BoundaryTimers::Mode mode) : timers_(timers) {
    timers_->Push(mode);
  }
  ~Scoped() { timers_->Pop(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  BoundaryTimers* timers_;
};

// ---------------------------------------------------------------------------
// Lane self time from the Tracer's Chrome-trace export: the virtual time a
// lane had a span open while no deeper lane did, per request in the window.

struct Interval {
  double start;
  double end;
};

std::vector<Interval> Union(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> out;
  for (const Interval& i : v) {
    if (!out.empty() && i.start <= out.back().end) {
      out.back().end = std::max(out.back().end, i.end);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

// Measure of `a` minus `b`; both are sorted disjoint unions.
double MeasureMinus(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  double total = 0.0;
  size_t j = 0;
  for (const Interval& i : a) {
    double covered = 0.0;
    while (j < b.size() && b[j].end <= i.start) {
      ++j;
    }
    for (size_t k = j; k < b.size() && b[k].start < i.end; ++k) {
      covered += std::min(i.end, b[k].end) - std::max(i.start, b[k].start);
    }
    total += (i.end - i.start) - covered;
  }
  return total;
}

double JsonNumber(const std::string& obj, const char* key) {
  const size_t at = obj.find(key);
  return at == std::string::npos ? -1.0 : std::atof(obj.c_str() + at + std::strlen(key));
}

std::map<std::string, double> LaneSelfTimes(const Tracer& tracer,
                                            size_t capacity_per_lane,
                                            double window_start_us,
                                            double window_end_us) {
  std::ostringstream out;
  tracer.ExportJson(out, 0, /*leading_comma=*/false);
  const std::string json = out.str();
  std::vector<Interval> spans[Tracer::kNumLanes];
  size_t pos = 0;
  while ((pos = json.find('{', pos)) != std::string::npos) {
    const size_t end = json.find('\n', pos);
    const std::string obj = json.substr(pos, end == std::string::npos ? end : end - pos);
    pos = end == std::string::npos ? json.size() : end;
    if (obj.find("\"ph\":\"X\"") == std::string::npos) {
      continue;
    }
    const int lane = static_cast<int>(JsonNumber(obj, "\"tid\":"));
    const double ts = JsonNumber(obj, "\"ts\":");
    const double dur = JsonNumber(obj, "\"dur\":");
    if (lane >= 0 && lane < Tracer::kNumLanes) {
      spans[lane].push_back({ts, ts + dur});
    }
  }
  // A lane whose ring wrapped lost its oldest spans: start the analysis
  // where every lane is complete.
  double lo = window_start_us;
  for (const auto& lane : spans) {
    if (lane.size() >= capacity_per_lane) {
      double earliest = lane.front().start;
      for (const Interval& i : lane) {
        earliest = std::min(earliest, i.start);
      }
      lo = std::max(lo, earliest);
    }
  }
  const double hi = window_end_us;
  uint64_t requests = 0;
  std::vector<Interval> clipped[Tracer::kNumLanes];
  for (int lane = 0; lane < Tracer::kNumLanes; ++lane) {
    for (const Interval& i : spans[lane]) {
      if (i.start < lo || i.start >= hi) {
        continue;
      }
      if (lane == Tracer::kLaneDriver) {
        requests++;
      }
      clipped[lane].push_back({i.start, std::min(i.end, hi)});
    }
  }
  std::map<std::string, double> result;
  for (int lane = 0; lane < Tracer::kNumLanes; ++lane) {
    std::vector<Interval> deeper;
    for (int d = lane + 1; d < Tracer::kNumLanes; ++d) {
      deeper.insert(deeper.end(), clipped[d].begin(), clipped[d].end());
    }
    const double self_us = MeasureMinus(Union(clipped[lane]), Union(deeper));
    result["lane." + std::string(Tracer::LaneName(static_cast<Tracer::Lane>(lane))) +
           ".self_us_per_req"] = Ratio(self_us, static_cast<double>(requests));
  }
  return result;
}

// ---------------------------------------------------------------------------
// One round: construct, prefill, warm up, measure.

struct RoundResult {
  // Pure functions of the seed: compared across rounds.
  std::map<std::string, double> virt;
  // Correctness.
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK statuses + failed verification
  uint64_t unwritten_reads = 0;
  uint64_t setup_errors = 0;
  // Host.
  double setup_s = 0.0;
  double measure_s = 0.0;
  // Host seconds of each consecutive slice of kSliceRequests measured
  // completions, and of set-up, scaled to the reference host (see
  // SpeedProbe); empty or 0 when the round runs no probes. No host time of
  // a round includes the probes' own time.
  std::vector<double> scaled_slice_s;
  double scaled_setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::map<std::string, double> host_layers;  // traced rounds only
  // Virtual window of the measured phase (for aiming the tracer).
  SimTime measure_begin_ns = 0;
  SimTime measure_end_ns = 0;
};

struct TraceWindow {
  SimTime start = 0;
  SimTime end = 0;
};

class Round {
 public:
  // `probe` may be null: the round then runs no speed probes.
  Round(const WorkloadSpec& spec, uint64_t seed, const TraceWindow* trace,
        SpeedProbe* probe)
      : spec_(spec), seed_(seed), trace_(trace), probe_(probe) {}

  RoundResult Run();

 private:
  struct Pending {
    uint64_t lbn = 0;
    uint32_t nblocks = 0;
    uint32_t seq = 0;  // writes
    SimTime intended = 0;
    int tenant = -1;
    bool measured = false;
    std::vector<uint32_t> floor;  // reads: acked seq per block at issue
  };

  void Build();
  // Closed loop: issues generator requests at spec_.iodepth until `total`
  // are done; requests from index `first_measured` on are measured.
  void RunClosed(WorkloadGenerator* gen, uint64_t total, uint64_t first_measured);
  void PumpClosed();
  void RunOpen();
  void OnArrival(size_t tenant);
  void PumpOpen();

  void Submit(const BlockRequest& req, SimTime intended, bool measured, int tenant);
  bool WriteInFlight(uint64_t lbn, uint64_t nblocks) const;
  void SubmitRead(uint32_t slot);
  void ReleaseWaitingReads();
  void OnWriteDone(uint32_t slot, const Status& status);
  template <typename Patterns>
  void OnReadDone(uint32_t slot, const Status& status, const Patterns& patterns);
  void Finish(uint32_t slot);
  // Driver-lane span from the request's intended start to now.
  void RecordSpan(uint16_t span, SimTime start) {
    if (obs_ != nullptr && obs_->tracer.Armed(start)) {
      obs_->tracer.Record(Tracer::kLaneDriver, span, start, sim_.Now());
    }
  }

  // Ends the current segment of host time at a speed probe. Returns the
  // segment's host seconds scaled by the mean of the probes at its ends.
  double EndSegment();
  void BeginMeasure();
  void EndMeasure();
  void MaybeSampleGauges();
  RoundResult Collect();

  const WorkloadSpec& spec_;
  uint64_t seed_;
  const TraceWindow* trace_;  // non-null: traced round
  SpeedProbe* probe_;

  Simulator sim_;
  std::unique_ptr<Observability> obs_;
  std::unique_ptr<Platform> platform_;
  BlockTarget* target_ = nullptr;
  uint64_t footprint_ = 0;
  BoundaryTimers timers_;
  uint16_t span_write_ = 0;
  uint16_t span_read_ = 0;
  static constexpr size_t kTraceCapacity = size_t{1} << 18;

  // Per-block verification state over [0, footprint_).
  std::vector<uint32_t> issued_seq_;
  std::vector<uint32_t> acked_seq_;
  uint32_t next_seq_ = 0;

  std::deque<Pending> pending_;  // stable references across growth
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> waiting_reads_;  // reads ordered after a write
  uint64_t read_waits_ = 0;

  // Closed-loop state.
  WorkloadGenerator* gen_ = nullptr;
  uint64_t total_ = 0;
  uint64_t first_measured_ = 0;
  uint64_t issued_ = 0;
  uint64_t inflight_ = 0;
  bool in_pump_ = false;

  // Open-loop state.
  std::unique_ptr<TenantSet> tenant_set_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::vector<std::unique_ptr<ArrivalProcess>> arrivals_;
  std::vector<Rng> tenant_rng_;
  std::vector<TenantSet::Region> regions_;
  SimTime measure_start_ns_ = 0;
  SimTime arrivals_end_ns_ = 0;
  size_t tenants_arriving_ = 0;
  uint64_t measured_arrivals_ = 0;
  uint64_t measured_deferred_ = 0;
  std::vector<SimTime> queue_wait_;

  // Measured phase.
  Clock::time_point round_start_;
  Clock::time_point measure_start_;
  Clock::time_point measure_end_;
  Clock::time_point segment_start_;  // of the current probe segment
  std::vector<double> scaled_slice_s_;
  double scaled_setup_s_ = 0.0;
  double last_probe_s_ = 0.0;
  double probe_wall_s_ = 0.0;        // host time in probes so far
  double setup_probe_wall_s_ = 0.0;  // host time in probes during set-up
  uint64_t setup_completed_ = 0;
  bool measuring_ = false;
  bool measured_done_ = false;
  uint64_t measured_outstanding_ = 0;
  uint64_t measured_completed_ = 0;
  Counters begin_;
  Counters end_;
  SimTime begin_ns_ = 0;
  SimTime end_ns_ = 0;
  std::vector<SimTime> write_lat_;
  std::vector<SimTime> read_lat_;
  uint64_t write_blocks_ = 0;
  uint64_t read_blocks_ = 0;
  uint64_t status_failures_ = 0;
  uint64_t verify_failures_ = 0;
  uint64_t unwritten_reads_ = 0;
  uint64_t setup_errors_ = 0;
  uint64_t reported_ = 0;  // failures printed to stderr
  double resident_biza_mb_ = 0.0;
  double resident_zns_mb_ = 0.0;
  double resident_zapraid_mb_ = 0.0;
  std::vector<double> sched_delay_samples_;
};

void Round::Build() {
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(spec_.zones, spec_.zone_blocks);
  config.seed = seed_;
  config.zns.seed = seed_;
  if (spec_.nvme) {
    config.zns.nvme.enabled = true;
    config.zns.nvme.num_queues = 4;
    config.zns.nvme.queue_depth = 64;
    config.zns.nvme.irq_threshold = 8;
    // NVMe's interrupt aggregation time is set in 100 us units.
    config.zns.nvme.irq_timer_ns = 100 * kMicrosecond;
  }
  config.MatchConvCapacity();
  if (trace_ != nullptr) {
    obs_ = std::make_unique<Observability>();
    obs_->tracer.Enable(kTraceCapacity);
    obs_->tracer.SetWindow(trace_->start, trace_->end);
    span_write_ = obs_->tracer.Intern("bench.write");
    span_read_ = obs_->tracer.Intern("bench.read");
    config.obs = obs_.get();
  }
  platform_ = Platform::Create(&sim_, spec_.kind, config);
  target_ = platform_->block();
  // The read footprint, clipped to half the array.
  const uint64_t footprint =
      std::min(target_->capacity_blocks() / 2,
               spec_.open_loop ? spec_.serve_footprint_blocks
                               : spec_.profile.footprint_blocks);
  footprint_ = footprint / 64 * 64;
  issued_seq_.assign(footprint_, 0);
  acked_seq_.assign(footprint_, 0);
}

RoundResult Round::Run() {
  if (probe_ != nullptr) {
    last_probe_s_ = probe_->Run();
  }
  round_start_ = Clock::now();
  segment_start_ = round_start_;
  Build();
  // Prefill: every block of the footprint is written once, sequentially.
  MicroWorkload fill(/*sequential=*/true, /*write=*/true, 64, footprint_, seed_);
  RunClosed(&fill, footprint_ / 64, ~uint64_t{0});
  if (spec_.open_loop) {
    RunOpen();
  } else {
    TraceProfile profile = spec_.profile;
    profile.footprint_blocks = footprint_;
    profile.seed = seed_;
    SyntheticTrace gen(profile);
    RunClosed(&gen, spec_.warmup_requests + spec_.measured_requests,
              spec_.warmup_requests);
  }
  return Collect();
}

void Round::RunClosed(WorkloadGenerator* gen, uint64_t total, uint64_t first_measured) {
  gen_ = gen;
  total_ = total;
  first_measured_ = first_measured;
  issued_ = 0;
  PumpClosed();
  sim_.RunUntilIdle();
  gen_ = nullptr;
}

void Round::PumpClosed() {
  // Guards against recursion when a target completes synchronously.
  if (in_pump_) {
    return;
  }
  in_pump_ = true;
  while (inflight_ < static_cast<uint64_t>(spec_.iodepth) && issued_ < total_) {
    if (issued_ == first_measured_) {
      BeginMeasure();
    }
    const bool measured = issued_ >= first_measured_;
    const BlockRequest req = gen_->Next();
    issued_++;
    inflight_++;
    Submit(req, sim_.Now(), measured, -1);
  }
  in_pump_ = false;
}

void Round::RunOpen() {
  tenant_set_ = std::make_unique<TenantSet>(ServeTenants(), seed_);
  std::vector<AdmissionQueue::TenantLimits> limits(tenant_set_->size());
  for (size_t i = 0; i < tenant_set_->size(); ++i) {
    const SloSpec& slo = tenant_set_->spec(i).slo;
    limits[i].weight = slo.weight;
    limits[i].inflight_cap = slo.inflight_cap;
    limits[i].gray_shed_factor = slo.gray_shed_factor;
    arrivals_.push_back(std::make_unique<ArrivalProcess>(tenant_set_->spec(i).arrival));
    tenant_rng_.emplace_back(tenant_set_->WorkloadSeed(i));
  }
  queue_ = std::make_unique<AdmissionQueue>(AdmissionPolicy::kDrr, limits,
                                            static_cast<uint64_t>(spec_.iodepth));
  regions_ = tenant_set_->AssignRegions(footprint_);
  const SimTime start = sim_.Now();
  measure_start_ns_ = start + spec_.warmup_ns;
  arrivals_end_ns_ = measure_start_ns_ + spec_.measure_ns;
  sim_.ScheduleAt(measure_start_ns_, [this] { BeginMeasure(); });
  tenants_arriving_ = tenant_set_->size();
  for (size_t i = 0; i < tenant_set_->size(); ++i) {
    const SimTime first = arrivals_[i]->NextAfter(start);
    sim_.ScheduleAt(first, [this, i] { OnArrival(i); });
  }
  sim_.RunUntilIdle();
}

void Round::OnArrival(size_t tenant) {
  Scoped scope(&timers_, BoundaryTimers::kBench);
  const SimTime now = sim_.Now();
  if (now >= arrivals_end_ns_) {
    tenants_arriving_--;
    if (tenants_arriving_ == 0 && measured_outstanding_ == 0) {
      EndMeasure();
    }
    return;
  }
  const TenantSpec& spec = tenant_set_->spec(tenant);
  ServeRequest request;
  request.tenant = static_cast<int>(tenant);
  request.arrival = now;
  request.req.is_write = !tenant_rng_[tenant].Chance(spec.read_fraction);
  request.req.nblocks = spec.request_blocks;
  const TenantSet::Region& region = regions_[tenant];
  const uint64_t slots = std::max<uint64_t>(region.blocks / spec.request_blocks, 1);
  request.req.offset_blocks =
      region.start + tenant_rng_[tenant].Uniform(slots) * spec.request_blocks;
  if (now >= measure_start_ns_) {
    measured_arrivals_++;
    measured_outstanding_++;
    if (queue_->total_inflight() >= static_cast<uint64_t>(spec_.iodepth)) {
      measured_deferred_++;
    }
  }
  queue_->Push(request);
  PumpOpen();
  const SimTime next = arrivals_[tenant]->NextAfter(now);
  sim_.ScheduleAt(std::min(next, arrivals_end_ns_), [this, tenant] { OnArrival(tenant); });
}

void Round::PumpOpen() {
  if (in_pump_) {
    return;
  }
  in_pump_ = true;
  ServeRequest request;
  while (queue_->PopNext(&request)) {
    const bool measured = request.arrival >= measure_start_ns_;
    if (measured) {
      queue_wait_.push_back(sim_.Now() - request.arrival);
    }
    Submit(request.req, request.arrival, measured, request.tenant);
  }
  in_pump_ = false;
}

void Round::Submit(const BlockRequest& req, SimTime intended, bool measured,
                   int tenant) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(pending_.size());
    pending_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Pending& p = pending_[slot];
  p.lbn = req.offset_blocks;
  p.nblocks = static_cast<uint32_t>(req.nblocks);
  p.intended = intended;
  p.tenant = tenant;
  p.measured = measured;
  if (req.is_write) {
    p.seq = ++next_seq_;
    std::vector<uint64_t> patterns(req.nblocks);
    for (uint64_t i = 0; i < req.nblocks; ++i) {
      patterns[i] = PatternOf(req.offset_blocks + i, p.seq);
      issued_seq_[req.offset_blocks + i] = p.seq;
    }
    Scoped engine(&timers_, BoundaryTimers::kEngine);
    target_->SubmitWrite(
        req.offset_blocks, std::move(patterns),
        [this, slot](const Status& status) { OnWriteDone(slot, status); },
        WriteTag::kData);
  } else if (WriteInFlight(p.lbn, p.nblocks)) {
    // The client orders a read after its own in-flight writes to the same
    // blocks; it is submitted when they are acknowledged.
    waiting_reads_.push_back(slot);
    read_waits_ += measured ? 1 : 0;
  } else {
    SubmitRead(slot);
  }
}

bool Round::WriteInFlight(uint64_t lbn, uint64_t nblocks) const {
  for (uint64_t i = 0; i < nblocks; ++i) {
    if (issued_seq_[lbn + i] != acked_seq_[lbn + i]) {
      return true;
    }
  }
  return false;
}

void Round::SubmitRead(uint32_t slot) {
  Pending& p = pending_[slot];
  p.floor.resize(p.nblocks);
  for (uint64_t i = 0; i < p.nblocks; ++i) {
    p.floor[i] = acked_seq_[p.lbn + i];
  }
  Scoped engine(&timers_, BoundaryTimers::kEngine);
  target_->SubmitRead(p.lbn, p.nblocks,
                      [this, slot](const Status& status, auto&& patterns) {
                        OnReadDone(slot, status, patterns);
                      });
}

void Round::ReleaseWaitingReads() {
  std::vector<uint32_t> waiting;
  waiting.swap(waiting_reads_);
  for (uint32_t slot : waiting) {
    if (WriteInFlight(pending_[slot].lbn, pending_[slot].nblocks)) {
      waiting_reads_.push_back(slot);
    } else {
      SubmitRead(slot);
    }
  }
}

void Round::OnWriteDone(uint32_t slot, const Status& status) {
  Scoped scope(&timers_, BoundaryTimers::kBench);
  Pending& p = pending_[slot];
  if (status.ok()) {
    for (uint64_t i = 0; i < p.nblocks; ++i) {
      uint32_t& acked = acked_seq_[p.lbn + i];
      acked = std::max(acked, p.seq);
    }
  } else {
    // A failed write leaves the block's content undefined for the check.
    for (uint64_t i = 0; i < p.nblocks; ++i) {
      acked_seq_[p.lbn + i] = issued_seq_[p.lbn + i];
    }
  }
  RecordSpan(span_write_, p.intended);
  if (!status.ok() && reported_++ < 5) {
    std::fprintf(stderr, "write [%llu, +%u): %s\n",
                 static_cast<unsigned long long>(p.lbn), p.nblocks,
                 status.ToString().c_str());
  }
  if (p.measured) {
    write_lat_.push_back(sim_.Now() - p.intended);
    if (status.ok()) {
      write_blocks_ += p.nblocks;
    } else {
      status_failures_++;
    }
  } else if (!status.ok()) {
    setup_errors_++;
  }
  Finish(slot);
  if (!waiting_reads_.empty()) {
    ReleaseWaitingReads();
  }
}

template <typename Patterns>
void Round::OnReadDone(uint32_t slot, const Status& status, const Patterns& patterns) {
  Scoped scope(&timers_, BoundaryTimers::kBench);
  Pending& p = pending_[slot];
  bool bad = !status.ok();
  if (status.ok()) {
    bad = patterns.size() != p.nblocks;
    for (uint64_t i = 0; !bad && i < p.nblocks; ++i) {
      const uint64_t lbn = p.lbn + i;
      const uint64_t pattern = patterns[i];
      const uint32_t seq = static_cast<uint32_t>(pattern >> 32);
      if (issued_seq_[lbn] == 0) {
        unwritten_reads_ += p.measured ? 1 : 0;
        continue;
      }
      // Valid: the block's own content, at least as new as the last write
      // acknowledged when the read was issued, and no newer than the last
      // write issued so far (a write in flight may be seen either way).
      bad = (pattern & 0xFFFFFFFFULL) != (lbn & 0xFFFFFFFFULL) || seq == 0 ||
            seq < p.floor[i] || seq > issued_seq_[lbn];
      if (bad && reported_++ < 5) {
        std::fprintf(stderr,
                     "verify: block %llu of read [%llu, +%u) returned %#llx; "
                     "acked seq at issue %u, last issued seq %u, now acked %u\n",
                     static_cast<unsigned long long>(lbn),
                     static_cast<unsigned long long>(p.lbn), p.nblocks,
                     static_cast<unsigned long long>(pattern), p.floor[i],
                     issued_seq_[lbn], acked_seq_[lbn]);
      }
    }
  } else if (reported_++ < 5) {
    std::fprintf(stderr, "read [%llu, +%u): %s\n",
                 static_cast<unsigned long long>(p.lbn), p.nblocks,
                 status.ToString().c_str());
  }
  RecordSpan(span_read_, p.intended);
  if (p.measured) {
    read_lat_.push_back(sim_.Now() - p.intended);
    if (status.ok()) {
      read_blocks_ += p.nblocks;
    }
    if (!status.ok()) {
      status_failures_++;
    } else if (bad) {
      verify_failures_++;
    }
  } else if (bad) {
    setup_errors_++;
  }
  Finish(slot);
}

void Round::Finish(uint32_t slot) {
  Pending& p = pending_[slot];
  const bool measured = p.measured;
  const int tenant = p.tenant;
  free_slots_.push_back(slot);
  inflight_--;
  // Set-up completions vary from a 256 KiB prefill write to a 4 KiB
  // update, so set-up is probed by host time.
  if (!measuring_ && probe_ != nullptr && ++setup_completed_ % 16 == 0 &&
      Clock::now() - segment_start_ >= kSetupSegment) {
    scaled_setup_s_ += EndSegment();
  }
  if (measured) {
    measured_completed_++;
    if (probe_ != nullptr && measured_completed_ % kSliceRequests == 0) {
      scaled_slice_s_.push_back(EndSegment());
    }
    if (measured_completed_ % 4096 == 0) {
      MaybeSampleGauges();
    }
  }
  if (spec_.open_loop && tenant >= 0) {
    if (measured) {
      measured_outstanding_--;
    }
    queue_->OnComplete(tenant);
    if (tenants_arriving_ == 0 && measured_outstanding_ == 0) {
      EndMeasure();
    }
    PumpOpen();
    return;
  }
  if (measured && measured_completed_ == total_ - first_measured_) {
    EndMeasure();
  }
  if (gen_ != nullptr) {
    PumpClosed();
  }
}

double Round::EndSegment() {
  const Clock::time_point end = Clock::now();
  const double probe_s = probe_->Run();
  const Clock::time_point after = Clock::now();
  probe_wall_s_ += SecondsBetween(end, after);
  const double scaled =
      Scaled(SecondsBetween(segment_start_, end), 0.5 * (last_probe_s_ + probe_s));
  last_probe_s_ = probe_s;
  segment_start_ = after;
  return scaled;
}

void Round::BeginMeasure() {
  begin_ = Snapshot(sim_, *platform_);
  begin_ns_ = sim_.Now();
  if (probe_ != nullptr) {
    scaled_setup_s_ += EndSegment();
    setup_probe_wall_s_ = probe_wall_s_;
  }
  measuring_ = true;
  measure_start_ = Clock::now();
  segment_start_ = measure_start_;
  if (trace_ != nullptr) {
    timers_.Start();
  }
}

void Round::EndMeasure() {
  if (measured_done_) {
    return;
  }
  measure_end_ = Clock::now();
  timers_.Stop();
  measured_done_ = true;
  end_ = Snapshot(sim_, *platform_);
  end_ns_ = sim_.Now();
  if (BizaArray* biza = platform_->biza()) {
    resident_biza_mb_ = static_cast<double>(biza->ResidentStateBytes()) / kMiB;
  }
  if (ZapRaid* zap = platform_->zapraid()) {
    resident_zapraid_mb_ = static_cast<double>(zap->ResidentStateBytes()) / kMiB;
  }
  for (ZnsDevice* dev : platform_->zns_devices()) {
    resident_zns_mb_ += static_cast<double>(dev->ResidentStateBytes()) / kMiB;
  }
}

// Traced rounds sample the BIZA scheduler's enqueue->dispatch delay gauge
// (worst zone, EWMA) every 4096 measured completions.
void Round::MaybeSampleGauges() {
  if (obs_ == nullptr || platform_->biza() == nullptr) {
    return;
  }
  Scoped scope(&timers_, BoundaryTimers::kProbe);
  for (const StatRegistry::Sample& s : obs_->registry.Collect()) {
    if (*s.name == "biza.sched_queue_delay_ns") {
      sched_delay_samples_.push_back(static_cast<double>(s.value));
    }
  }
}

RoundResult Round::Collect() {
  RoundResult r;
  r.setup_errors = setup_errors_ + (measured_done_ ? 0 : 1);
  r.setup_s = SecondsBetween(round_start_, measure_start_) - setup_probe_wall_s_;
  r.measure_s = SecondsBetween(measure_start_, measure_end_) -
                (probe_wall_s_ - setup_probe_wall_s_);
  r.scaled_slice_s = scaled_slice_s_;
  r.scaled_setup_s = scaled_setup_s_;
  r.measure_begin_ns = begin_ns_;
  r.measure_end_ns = end_ns_;
  const Counters& a = begin_;
  const Counters& b = end_;
  const uint64_t requests = write_lat_.size() + read_lat_.size();
  r.attempted = requests;
  r.failed = status_failures_ + verify_failures_;
  r.unwritten_reads = unwritten_reads_;
  const SimTime elapsed = end_ns_ > begin_ns_ ? end_ns_ - begin_ns_ : 1;
  const double user = static_cast<double>(write_blocks_);
  uint64_t flash = 0;
  for (int t = 0; t < kNumWriteTags; ++t) {
    flash += b.flash_by_tag[t] - a.flash_by_tag[t];
  }
  auto tag = [&](WriteTag t) {
    const int i = static_cast<int>(t);
    return static_cast<double>(b.flash_by_tag[i] - a.flash_by_tag[i]);
  };

  std::map<std::string, double>& v = r.virt;
  v["write_samples"] = static_cast<double>(write_lat_.size());
  v["read_samples"] = static_cast<double>(read_lat_.size());
  v["write_mbps"] = ThroughputMBps(write_blocks_ * kBlockSize, elapsed);
  v["read_mbps"] = ThroughputMBps(read_blocks_ * kBlockSize, elapsed);
  v["write_p50_us"] = QuantileUs(&write_lat_, 0.5);
  v["write_p999_us"] = QuantileUs(&write_lat_, 0.999);
  v["read_p50_us"] = QuantileUs(&read_lat_, 0.5);
  v["read_p999_us"] = QuantileUs(&read_lat_, 0.999);
  v["wa"] = Ratio(static_cast<double>(flash), user);
  v["op_fail_frac"] = Ratio(static_cast<double>(r.failed), static_cast<double>(requests));

  // Per-layer counters: virtual, so they repeat per seed too.
  const double events = static_cast<double>(b.events - a.events);
  v["sim.events_per_req"] = Ratio(events, static_cast<double>(requests));
  v["serve.queue_p999_us"] = QuantileUs(&queue_wait_, 0.999);
  v["serve.deferred_frac"] = Ratio(static_cast<double>(measured_deferred_),
                                   static_cast<double>(measured_arrivals_));
  const double cmds = static_cast<double>(b.nvme.commands - a.nvme.commands);
  v["nvme.doorbells_per_cmd"] =
      Ratio(static_cast<double>(b.nvme.doorbells - a.nvme.doorbells), cmds);
  v["nvme.irqs_per_cmd"] =
      Ratio(static_cast<double>(b.nvme.interrupts - a.nvme.interrupts), cmds);
  v["nvme.qd_stalls"] = static_cast<double>(b.nvme.qd_stalls - a.nvme.qd_stalls);
  const BizaStats& ba = a.biza;
  const BizaStats& bb = b.biza;
  const double inplace = static_cast<double>(bb.inplace_updates - ba.inplace_updates);
  const double appended = static_cast<double>(bb.appended_chunks - ba.appended_chunks);
  v["biza.inplace_frac"] = Ratio(inplace, inplace + appended);
  v["biza.parity_inplace_frac"] =
      Ratio(static_cast<double>(bb.parity_inplace_updates - ba.parity_inplace_updates),
            static_cast<double>(bb.parity_writes - ba.parity_writes));
  v["biza.gc_migrated_per_user_block"] =
      Ratio(static_cast<double>(bb.gc_migrated_data - ba.gc_migrated_data +
                                bb.gc_migrated_parity - ba.gc_migrated_parity),
            user);
  v["biza.write_stalls"] = static_cast<double>(bb.write_stalls - ba.write_stalls);
  v["biza.busy_skips"] = static_cast<double>(bb.busy_skips - ba.busy_skips);
  v["biza.resident_mb"] = resident_biza_mb_;
  v["zns.resident_mb"] = resident_zns_mb_;
  v["zapraid.resident_mb"] = resident_zapraid_mb_;
  const ZapRaidStats& za = a.zapraid;
  const ZapRaidStats& zb = b.zapraid;
  v["zapraid.gc_migrated_per_user_block"] =
      Ratio(static_cast<double>(zb.gc_migrated_data - za.gc_migrated_data), user);
  v["zapraid.pad_per_user_block"] =
      Ratio(static_cast<double>(zb.pad_writes - za.pad_writes), user);
  v["zapraid.write_stalls"] = static_cast<double>(zb.write_stalls - za.write_stalls);
  v["zns.flash_data_per_user_block"] = Ratio(tag(WriteTag::kData), user);
  v["zns.flash_parity_per_user_block"] = Ratio(tag(WriteTag::kParity), user);
  v["zns.flash_gc_per_user_block"] =
      Ratio(tag(WriteTag::kGcData) + tag(WriteTag::kGcParity), user);
  v["zns.zrwa_absorbed_frac"] =
      Ratio(static_cast<double>(b.zrwa_absorbed - a.zrwa_absorbed),
            static_cast<double>(b.host_written - a.host_written));
  v["zns.zone_resets"] = static_cast<double>(b.zone_resets - a.zone_resets);
  v["zns.write_failures"] = static_cast<double>(b.write_failures - a.write_failures);
  v["nand.chan_busy_frac"] =
      Ratio(static_cast<double>(b.bus_busy_ns - a.bus_busy_ns),
            static_cast<double>(b.channels) * static_cast<double>(elapsed));
  v["bench.unwritten_reads"] = static_cast<double>(unwritten_reads_);
  v["bench.read_after_write_waits"] = static_cast<double>(read_waits_);

  if (trace_ != nullptr) {
    const double wall_ns = r.measure_s * 1e9 - timers_.ns(BoundaryTimers::kProbe);
    const double reqs = static_cast<double>(requests);
    const double engine_ns = timers_.ns(BoundaryTimers::kEngine);
    const double bench_ns = timers_.ns(BoundaryTimers::kBench);
    r.host_layers["engine.submit_host_ns_per_req"] = Ratio(engine_ns, reqs);
    r.host_layers["workload.host_ns_per_req"] = Ratio(bench_ns, reqs);
    r.host_layers["sim.event_host_ns_per_req"] =
        Ratio(wall_ns - engine_ns - bench_ns, reqs);
    r.host_layers["biza.sched_queue_delay_us"] =
        sched_delay_samples_.empty()
            ? 0.0
            : std::accumulate(sched_delay_samples_.begin(),
                              sched_delay_samples_.end(), 0.0) /
                  static_cast<double>(sched_delay_samples_.size()) / 1e3;
    for (const auto& [name, value] :
         LaneSelfTimes(obs_->tracer, kTraceCapacity,
                       static_cast<double>(trace_->start) / 1e3,
                       static_cast<double>(trace_->end) / 1e3)) {
      r.host_layers[name] = value;
    }
  }
  r.peak_rss_mb = static_cast<double>(PeakRssBytes()) / kMiB;
  return r;
}

}  // namespace

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics of untraced runs, in print order.
constexpr MetricDef kEndToEnd[] = {
    {"host_req_per_s", "req/s"}, {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"write_mbps", "MB/s"},      {"read_mbps", "MB/s"},     {"write_p50_us", "us"},
    {"write_p999_us", "us"},     {"read_p50_us", "us"},     {"read_p999_us", "us"},
    {"wa", "ratio"},             {"op_fail_frac", "ratio"},
};

// Per-layer metrics of traced runs. A layer the workload does not run
// reports 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_req", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.event_host_ns_per_req", "ns"},
    {"workload.host_ns_per_req", "ns"},
    {"engine.submit_host_ns_per_req", "ns"},
    {"serve.queue_p999_us", "us"},
    {"serve.deferred_frac", "ratio"},
    {"nvme.doorbells_per_cmd", "ratio"},
    {"nvme.irqs_per_cmd", "ratio"},
    {"nvme.qd_stalls", "count"},
    {"biza.inplace_frac", "ratio"},
    {"biza.parity_inplace_frac", "ratio"},
    {"biza.gc_migrated_per_user_block", "ratio"},
    {"biza.write_stalls", "count"},
    {"biza.busy_skips", "count"},
    {"biza.sched_queue_delay_us", "us"},
    {"biza.resident_mb", "MiB"},
    {"zns.resident_mb", "MiB"},
    {"zapraid.resident_mb", "MiB"},
    {"zapraid.gc_migrated_per_user_block", "ratio"},
    {"zapraid.pad_per_user_block", "ratio"},
    {"zapraid.write_stalls", "count"},
    {"zns.flash_data_per_user_block", "ratio"},
    {"zns.flash_parity_per_user_block", "ratio"},
    {"zns.flash_gc_per_user_block", "ratio"},
    {"zns.zrwa_absorbed_frac", "ratio"},
    {"zns.zone_resets", "count"},
    {"zns.write_failures", "count"},
    {"nand.chan_busy_frac", "ratio"},
    {"lane.driver.self_us_per_req", "us"},
    {"lane.engine.self_us_per_req", "us"},
    {"lane.scheduler.self_us_per_req", "us"},
    {"lane.device.self_us_per_req", "us"},
    {"lane.nand.self_us_per_req", "us"},
    {"bench.unwritten_reads", "count"},
    {"bench.read_after_write_waits", "count"},
    {"bench.op_fail_frac", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.virtual_match", "bool"},
};

double HostReqPerS(const RoundResult& r) {
  return Ratio(static_cast<double>(r.attempted), r.measure_s);
}

// The round's request rate over its whole slices, on the reference host.
double ScaledRate(const RoundResult& r) {
  const double total_s =
      std::accumulate(r.scaled_slice_s.begin(), r.scaled_slice_s.end(), 0.0);
  return Ratio(static_cast<double>(r.scaled_slice_s.size() * kSliceRequests), total_s);
}

bool RoundCorrect(const RoundResult& r) {
  return r.failed == 0 && r.unwritten_reads == 0 && r.setup_errors == 0;
}

void PrintRound(size_t index, const char* kind, const RoundResult& r) {
  std::printf("round %zu (%s): setup %.3f s, measured %llu requests in %.3f s "
              "(%.0f req/s), %.3f s virtual, failed %llu, unwritten reads %llu\n",
              index, kind, r.setup_s, static_cast<unsigned long long>(r.attempted),
              r.measure_s, HostReqPerS(r),
              static_cast<double>(r.measure_end_ns - r.measure_begin_ns) / 1e9,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.unwritten_reads));
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].first->name, metrics[i].second, metrics[i].first->unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: biza_perf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const WorkloadSpec& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      traced = std::atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) {
    return Usage();
  }
  const std::vector<WorkloadSpec> all = AllWorkloads();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : all) {
    if (workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    return Usage();
  }
  std::printf("workload %s, seed %llu, %s\n", spec->name,
              static_cast<unsigned long long>(seed), traced ? "traced" : "untraced");
  std::printf("note: the array model is calibrated to the ZN540 datasheet but not "
              "validated against hardware; virtual figures carry no error bar.\n");

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<const MetricDef*, double>> out;
  auto account = [&](const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed + r.unwritten_reads;
    correct = correct && RoundCorrect(r);
  };

  if (!traced) {
    SpeedProbe probe;
    std::vector<RoundResult> rounds;
    const Clock::time_point start = Clock::now();
    // At least two rounds (the second must reproduce the first), then as
    // many as fit in the time budget.
    while (rounds.size() < 2 ||
           SecondsBetween(start, Clock::now()) *
                   (1.0 + 1.0 / static_cast<double>(rounds.size())) <=
               seconds) {
      rounds.push_back(Round(*spec, seed, nullptr, &probe).Run());
      const RoundResult& r = rounds.back();
      PrintRound(rounds.size() - 1, "untraced", r);
      std::printf("  on the reference host: setup %.3f s, %.0f req/s; slices:",
                  r.scaled_setup_s, ScaledRate(r));
      for (double t : r.scaled_slice_s) {
        std::printf(" %.0f", kSliceRequests / t / 1e3);
      }
      std::printf(" (k req/s)\n");
      account(rounds.back());
      if (rounds.back().virt != rounds.front().virt) {
        std::printf("ERROR: round %zu did not reproduce round 0's virtual metrics\n",
                    rounds.size() - 1);
        correct = false;
      }
      if (rounds.size() >= 64) {
        break;
      }
    }
    std::vector<double> setup;
    std::vector<double> rate;
    for (const RoundResult& r : rounds) {
      setup.push_back(r.scaled_setup_s);
      rate.push_back(ScaledRate(r));
    }
    std::map<std::string, double> values = rounds.front().virt;
    values["host_req_per_s"] = Median(rate);
    values["setup_s"] = Median(setup);
    // The first round's peak: later rounds would add whatever an engine
    // leaks, in proportion to how many rounds fit in --seconds.
    values["peak_rss_mb"] = rounds.front().peak_rss_mb;
    std::printf("\n%-16s %14s %-6s %s\n", "metric", "value", "unit", "samples");
    for (const MetricDef& m : kEndToEnd) {
      std::string samples;
      if (std::strncmp(m.name, "write_p", 7) == 0) {
        samples = std::to_string(static_cast<uint64_t>(values["write_samples"]));
      } else if (std::strncmp(m.name, "read_p", 6) == 0) {
        samples = std::to_string(static_cast<uint64_t>(values["read_samples"]));
      } else if (std::strcmp(m.name, "host_req_per_s") == 0 ||
                 std::strcmp(m.name, "setup_s") == 0) {
        samples = std::to_string(rounds.size()) + " rounds";
      }
      std::printf("%-16s %14.4f %-6s %s\n", m.name, values[m.name], m.unit,
                  samples.c_str());
      // op_fail_frac is a correctness gate (0 by construction), not a
      // benchmark metric; the JSON carries it as "failed".
      if (std::strcmp(m.name, "op_fail_frac") != 0) {
        out.emplace_back(&m, values[m.name]);
      }
    }
  } else {
    const RoundResult base = Round(*spec, seed, nullptr, nullptr).Run();
    PrintRound(0, "untraced", base);
    account(base);
    // Trace a steady-state slice: 5 % of the measured phase, 40 % in.
    const SimTime len = base.measure_end_ns - base.measure_begin_ns;
    TraceWindow window;
    window.start = base.measure_begin_ns + len / 5 * 2;
    window.end = window.start + std::max<SimTime>(len / 20, kMillisecond);
    const RoundResult traced_round = Round(*spec, seed, &window, nullptr).Run();
    PrintRound(1, "traced", traced_round);
    account(traced_round);
    std::map<std::string, double> values = traced_round.virt;
    for (const auto& [name, value] : traced_round.host_layers) {
      values[name] = value;
    }
    const double base_events = base.virt.at("sim.events_per_req") *
                               static_cast<double>(base.attempted);
    values["sim.host_ns_per_event"] = Ratio(base.measure_s * 1e9, base_events);
    values["bench.op_fail_frac"] = traced_round.virt.at("op_fail_frac");
    values["bench.trace_overhead"] = Ratio(HostReqPerS(traced_round), HostReqPerS(base));
    const bool match = traced_round.virt == base.virt;
    values["bench.virtual_match"] = match ? 1.0 : 0.0;
    if (!match) {
      std::printf("ERROR: the traced round changed virtual metrics:\n");
      for (const auto& [name, value] : base.virt) {
        if (traced_round.virt.at(name) != value) {
          std::printf("  %s: untraced %.17g traced %.17g\n", name.c_str(), value,
                      traced_round.virt.at(name));
        }
      }
      correct = false;
    }
    std::printf("\n%-36s %14s %s\n", "per-layer metric", "value", "unit");
    for (const MetricDef& m : kPerLayer) {
      std::printf("%-36s %14.4f %s\n", m.name, values[m.name], m.unit);
      out.emplace_back(&m, values[m.name]);
    }
  }
  PrintJson(correct, attempted, failed, out);
  return correct ? 0 : 1;
}
