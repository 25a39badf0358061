#include "src/serve/serve_frontend.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace biza {

namespace {

// Refresh the self-seeded hedge base every this many read completions; the
// quantile walk over the histogram is not free and the estimate moves
// slowly.
constexpr uint64_t kHedgeRefreshReads = 64;
// Minimum service-read samples before self-seeded hedging arms: hedging off
// a handful of samples fires spurious duplicates.
constexpr uint64_t kHedgeMinSamples = 64;

std::vector<AdmissionQueue::TenantLimits> LimitsOf(
    const std::vector<TenantSpec>& specs) {
  std::vector<AdmissionQueue::TenantLimits> limits(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    limits[i].weight = specs[i].slo.weight;
    limits[i].inflight_cap = specs[i].slo.inflight_cap;
    limits[i].gray_shed_factor = specs[i].slo.gray_shed_factor;
  }
  return limits;
}

}  // namespace

ServeFrontend::ServeFrontend(Simulator* sim, BlockTarget* target,
                             ServeConfig config)
    : sim_(sim),
      target_(target),
      config_(std::move(config)),
      tenant_set_(config_.tenants, config_.seed),
      queue_(config_.policy, LimitsOf(config_.tenants), config_.iodepth) {
  if (config_.footprint_blocks == 0) {
    config_.footprint_blocks = target_->capacity_blocks() / 2;
  }
  const std::vector<TenantSet::Region> regions =
      tenant_set_.AssignRegions(config_.footprint_blocks);
  tenants_.resize(tenant_set_.size());
  next_arrival_.resize(tenant_set_.size(), 0);
  for (size_t i = 0; i < tenant_set_.size(); ++i) {
    TenantRuntime& tenant = tenants_[i];
    tenant.region = regions[i];
    tenant.arrivals = std::make_unique<ArrivalProcess>(tenant_set_.spec(i).arrival);
    tenant.rng = Rng(tenant_set_.WorkloadSeed(i));
    tenant.report.name = tenant_set_.spec(i).name;
    tenant.report.cls = tenant_set_.spec(i).cls;
  }
}

void ServeFrontend::AttachObservability(Observability* obs) {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const std::string prefix = "serve." + tenant_set_.spec(i).name + ".";
    TenantRuntime* tenant = &tenants_[i];
    obs->registry.RegisterCounter(prefix + "arrivals",
                                  [tenant]() { return tenant->report.arrivals; });
    obs->registry.RegisterCounter(prefix + "completed", [tenant]() {
      return tenant->report.report.requests_completed;
    });
    obs->registry.RegisterCounter(prefix + "hedged_reads", [tenant]() {
      return tenant->report.hedged_reads;
    });
    obs->registry.RegisterCounter(prefix + "hedge_wins", [tenant]() {
      return tenant->report.hedge_wins;
    });
    obs->registry.RegisterCounter(prefix + "arrivals_deferred", [tenant]() {
      return tenant->report.report.arrivals_deferred;
    });
    AdmissionQueue* queue = &queue_;
    const int index = static_cast<int>(i);
    obs->registry.RegisterCounter(prefix + "cap_deferrals", [queue, index]() {
      return queue->cap_deferrals(index);
    });
    obs->registry.RegisterGauge(prefix + "queue_depth", [queue, index]() {
      return queue->queue_depth(index);
    });
    obs->registry.RegisterGauge(prefix + "inflight", [queue, index]() {
      return queue->inflight(index);
    });
    tenant->obs_read = obs->registry.Histogram(prefix + "read_latency");
    tenant->obs_write = obs->registry.Histogram(prefix + "write_latency");
    tenant->obs_queue = obs->registry.Histogram(prefix + "queue_delay");
  }
}

bool ServeFrontend::UnderGrayPressure() const {
  if (!config_.qos || health_ == nullptr) {
    return false;
  }
  for (int d = 0; d < health_->num_devices(); ++d) {
    if (health_->IsGray(d)) {
      return true;
    }
  }
  return false;
}

SimTime ServeFrontend::HedgeDelayFor(const TenantRuntime& tenant) const {
  const SloSpec& slo = tenant_set_.spec(&tenant - tenants_.data()).slo;
  SimTime base = 0;
  if (health_ != nullptr) {
    base = health_->PooledReadQuantileNs(slo.hedge_quantile);
  }
  if (base == 0) {
    base = tenant.self_hedge_base;  // 0 until enough samples: no hedge yet
  }
  if (base == 0) {
    return 0;
  }
  const SimTime delay =
      static_cast<SimTime>(static_cast<double>(base) * slo.hedge_multiplier);
  return std::max(delay, kHedgeFloorNs);
}

void ServeFrontend::ScheduleNextArrival(size_t tenant_index) {
  const SimTime next = next_arrival_[tenant_index];
  if (next >= deadline_) {
    return;
  }
  sim_->Schedule(next - sim_->Now(),
                 [this, tenant_index]() { OnArrival(tenant_index); });
}

void ServeFrontend::OnArrival(size_t tenant_index) {
  TenantRuntime& tenant = tenants_[tenant_index];
  const TenantSpec& spec = tenant_set_.spec(tenant_index);
  const SimTime now = sim_->Now();
  tenant.report.arrivals++;
  // Fold the arrival's offset from Run() start, not absolute sim time: the
  // arrival process is a pure function of (seed, tenant), but how long the
  // pre-run fill took (e.g. legacy vs queued device frontend) is not.
  tenant.fingerprint =
      (tenant.fingerprint ^ static_cast<uint64_t>(now - start_)) *
      1099511628211ULL;  // FNV-1a prime

  ServeRequest request;
  request.tenant = static_cast<int>(tenant_index);
  request.arrival = now;
  request.req.is_write = !tenant.rng.Chance(spec.read_fraction);
  request.req.nblocks = spec.request_blocks;
  const uint64_t slots =
      std::max<uint64_t>(tenant.region.blocks / spec.request_blocks, 1);
  request.req.offset_blocks =
      tenant.region.start + tenant.rng.Uniform(slots) * spec.request_blocks;
  if (queue_.total_inflight() >= config_.iodepth) {
    tenant.report.report.arrivals_deferred++;
  }
  queue_.Push(std::move(request));
  Pump();

  next_arrival_[tenant_index] = tenant.arrivals->NextAfter(now);
  ScheduleNextArrival(tenant_index);
}

void ServeFrontend::Pump() {
  // Re-entrancy guard: a synchronously-completing target would recurse
  // through the completion callback per admitted request.
  if (in_pump_) {
    return;
  }
  in_pump_ = true;
  queue_.SetPressure(UnderGrayPressure());
  ServeRequest request;
  while (queue_.PopNext(&request)) {
    Dispatch(std::move(request));
  }
  in_pump_ = false;
}

void ServeFrontend::Dispatch(ServeRequest request) {
  TenantRuntime& tenant = tenants_[static_cast<size_t>(request.tenant)];
  const SimTime now = sim_->Now();
  const SimTime wait = now - request.arrival;
  tenant.report.report.queue_delay.Record(wait);
  if (tenant.obs_queue != nullptr) {
    tenant.obs_queue->Record(wait);
  }
  if (!request.req.is_write) {
    DispatchRead(request);
    return;
  }
  epoch_++;
  std::vector<uint64_t> patterns(request.req.nblocks);
  for (uint64_t i = 0; i < request.req.nblocks; ++i) {
    patterns[i] = PatternFor(request.req.offset_blocks + i, epoch_);
  }
  const uint64_t bytes = request.req.nblocks * kBlockSize;
  const int tenant_index = request.tenant;
  const SimTime arrival = request.arrival;
  target_->SubmitWrite(
      request.req.offset_blocks, std::move(patterns),
      [this, tenant_index, arrival, bytes](const Status& status) {
        TenantRuntime& t = tenants_[static_cast<size_t>(tenant_index)];
        if (status.ok()) {
          t.report.report.bytes_written += bytes;
        }
        t.report.report.requests_completed++;
        const SimTime latency = sim_->Now() - arrival;
        t.report.report.write_latency.Record(latency);
        if (t.obs_write != nullptr) {
          t.obs_write->Record(latency);
        }
        last_completion_ = sim_->Now();
        queue_.OnComplete(tenant_index);
        Pump();
      });
}

void ServeFrontend::DispatchRead(const ServeRequest& request) {
  TenantRuntime& tenant = tenants_[static_cast<size_t>(request.tenant)];
  const SloSpec& slo = tenant_set_.spec(request.tenant).slo;
  auto state = std::make_shared<ReadState>();
  state->tenant = request.tenant;
  state->arrival = request.arrival;
  state->issue = sim_->Now();
  state->bytes = request.req.nblocks * kBlockSize;

  const uint64_t offset = request.req.offset_blocks;
  const uint64_t nblocks = request.req.nblocks;
  target_->SubmitRead(offset, nblocks,
                      [this, state](const Status& status,
                                    std::vector<uint64_t> /*patterns*/) {
                        FinishReadCopy(state, /*is_hedge=*/false, status);
                      });

  if (!config_.qos || slo.hedge_quantile <= 0.0) {
    return;
  }
  const SimTime delay = HedgeDelayFor(tenant);
  if (delay == 0) {
    return;  // no latency picture yet — hedging would be a guess
  }
  sim_->Schedule(delay, [this, state, offset, nblocks]() {
    if (state->done) {
      return;  // primary already landed
    }
    TenantRuntime& t = tenants_[static_cast<size_t>(state->tenant)];
    t.report.hedged_reads++;
    state->outstanding++;
    target_->SubmitRead(offset, nblocks,
                        [this, state](const Status& status,
                                      std::vector<uint64_t> /*patterns*/) {
                          FinishReadCopy(state, /*is_hedge=*/true, status);
                        });
  });
}

void ServeFrontend::FinishReadCopy(const std::shared_ptr<ReadState>& state,
                                   bool is_hedge, const Status& status) {
  TenantRuntime& tenant = tenants_[static_cast<size_t>(state->tenant)];
  if (!state->done) {
    state->done = true;
    const SimTime now = sim_->Now();
    if (status.ok()) {
      tenant.report.report.bytes_read += state->bytes;
    }
    if (is_hedge) {
      tenant.report.hedge_wins++;
    }
    tenant.report.report.requests_completed++;
    const SimTime latency = now - state->arrival;
    tenant.report.report.read_latency.Record(latency);
    if (tenant.obs_read != nullptr) {
      tenant.obs_read->Record(latency);
    }
    tenant.service_read.Record(now - state->issue);
    tenant.reads_since_refresh++;
    if (tenant.reads_since_refresh >= kHedgeRefreshReads &&
        tenant.service_read.count() >= kHedgeMinSamples) {
      const SloSpec& slo = tenant_set_.spec(state->tenant).slo;
      if (slo.hedge_quantile > 0.0) {
        tenant.self_hedge_base = static_cast<SimTime>(
            tenant.service_read.Percentile(slo.hedge_quantile * 100.0));
      }
      tenant.reads_since_refresh = 0;
    }
    last_completion_ = now;
  }
  // The admission slot drains only when every copy has landed: hedge copies
  // consume real device capacity and must not let the window overcommit.
  state->outstanding--;
  if (state->outstanding == 0) {
    queue_.OnComplete(state->tenant);
    Pump();
  }
}

std::vector<TenantReport> ServeFrontend::Run() {
  start_ = sim_->Now();
  deadline_ = start_ + config_.duration_ns;
  last_completion_ = start_;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    next_arrival_[i] = tenants_[i].arrivals->NextAfter(start_);
    ScheduleNextArrival(i);
  }
  sim_->RunUntilIdle();
  // Arrivals stop at the deadline but queued work drains fully.
  assert(queue_.total_inflight() == 0);
  std::vector<TenantReport> reports;
  reports.reserve(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    tenants_[i].report.cap_deferrals = queue_.cap_deferrals(static_cast<int>(i));
    tenants_[i].report.report.elapsed_ns =
        last_completion_ > start_ ? last_completion_ - start_ : 1;
    reports.push_back(tenants_[i].report);
  }
  return reports;
}

uint64_t ServeFrontend::ArrivalFingerprint(size_t i) const {
  return tenants_[i].fingerprint;
}

}  // namespace biza
