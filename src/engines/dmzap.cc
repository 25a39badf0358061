#include "src/engines/dmzap.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/engines/join.h"

namespace biza {

DmZap::DmZap(Simulator* sim, ZonedTarget* backend, const DmZapConfig& config)
    : sim_(sim),
      backend_(backend),
      config_(config),
      front_(sim, this, "dmzap", &stats_.user_written_blocks,
             &stats_.user_read_blocks) {
  zone_cap_ = backend_->zone_capacity_blocks();
  const uint64_t total_blocks = zone_cap_ * backend_->num_zones();
  exposed_blocks_ = static_cast<uint64_t>(
      static_cast<double>(total_blocks) * config_.exposed_capacity_ratio);
  zones_.resize(backend_->num_zones());
  free_zones_ = zones_.size();
  for (auto& z : zones_) {
    z.rmap = ChunkedArray<uint64_t>(zone_cap_, /*chunk_size=*/1024, kUnmapped);
  }
  zone_queues_.resize(backend_->num_zones());
}

void DmZap::Invalidate(uint64_t& loc) {
  if (loc == kUnmapped) {
    return;
  }
  ZoneMeta& z = zones_[loc / zone_cap_];
  assert(z.valid > 0);
  z.valid--;
  z.rmap.Mut(loc % zone_cap_) = kUnmapped;
  loc = kUnmapped;
}

uint64_t DmZap::PickZoneForWrite(uint64_t want_blocks, bool for_gc) {
  (void)want_blocks;
  const int budget = std::min(kMaxOpenDataZones, backend_->max_open_zones()) +
                     (for_gc ? 1 : 0);
  // Opportunistically seal any drained full zones so they release their
  // open-zone slots.
  for (size_t i = open_zones_.size(); i-- > 0;) {
    SealIfFull(open_zones_[i]);
  }
  // Keep the open-zone budget saturated: the authors' revision writes ALL
  // open zones in parallel (§5.1), so parallelism requires the full set to
  // be open, not lazily grown.
  while (static_cast<int>(open_zones_.size()) < budget && free_zones_ > 0) {
    // Open the lowest-numbered free zone (the counter says one exists).
    uint32_t found = 0;
    while (zones_[found].open || zones_[found].sealed ||
           zones_[found].wptr != 0) {
      ++found;
    }
    zones_[found].open = true;
    free_zones_--;
    open_zones_.push_back(found);
  }
  // Round-robin across the open set for parallelism.
  for (size_t i = 0; i < open_zones_.size(); ++i) {
    const size_t index = (open_rr_ + i) % open_zones_.size();
    const uint32_t zone = open_zones_[index];
    if (zones_[zone].wptr < zone_cap_) {
      open_rr_ = index + 1;
      return zone;
    }
  }
  return kUnmapped;
}

void DmZap::SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                        WriteCallback cb, WriteTag tag) {
  if (front_.AdmitWrite(lbn, patterns.size(), tag, cb)) {
    WriteBody(lbn, std::move(patterns), std::move(cb), tag);
  }
}

void DmZap::WriteBody(uint64_t lbn, std::vector<uint64_t> patterns,
                      WriteCallback cb, WriteTag tag) {
  const uint64_t n = patterns.size();
  cpu_.Charge(kCpuCosts.request_overhead_ns);

  // Split the request into zone-contiguous segments; a remainder parked
  // for a free zone counts as one more leg.
  auto join = MakeJoin(std::move(cb));

  uint64_t done = 0;
  const bool for_gc = tag == WriteTag::kGcData || tag == WriteTag::kGcParity;
  while (done < n) {
    const uint64_t zone = PickZoneForWrite(n - done, for_gc);
    if (zone == kUnmapped) {
      // No free zone. If GC or in-flight writes can make progress, park the
      // remainder until something frees (backpressure); otherwise this is a
      // genuine ENOSPC.
      MaybeStartGc();
      bool can_progress = gc_active_;
      if (!can_progress) {
        for (uint32_t z = 0; z < zones_.size() && !can_progress; ++z) {
          can_progress = zones_[z].busy || !zone_queues_[z].empty();
        }
      }
      if (can_progress) {
        const uint64_t rem_lbn = lbn + done;
        std::vector<uint64_t> rem(patterns.begin() + static_cast<long>(done),
                                  patterns.end());
        join->Add();
        stalled_writes_.push_back(
            [this, rem_lbn, rem = std::move(rem), tag, join]() mutable {
              WriteBody(rem_lbn, std::move(rem), Leg(std::move(join)), tag);
            });
      } else {
        join->Fail(ResourceExhaustedError("dm-zap out of zones"));
      }
      join->Done();  // the dispatch guard
      return;
    }
    ZoneMeta& z = zones_[zone];
    const uint64_t take = std::min(n - done, zone_cap_ - z.wptr);
    WriteJob job;
    job.offset = z.wptr;
    job.tag = tag;
    job.enqueued_at = sim_->Now();
    job.patterns.assign(patterns.begin() + static_cast<long>(done),
                        patterns.begin() + static_cast<long>(done + take));
    job.lbns.resize(take);
    for (uint64_t i = 0; i < take; ++i) {
      const uint64_t target = lbn + done + i;
      cpu_.Charge(kCpuCosts.map_update_ns);
      uint64_t& loc = l2p_.Mut(target);
      Invalidate(loc);
      loc = zone * zone_cap_ + z.wptr + i;
      z.rmap.Mut(z.wptr + i) = target;
      job.lbns[i] = target;
    }
    z.valid += take;
    z.wptr += take;
    join->Add();
    job.done = [join]() { join->Done(); };
    EnqueueZoneWrite(static_cast<uint32_t>(zone), std::move(job));
    done += take;
  }
  join->Done();  // the dispatch guard
  MaybeStartGc();
}

void DmZap::EnqueueZoneWrite(uint32_t zone, WriteJob job) {
  zone_queues_[zone].push_back(std::move(job));
  PumpZone(zone);
}

void DmZap::PumpZone(uint32_t zone) {
  ZoneMeta& z = zones_[zone];
  if (z.busy || zone_queues_[zone].empty()) {
    return;
  }
  z.busy = true;
  WriteJob job = std::move(zone_queues_[zone].front());
  zone_queues_[zone].pop_front();
  // The single-in-flight lock: time spent queued is CPU burned spinning
  // (dm-zap implements the ordering lock as a spinlock, §5.7). One context
  // spins per zone, so the charge is clamped to the wall time since the
  // zone's previous dispatch — overlapping waiters don't multiply it.
  const SimTime wait = sim_->Now() - job.enqueued_at;
  const SimTime wall = sim_->Now() - z.last_dispatch;
  cpu_.Charge(wait < wall ? wait : wall);
  z.last_dispatch = sim_->Now();
  const uint64_t offset = job.offset;
  const WriteTag tag = job.tag;
  auto patterns = job.patterns;
  backend_->SubmitZoneWrite(
      zone, offset, std::move(patterns),
      [this, zone, job = std::move(job)](const Status& status) mutable {
        if (!status.ok()) {
          BIZA_LOG_ERROR("dm-zap zone write failed: %s",
                         status.ToString().c_str());
        }
        OnZoneWriteDone(zone, job);
      },
      tag);
}

void DmZap::OnZoneWriteDone(uint32_t zone, const WriteJob& job) {
  ZoneMeta& z = zones_[zone];
  z.busy = false;
  // Seal BEFORE signalling completion: the completion callback may submit
  // the next request synchronously, and a full-but-unsealed zone would
  // still hold an open-zone slot.
  SealIfFull(zone);
  job.done();
  PumpZone(zone);
}

void DmZap::SealIfFull(uint32_t zone) {
  ZoneMeta& z = zones_[zone];
  if (z.open && z.wptr >= zone_cap_ && !z.busy && zone_queues_[zone].empty()) {
    (void)backend_->FinishZone(zone);
    z.open = false;
    z.sealed = true;
    open_zones_.erase(std::find(open_zones_.begin(), open_zones_.end(), zone));
    RetryStalled();  // a freed open-zone slot may unblock parked writes
  }
}

void DmZap::SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  if (!front_.AdmitRead(lbn, nblocks, cb)) {
    return;
  }
  cpu_.Charge(kCpuCosts.request_overhead_ns);

  auto join = MakeReadJoin(nblocks, std::move(cb));

  uint64_t i = 0;
  while (i < nblocks) {
    cpu_.Charge(kCpuCosts.map_lookup_ns);
    const uint64_t loc = l2p_.Get(lbn + i);
    if (loc == kUnmapped) {
      i++;  // unwritten blocks read as zero
      continue;
    }
    // Extend a physically-contiguous run.
    uint64_t run = 1;
    while (i + run < nblocks && l2p_.Get(lbn + i + run) == loc + run &&
           (loc + run) / zone_cap_ == loc / zone_cap_) {
      run++;
    }
    const uint32_t zone = static_cast<uint32_t>(loc / zone_cap_);
    const uint64_t offset = loc % zone_cap_;
    join->Add();
    backend_->SubmitZoneRead(zone, offset, run, RunLeg(join, i));
    i += run;
  }
  join->Done();  // the dispatch guard
}

// ---------------------------------------------------------------------------
// Garbage collection: greedy victim, batched migration, oblivious to data
// lifetimes (that obliviousness is what BIZA's zone group selector fixes).
// ---------------------------------------------------------------------------

void DmZap::RetryStalled() {
  if (stalled_writes_.empty()) {
    return;
  }
  std::vector<std::function<void()>> retry;
  retry.swap(stalled_writes_);
  for (auto& fn : retry) {
    fn();
  }
}

void DmZap::MaybeStartGc() {
  if (gc_active_) {
    return;
  }
  const double free_ratio = static_cast<double>(FreeZones()) /
                            static_cast<double>(zones_.size());
  if (free_ratio >= kGcTriggerFreeRatio) {
    return;
  }
  const uint64_t victim = PickVictim();
  if (victim == kUnmapped) {
    return;
  }
  gc_active_ = true;
  gc_victim_ = victim;
  gc_scan_offset_ = 0;
  stats_.gc_runs++;
  sim_->Schedule(0, [this]() { GcStep(); });
}

uint64_t DmZap::PickVictim() const {
  uint64_t victim = kUnmapped;
  uint64_t best_valid = ~0ULL;
  for (uint32_t zone = 0; zone < zones_.size(); ++zone) {
    const ZoneMeta& z = zones_[zone];
    if (!z.sealed) {
      continue;
    }
    if (z.valid < best_valid) {
      best_valid = z.valid;
      victim = zone;
    }
  }
  // A victim that is (almost) fully valid frees no space: collecting it
  // would just churn writes forever. Give up until invalidations appear.
  if (victim != kUnmapped &&
      best_valid >= zone_cap_ - zone_cap_ / 50) {
    return kUnmapped;
  }
  return victim;
}

void DmZap::GcStep() {
  if (gc_victim_ == kUnmapped) {
    gc_active_ = false;
    return;
  }
  const uint32_t victim = static_cast<uint32_t>(gc_victim_);
  ZoneMeta& vz = zones_[victim];

  // Gather the next batch of live blocks.
  std::vector<uint64_t> offsets;
  std::vector<uint64_t> lbns;
  while (gc_scan_offset_ < zone_cap_ &&
         offsets.size() < kGcBatchBlocks) {
    const uint64_t lbn = vz.rmap.Get(gc_scan_offset_);
    if (lbn != kUnmapped &&
        l2p_.Get(lbn) == gc_victim_ * zone_cap_ + gc_scan_offset_) {
      offsets.push_back(gc_scan_offset_);
      lbns.push_back(lbn);
    }
    gc_scan_offset_++;
  }

  if (offsets.empty()) {
    if (gc_scan_offset_ >= zone_cap_) {
      // Victim fully migrated: recycle it.
      (void)backend_->ResetZone(victim);
      // Fresh metadata; the reverse map keeps its size, its chunks freed.
      vz.rmap.Clear();
      vz = ZoneMeta{.rmap = std::move(vz.rmap)};
      free_zones_++;
      stats_.gc_zone_resets++;
      gc_victim_ = kUnmapped;
      RetryStalled();
      const double free_ratio = static_cast<double>(FreeZones()) /
                                static_cast<double>(zones_.size());
      if (free_ratio < kGcStopFreeRatio) {
        const uint64_t next = PickVictim();
        if (next != kUnmapped) {
          gc_victim_ = next;
          gc_scan_offset_ = 0;
          sim_->Schedule(0, [this]() { GcStep(); });
          return;
        }
      }
      gc_active_ = false;
      return;
    }
    sim_->Schedule(0, [this]() { GcStep(); });
    return;
  }

  // Read the batch (one read per block), then rewrite through the normal
  // allocation path and continue.
  auto rewrite = [this, lbns = std::move(lbns)](
                     const Status&, std::vector<uint64_t> patterns) {
    // Re-check liveness: the user may have overwritten blocks mid-read.
    auto finish = std::make_shared<std::function<void()>>([this]() {
      sim_->Schedule(0, [this]() { GcStep(); });
    });
    struct Waiter {
      std::shared_ptr<std::function<void()>> finish;
      ~Waiter() { (*finish)(); }
    };
    auto waiter = std::make_shared<Waiter>();
    waiter->finish = finish;
    for (size_t i = 0; i < lbns.size(); ++i) {
      const uint64_t lbn = lbns[i];
      const uint64_t loc = l2p_.Get(lbn);
      if (loc == kUnmapped ||
          loc / zone_cap_ != gc_victim_) {
        continue;  // overwritten during migration
      }
      stats_.gc_migrated_blocks++;
      WriteBody(lbn, {patterns[i]}, [waiter](const Status&) {},
                WriteTag::kGcData);
    }
  };
  auto batch =
      MakeJoin(std::vector<uint64_t>(offsets.size(), 0), std::move(rewrite));
  for (size_t i = 0; i < offsets.size(); ++i) {
    batch->Add();
    backend_->SubmitZoneRead(victim, offsets[i], 1, RunLeg(batch, i));
  }
  batch->Done();  // the dispatch guard
}

uint64_t DmZap::ResidentStateBytes() const {
  uint64_t bytes =
      l2p_.allocated_bytes() + zones_.capacity() * sizeof(ZoneMeta);
  for (const ZoneMeta& z : zones_) {
    bytes += z.rmap.allocated_bytes();
  }
  return bytes;
}

}  // namespace biza
