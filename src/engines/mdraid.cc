#include "src/engines/mdraid.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>

#include "src/common/logging.h"
#include "src/engines/join.h"
#include "src/engines/retry.h"
#include "src/raid/reed_solomon.h"

namespace biza {

Mdraid::Mdraid(Simulator* sim, std::vector<BlockTarget*> children,
               const MdraidConfig& config)
    : sim_(sim),
      children_(std::move(children)),
      config_(config),
      lock_(/*mb_per_s=*/0.0, kLockNsPerPage),
      rebuild_(sim, "mdraid", &child_failed_, this),
      front_(sim, this, "mdraid", &stats_.user_written_blocks,
             &stats_.user_read_blocks) {
  n_ = static_cast<int>(children_.size());
  assert(n_ >= 3);
  k_ = n_ - 1;
  geometry_.num_drives = n_;
  geometry_.num_parity = 1;
  geometry_.chunk_blocks = 1;
  uint64_t child_cap = children_[0]->capacity_blocks();
  for (const auto* child : children_) {
    child_cap = std::min(child_cap, child->capacity_blocks());
  }
  stripes_total_ = child_cap;
  capacity_blocks_ = stripes_total_ * static_cast<uint64_t>(k_);
  child_failed_.assign(static_cast<size_t>(n_), false);
  written_stripes_ = ChunkedArray<uint64_t>((stripes_total_ + 63) / 64);
}

void Mdraid::AttachObservability(Observability* obs) {
  rebuild_.AttachObservability(obs);
  front_.AttachObservability(obs);
  if (obs == nullptr) {
    return;
  }
  StatRegistry& reg = obs->registry;
  reg.RegisterCounter("mdraid.flushed_data_blocks",
                      [this] { return stats_.flushed_data_blocks; });
  reg.RegisterCounter("mdraid.flushed_parity_blocks",
                      [this] { return stats_.flushed_parity_blocks; });
  reg.RegisterCounter("mdraid.rmw_read_blocks",
                      [this] { return stats_.rmw_read_blocks; });
  reg.RegisterCounter("mdraid.full_stripe_flushes",
                      [this] { return stats_.full_stripe_flushes; });
  reg.RegisterCounter("mdraid.partial_stripe_flushes",
                      [this] { return stats_.partial_stripe_flushes; });
  reg.RegisterCounter("mdraid.degraded_writes",
                      [this] { return stats_.degraded_writes; });
  reg.RegisterCounter("mdraid.read_retries",
                      [this] { return stats_.read_retries; });
  reg.RegisterCounter("mdraid.write_retries",
                      [this] { return stats_.write_retries; });
  stats_.mitigation.Register(reg, "mdraid");
  reg.RegisterGauge("mdraid.dirty_blocks", [this] { return dirty_blocks_; });
}

void Mdraid::SetChildFailed(int child, bool failed) {
  child_failed_[static_cast<size_t>(child)] = failed;
}

void Mdraid::SetHealthMonitor(DeviceHealthMonitor* monitor) {
  health_ = monitor;
}

bool Mdraid::CanReconstruct(uint64_t stripe) const {
  for (int c = 0; c < n_; ++c) {
    if (child_failed_[static_cast<size_t>(c)]) {
      return false;
    }
  }
  return !rebuild_.stats().active && flushing_stripes_.count(stripe) == 0;
}

void Mdraid::ReconstructBlock(uint64_t stripe, int child,
                              std::function<void(const Status&, uint64_t)> cb) {
  cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / kKiB) *
              static_cast<SimTime>(k_));
  recon_active_[stripe]++;
  // XOR of the other n-1 children's blocks.
  auto recon = MakeJoin(uint64_t{0}, [this, stripe, cb = std::move(cb)](
                                         const Status& status, uint64_t acc) {
    OnReconDone(stripe);
    cb(status, acc);
  });
  for (int other = 0; other < n_; ++other) {
    if (other == child) {
      continue;
    }
    recon->Add();
    ChildRead(other, stripe, 1,
              [recon](const Status& status, std::vector<uint64_t> patterns) {
                if (status.ok() && !patterns.empty()) {
                  recon->data ^= patterns[0];
                } else {
                  recon->Fail(status.ok() ? DataLossError("short recon read")
                                          : status);
                }
                recon->Done();
              });
  }
  recon->Done();  // the dispatch guard
}

void Mdraid::OnReconDone(uint64_t stripe) {
  auto it = recon_active_.find(stripe);
  if (it != recon_active_.end() && --it->second == 0) {
    recon_active_.erase(it);
  }
  if (!recon_waiters_.empty()) {
    std::vector<std::function<void()>> ready;
    ready.swap(recon_waiters_);
    for (auto& fn : ready) {
      fn();
    }
  }
}

Mdraid::StripeEntry& Mdraid::GetOrCreateEntry(uint64_t stripe) {
  auto it = cache_.find(stripe);
  if (it == cache_.end()) {
    StripeEntry entry;
    entry.patterns.assign(static_cast<size_t>(k_), 0);
    entry.dirty.assign(static_cast<size_t>(k_), false);
    lru_.push_front(stripe);
    entry.lru_it = lru_.begin();
    it = cache_.emplace(stripe, std::move(entry)).first;
  }
  return it->second;
}

void Mdraid::TouchLru(uint64_t stripe) {
  auto it = cache_.find(stripe);
  if (it == cache_.end()) {
    return;
  }
  lru_.erase(it->second.lru_it);
  lru_.push_front(stripe);
  it->second.lru_it = lru_.begin();
}

void Mdraid::SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                         WriteCallback cb, WriteTag tag) {
  const uint64_t n = patterns.size();
  if (!front_.AdmitWrite(lbn, n, tag, cb)) {
    return;
  }

  // mdraid splits requests into 4 KiB pages; each page passes through the
  // array lock and lands in the stripe cache (write-back).
  SimTime lock_done = sim_->Now();
  for (uint64_t i = 0; i < n; ++i) {
    cpu_.Charge(kCpuCosts.stripe_cache_op_ns);
    lock_done = lock_.OccupyFor(sim_->Now(), kLockNsPerPage);
    const uint64_t target = lbn + i;
    const uint64_t stripe = StripeOf(target);
    StripeEntry& entry = GetOrCreateEntry(stripe);
    const int slot = SlotOf(target);
    if (!entry.dirty[static_cast<size_t>(slot)]) {
      entry.dirty[static_cast<size_t>(slot)] = true;
      entry.dirty_count++;
      dirty_blocks_++;
    }
    entry.patterns[static_cast<size_t>(slot)] = patterns[i];
    TouchLru(stripe);
  }
  cpu_.Charge(kCpuCosts.request_overhead_ns);

  // Backpressure: above the high watermark kick a flush; if the cache is
  // entirely full, stall the completion until a flush frees space.
  const bool overfull = dirty_blocks_ > config_.stripe_cache_blocks;
  if (dirty_blocks_ > static_cast<uint64_t>(
          static_cast<double>(config_.stripe_cache_blocks) *
          kFlushHighWatermark)) {
    if (!flush_in_progress_) {
      flush_in_progress_ = true;
      FlushLruBatch([this]() {
        flush_in_progress_ = false;
        MaybeReleaseStalled();
      });
    }
  }
  MaybeScheduleTimer();

  auto complete = [this, cb = std::move(cb), lock_done]() {
    sim_->ScheduleAt(std::max(lock_done, sim_->Now()),
                     [cb]() { cb(OkStatus()); });
  };
  if (overfull) {
    stalled_.push_back(std::move(complete));
  } else {
    complete();
  }
}

void Mdraid::MaybeReleaseStalled() {
  if (dirty_blocks_ <= config_.stripe_cache_blocks && !stalled_.empty()) {
    std::vector<std::function<void()>> ready;
    ready.swap(stalled_);
    for (auto& fn : ready) {
      fn();
    }
  }
  // Keep draining while above the watermark.
  if (dirty_blocks_ > static_cast<uint64_t>(
          static_cast<double>(config_.stripe_cache_blocks) *
          kFlushHighWatermark) &&
      !flush_in_progress_) {
    flush_in_progress_ = true;
    FlushLruBatch([this]() {
      flush_in_progress_ = false;
      MaybeReleaseStalled();
    });
  }
}

void Mdraid::MaybeScheduleTimer() {
  if (timer_scheduled_ || dirty_blocks_ == 0) {
    return;
  }
  timer_scheduled_ = true;
  sim_->Schedule(config_.flush_interval_ns, [this]() { OnTimer(); });
}

void Mdraid::OnTimer() {
  timer_scheduled_ = false;
  if (dirty_blocks_ == 0) {
    return;
  }
  if (!flush_in_progress_) {
    // Compensation flush: persist everything dirty AS OF NOW (a snapshot,
    // so sustained new writes cannot make the flush chase a moving target).
    // The stripe cache is volatile host DRAM, so mdraid periodically writes
    // it back — the fault-tolerance trade-off §5.4 calls out. This is what
    // turns absorbed overwrites into flash traffic for mdraid-based stacks.
    flush_in_progress_ = true;
    auto snapshot = std::make_shared<std::vector<uint64_t>>();
    snapshot->reserve(cache_.size());
    for (const auto& [stripe, entry] : cache_) {
      snapshot->push_back(stripe);
    }
    std::sort(snapshot->begin(), snapshot->end());
    // The step closure must not capture its own shared_ptr (that cycle
    // leaks one closure per flush); the strong reference is instead carried
    // by each pending continuation, so the chain keeps itself alive exactly
    // until its last link fires.
    auto step = std::make_shared<std::function<void(size_t)>>();
    std::weak_ptr<std::function<void(size_t)>> weak_step = step;
    *step = [this, snapshot, weak_step](size_t index) {
      if (index >= snapshot->size()) {
        flush_in_progress_ = false;
        MaybeReleaseStalled();
        MaybeScheduleTimer();
        return;
      }
      const size_t end =
          std::min(index + kFlushRunStripes, snapshot->size());
      std::vector<uint64_t> run(snapshot->begin() + static_cast<long>(index),
                                snapshot->begin() + static_cast<long>(end));
      auto self = weak_step.lock();
      FlushStripeRun(std::move(run), [self, end]() { (*self)(end); });
    };
    (*step)(0);
  } else {
    MaybeScheduleTimer();
  }
}

void Mdraid::FlushLruBatch(std::function<void()> done) {
  if (lru_.empty()) {
    done();
    return;
  }
  // Pick the LRU stripe and grow a contiguous dirty run around it so the
  // block layer can merge per-child writes (when enabled).
  const uint64_t seed = lru_.back();
  uint64_t first = seed;
  while (first > 0 && cache_.count(first - 1) > 0 &&
         (seed - (first - 1)) < kFlushRunStripes) {
    first--;
  }
  std::vector<uint64_t> run;
  uint64_t s = first;
  while (run.size() < kFlushRunStripes && cache_.count(s) > 0) {
    run.push_back(s);
    s++;
  }
  FlushStripeRun(std::move(run), std::move(done));
}

void Mdraid::FlushStripeRun(std::vector<uint64_t> stripes,
                            std::function<void()> done) {
  // Stage 1: collect the stripe work and detach it from the cache, then
  // issue reconstruct-reads for partially-dirty stripes.
  struct StripeWork {
    uint64_t stripe;
    std::vector<uint64_t> patterns;  // full k slots after reads
    std::vector<bool> dirty;
    // Non-dirty slot on a failed child whose OLD value must be
    // reconstructed (old parity XOR every other data slot's old value), or
    // the recomputed parity silently forgets that block — a torn stripe.
    int recon_slot = -1;
    uint64_t recon_acc = 0;
  };
  std::vector<StripeWork> works;  // stripes pinned in flushing_stripes_

  struct NeededRead {
    size_t work_index;
    int slot;   // patterns slot to fill, or -1 for a parity fold-only read
    int child;
    uint64_t stripe;
    bool fill;  // store the value into patterns[slot]
    bool fold;  // XOR the value into recon_acc
  };
  std::vector<NeededRead> reads;

  int failed_children = 0;
  for (int c = 0; c < n_; ++c) {
    if (child_failed_[static_cast<size_t>(c)]) {
      failed_children++;
    }
  }

  // Stripes under an in-flight reconstruct-around read stay cached and
  // dirty: writing their new data+parity mid-recon would feed the recon a
  // mix of old and new blocks. They are retried when the recons drain.
  std::vector<uint64_t> recon_pinned;

  for (uint64_t stripe : stripes) {
    auto it = cache_.find(stripe);
    if (it == cache_.end()) {
      continue;
    }
    if (recon_active_.count(stripe) > 0) {
      recon_pinned.push_back(stripe);
      continue;
    }
    StripeEntry& entry = it->second;
    StripeWork work;
    work.stripe = stripe;
    work.patterns = entry.patterns;
    work.dirty = entry.dirty;
    if (entry.dirty_count < static_cast<uint64_t>(k_)) {
      stats_.partial_stripe_flushes++;
      // A non-dirty slot on the failed child cannot be read; reconstruct
      // its old value instead so the new parity still covers it. Possible
      // only while a single child is failed (the survivors are complete).
      for (int slot = 0; slot < k_; ++slot) {
        if (!entry.dirty[static_cast<size_t>(slot)] &&
            child_failed_[static_cast<size_t>(
                geometry_.DataDrive(stripe, slot))]) {
          work.recon_slot = slot;
          break;
        }
      }
      if (work.recon_slot >= 0 && failed_children > 1) {
        BIZA_LOG_ERROR(
            "mdraid: stripe %llu doubly degraded, block lost from parity",
            static_cast<unsigned long long>(stripe));
        work.recon_slot = -1;
      }
      for (int slot = 0; slot < k_; ++slot) {
        const int child = geometry_.DataDrive(stripe, slot);
        if (child_failed_[static_cast<size_t>(child)]) {
          continue;  // unreadable; recon_slot covers the non-dirty case
        }
        const bool fill = !entry.dirty[static_cast<size_t>(slot)];
        // With a reconstruction pending, EVERY surviving data slot's old
        // value folds in — including dirty slots, whose cache value is new.
        const bool fold = work.recon_slot >= 0;
        if (fill || fold) {
          reads.push_back(
              NeededRead{works.size(), slot, child, stripe, fill, fold});
        }
      }
      if (work.recon_slot >= 0) {
        const int pchild = geometry_.ParityDrive(stripe);
        reads.push_back(
            NeededRead{works.size(), -1, pchild, stripe, false, true});
      }
    } else {
      stats_.full_stripe_flushes++;
    }
    works.push_back(std::move(work));
    flushing_stripes_.insert(stripe);

    // Remove from cache now: new writes to the stripe re-enter cleanly.
    dirty_blocks_ -= entry.dirty_count;
    lru_.erase(entry.lru_it);
    cache_.erase(it);
  }

  if (works.empty() && !recon_pinned.empty()) {
    // Everything in this run is pinned by in-flight recons. Park the retry
    // on the recon-drain hook instead of completing now: a synchronous
    // completion would let FlushBuffers re-pick the same stripes in a
    // zero-time loop that never lets the recon reads land.
    recon_waiters_.push_back([this, pinned = std::move(recon_pinned),
                              done = std::move(done)]() mutable {
      FlushStripeRun(std::move(pinned), std::move(done));
    });
    return;
  }

  // Stage 2 (after the reads): compute parity, write dirty data + parity
  // with per-child merging of contiguous stripes. The write join unpins
  // the run's stripes and reports the flush done.
  auto write_back = [this, done = std::move(done)](
                        const Status&, std::vector<StripeWork> filled) mutable {
    // child -> list of (child_offset, pattern, tag)
    struct PendingWrite {
      uint64_t offset;
      uint64_t pattern;
      WriteTag tag;
    };
    std::vector<std::vector<PendingWrite>> per_child(static_cast<size_t>(n_));
    for (StripeWork& work : filled) {
      if (work.recon_slot >= 0) {
        // recon_acc = old parity XOR every other data slot's old value =
        // the failed slot's old value; the new parity now covers it.
        work.patterns[static_cast<size_t>(work.recon_slot)] = work.recon_acc;
      }
      cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / kKiB) *
                  static_cast<SimTime>(k_));
      const uint64_t parity = XorParity(work.patterns);
      for (int slot = 0; slot < k_; ++slot) {
        if (!work.dirty[static_cast<size_t>(slot)]) {
          continue;
        }
        const int child = geometry_.DataDrive(work.stripe, slot);
        stats_.flushed_data_blocks++;
        if (!ChildWritable(child)) {
          stats_.degraded_writes++;  // parity alone carries this block
          continue;
        }
        per_child[static_cast<size_t>(child)].push_back(
            PendingWrite{work.stripe, work.patterns[static_cast<size_t>(slot)],
                         WriteTag::kData});
      }
      const int pchild = geometry_.ParityDrive(work.stripe);
      stats_.flushed_parity_blocks++;
      if (ChildWritable(pchild)) {
        per_child[static_cast<size_t>(pchild)].push_back(
            PendingWrite{work.stripe, parity, WriteTag::kParity});
      } else {
        stats_.degraded_writes++;
      }
    }

    auto write_join = MakeJoin(
        std::move(filled),
        [this, done = std::move(done)](const Status&,
                                       const std::vector<StripeWork>& flushed) {
          for (const StripeWork& work : flushed) {
            flushing_stripes_.erase(work.stripe);
          }
          done();
        });
    for (int child = 0; child < n_; ++child) {
      auto& writes = per_child[static_cast<size_t>(child)];
      if (writes.empty()) {
        continue;
      }
      std::sort(writes.begin(), writes.end(),
                [](const PendingWrite& a, const PendingWrite& b) {
                  return a.offset < b.offset;
                });
      size_t i = 0;
      while (i < writes.size()) {
        size_t j = i + 1;
        if (config_.block_layer_merge) {
          while (j < writes.size() &&
                 writes[j].offset == writes[j - 1].offset + 1 &&
                 writes[j].tag == writes[i].tag) {
            j++;
          }
        }
        std::vector<uint64_t> patterns;
        patterns.reserve(j - i);
        for (size_t w = i; w < j; ++w) {
          patterns.push_back(writes[w].pattern);
        }
        write_join->Add();
        ChildWrite(child, writes[i].offset, std::move(patterns), writes[i].tag,
                   [this, write_join, child](const Status& status) {
                     if (!status.ok()) {
                       if (status.code() == ErrorCode::kUnavailable) {
                         // Lost mid-flight: the data stays covered by the
                         // surviving children's parity.
                         OnChildUnavailable(child);
                       }
                       BIZA_LOG_ERROR("mdraid child write failed: %s",
                                      status.ToString().c_str());
                     }
                     write_join->Done();
                   });
        i = j;
      }
    }
    write_join->Done();  // the dispatch guard
  };

  // Children may complete reads synchronously, so the work list and the
  // stage-2 continuation are in place before the first read is issued.
  auto read_join = MakeJoin(std::move(works), std::move(write_back));
  for (const NeededRead& need : reads) {
    read_join->Add();
    stats_.rmw_read_blocks++;
    ChildRead(need.child, need.stripe, 1,
              [this, read_join, need](const Status& status,
                                      std::vector<uint64_t> patterns) {
                if (status.ok() && !patterns.empty()) {
                  StripeWork& work = read_join->data[need.work_index];
                  if (need.fill) {
                    work.patterns[static_cast<size_t>(need.slot)] = patterns[0];
                  }
                  if (need.fold) {
                    work.recon_acc ^= patterns[0];
                  }
                } else {
                  if (status.code() == ErrorCode::kUnavailable) {
                    OnChildUnavailable(need.child);
                  }
                  BIZA_LOG_ERROR("mdraid reconstruct-read failed: %s",
                                 status.ToString().c_str());
                }
                read_join->Done();
              });
  }
  read_join->Done();  // the dispatch guard
}

void Mdraid::SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  if (front_.AdmitRead(lbn, nblocks, cb)) {
    ReadBody(lbn, nblocks, std::move(cb));
  }
}

void Mdraid::ReadBody(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  cpu_.Charge(kCpuCosts.request_overhead_ns);
  // Legs: child reads, degraded reconstructions and mitigated reads.
  auto join = MakeReadJoin(nblocks, std::move(cb));

  for (uint64_t i = 0; i < nblocks; ++i) {
    const uint64_t target = lbn + i;
    const uint64_t stripe = StripeOf(target);
    const int slot = SlotOf(target);
    auto it = cache_.find(stripe);
    if (it != cache_.end() && it->second.dirty[static_cast<size_t>(slot)]) {
      join->data[i] = it->second.patterns[static_cast<size_t>(slot)];
      continue;
    }
    const int child = geometry_.DataDrive(stripe, slot);
    if (!child_failed_[static_cast<size_t>(child)]) {
      join->Add();
      const uint64_t out_at = i;
      // Gray-failure mitigation (DESIGN.md §6): a suspect or gray child's
      // block is raced against, or rebuilt from, the stripe's survivors.
      if (MitigateRead(sim_, health_, child, &stats_.mitigation, [&] {
            auto direct = [this, child, stripe](ReadLegs::Done done) {
              ChildRead(child, stripe, 1,
                        [done = std::move(done)](const Status& s,
                                                 std::vector<uint64_t> p) {
                          done(s, p.empty() ? 0 : p[0]);
                        });
            };
            auto deliver = BlockLeg(join, out_at);
            return ReadLegs{
                .can_reconstruct =
                    [this, stripe] { return CanReconstruct(stripe); },
                .direct = direct,
                .reconstruct =
                    [this, stripe, child](ReadLegs::Done done) {
                      ReconstructBlock(stripe, child, std::move(done));
                    },
                .deliver = deliver,
                .fallback = [direct, deliver] { direct(deliver); },
                .redrive =
                    [this, child, target, leg = RunLeg(join, out_at)] {
                      // Re-dispatched through ReadBody, which re-decides
                      // the block's path.
                      OnChildUnavailable(child);
                      ReadBody(target, 1, leg);
                    },
            };
          })) {
        continue;
      }
      ChildRead(child, stripe, 1,
                [this, leg = RunLeg(join, out_at), child, target](
                    const Status& status, std::vector<uint64_t> patterns) {
                  if (status.code() == ErrorCode::kUnavailable) {
                    // The child died under this read: flag it and
                    // re-dispatch the block through the degraded path below.
                    OnChildUnavailable(child);
                    ReadBody(target, 1, leg);
                    return;
                  }
                  leg(status, std::move(patterns));
                });
      continue;
    }
    // Degraded read: reconstruct from the survivors (k-1 data + parity).
    stats_.degraded_reads++;
    cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / kKiB) *
                static_cast<SimTime>(k_));
    int failed = 0;
    for (int c = 0; c < n_; ++c) {
      if (child_failed_[static_cast<size_t>(c)]) {
        failed++;
      }
    }
    if (failed > 1) {
      // RAID 5 survives one failure; a second makes the block unrecoverable.
      join->Fail(DataLossError("mdraid: doubly degraded read"));
      continue;
    }
    join->Add();
    auto recon = MakeJoin(uint64_t{0}, BlockLeg(join, i));
    for (int other = 0; other < n_; ++other) {
      if (other == child || child_failed_[static_cast<size_t>(other)]) {
        continue;
      }
      recon->Add();
      ChildRead(other, stripe, 1,
                [this, recon, other](const Status& status,
                                     std::vector<uint64_t> patterns) {
                  if (status.ok() && !patterns.empty()) {
                    recon->data ^= patterns[0];
                  } else {
                    if (status.code() == ErrorCode::kUnavailable) {
                      OnChildUnavailable(other);
                    }
                    recon->Fail(status.ok() ? DataLossError("short recon read")
                                            : status);
                  }
                  recon->Done();
                });
    }
    recon->Done();
  }
  join->Done();  // the dispatch guard
}

void Mdraid::FlushBuffers(std::function<void()> done) {
  if (dirty_blocks_ == 0) {
    done();
    return;
  }
  FlushLruBatch([this, done = std::move(done)]() { FlushBuffers(done); });
}

// ---------------------------------------------------------------------------
// Fault plane: auto-detection, bounded retries, online rebuild
// ---------------------------------------------------------------------------

void Mdraid::ChildRead(
    int child, uint64_t offset, uint64_t nblocks,
    std::function<void(const Status&, std::vector<uint64_t>)> cb) {
  IssueWithRetry(
      sim_, &stats_.read_retries,
      [this, child, offset, nblocks](auto on_complete) {
        children_[static_cast<size_t>(child)]->SubmitRead(
            offset, nblocks, std::move(on_complete));
      },
      // Feeds the detector the full request latency, retries included — a
      // child that only answers after backoff IS slow from the array's view.
      [this, child, health = health_, submitted = sim_->Now(),
       cb = std::move(cb)](const Status& status,
                           std::vector<uint64_t> patterns) {
        if (health != nullptr) {
          health->RecordLatency(child, DeviceHealthMonitor::Kind::kRead, -1,
                                sim_->Now() - submitted, sim_->Now());
        }
        cb(status, std::move(patterns));
      });
}

void Mdraid::ChildWrite(int child, uint64_t offset,
                        std::vector<uint64_t> patterns, WriteTag tag,
                        WriteCallback cb) {
  for (uint64_t s = offset; s < offset + patterns.size(); ++s) {
    written_stripes_.Mut(s / 64) |= uint64_t{1} << (s % 64);
  }
  IssueWithRetry(
      sim_, &stats_.write_retries,
      [this, child, offset, patterns = std::move(patterns),
       tag](auto on_complete) mutable {
        children_[static_cast<size_t>(child)]->SubmitWrite(
            offset, std::move(patterns), std::move(on_complete), tag);
      },
      [this, child, health = health_, submitted = sim_->Now(),
       cb = std::move(cb)](const Status& status) {
        if (health != nullptr) {
          health->RecordLatency(child, DeviceHealthMonitor::Kind::kWrite, -1,
                                sim_->Now() - submitted, sim_->Now());
        }
        cb(status);
      });
}

Status Mdraid::RebuildChild(int child, BlockTarget* replacement) {
  if (Status status = rebuild_.CanStart(child); !status.ok()) {
    return status;
  }
  if (replacement == nullptr ||
      replacement->capacity_blocks() < stripes_total_) {
    return InvalidArgumentError("mdraid: replace: incompatible replacement");
  }
  children_[static_cast<size_t>(child)] = replacement;
  rebuild_.Start(child, health_);
  return OkStatus();
}

// The first pass visits every stripe. Deferred stripes were dirty in cache
// when first visited: drain the write-back cache once (their flushes write
// current data and parity to the now-writable replacement), then
// reconstruct whatever is left.
void Mdraid::RebuildRescan(std::function<void(RebuildSweep::Keys)> next) {
  std::vector<uint64_t> stripes = std::move(rebuild_deferred_);
  rebuild_deferred_.clear();
  if (rebuild_.stats().passes == 0) {
    stripes.clear();
    for (uint64_t w = written_stripes_.SkipUnallocated(0);
         w < written_stripes_.size();
         w = written_stripes_.SkipUnallocated(w + 1)) {
      for (uint64_t bits = written_stripes_.Get(w); bits != 0;
           bits &= bits - 1) {
        stripes.push_back(w * 64 +
                          static_cast<uint64_t>(std::countr_zero(bits)));
      }
    }
    next(std::move(stripes));
    return;
  }
  if (stripes.empty()) {
    next({});
    return;
  }
  FlushBuffers([next = std::move(next), stripes = std::move(stripes)]() {
    next(stripes);
  });
}

bool Mdraid::RebuildTake(uint64_t stripe) {
  // Only the first pass defers: the second runs after the cache flush.
  auto it = cache_.find(stripe);
  if (rebuild_.stats().passes == 0 && it != cache_.end() &&
      it->second.dirty_count > 0) {
    rebuild_deferred_.push_back(stripe);
    return false;
  }
  return true;
}

void Mdraid::RebuildMigrate(RebuildSweep::Keys stripes,
                            const RebuildSweep::Token& token) {
  const int child = rebuild_.stats().device;
  for (uint64_t stripe : stripes) {
    // The replacement's block at offset `stripe` — data or parity role
    // alike — is the XOR of the other n-1 children's blocks there.
    auto recon = MakeJoin(
        uint64_t{0}, [this, stripe, token, child](const Status&, uint64_t acc) {
          rebuild_.CountMigrated(1);
          ChildWrite(child, stripe, {acc}, WriteTag::kData,
                     [this, token, child](const Status& s) {
                       if (s.code() == ErrorCode::kUnavailable) {
                         OnChildUnavailable(child);
                       }
                       if (!s.ok()) {
                         BIZA_LOG_ERROR("mdraid rebuild write failed: %s",
                                        s.ToString().c_str());
                       }
                     });
        });
    for (int other = 0; other < n_; ++other) {
      if (other == child || child_failed_[static_cast<size_t>(other)]) {
        continue;
      }
      recon->Add();
      ChildRead(other, stripe, 1,
                [recon](const Status& s, std::vector<uint64_t> pats) {
                  if (s.ok() && !pats.empty()) {
                    recon->data ^= pats[0];
                  } else {
                    BIZA_LOG_ERROR("mdraid rebuild read failed: %s",
                                   s.ToString().c_str());
                  }
                  recon->Done();
                });
    }
    recon->Done();  // the dispatch guard
  }
}

}  // namespace biza
