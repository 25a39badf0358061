#include "src/workload/driver.h"

#include <algorithm>
#include <memory>

#include "src/common/logging.h"

namespace biza {

Driver::Driver(Simulator* sim, BlockTarget* target,
               WorkloadGenerator* generator, int iodepth, bool verify_reads)
    : sim_(sim),
      target_(target),
      generator_(generator),
      iodepth_(iodepth),
      verify_reads_(verify_reads) {}

bool Driver::ShouldStop() const {
  // Open-loop: the arrival process stops generating at the deadline, but
  // arrivals already queued still get issued (they arrived in the window).
  const uint64_t generated = arrival_interval_ns_ > 0 ? arrivals_ : issued_;
  return generated >= max_requests_ || sim_->Now() >= deadline_;
}

std::vector<uint64_t> Driver::TakePatternBuffer(uint64_t nblocks) {
  std::vector<uint64_t> buffer;
  if (!spare_patterns_.empty()) {
    buffer = std::move(spare_patterns_.back());
    spare_patterns_.pop_back();
  }
  buffer.resize(nblocks);
  return buffer;
}

void Driver::RecyclePatternBuffer(std::vector<uint64_t>&& buffer) {
  // Cap the pool at iodepth scale; beyond that buffers are just ballast.
  constexpr size_t kMaxSpare = 64;
  if (buffer.capacity() > 0 && spare_patterns_.size() < kMaxSpare) {
    spare_patterns_.push_back(std::move(buffer));
  }
}

void Driver::IssueLoop() {
  if (arrival_interval_ns_ > 0) {
    // Open-loop: arrivals are paced by the timer; completions only drain
    // the deferred-arrival queue.
    PumpArrivals();
    return;
  }
  // Re-entrancy guard: a target may complete a request synchronously (e.g.
  // an allocation failure), which would otherwise recurse through the
  // completion callback for every remaining request and blow the stack.
  if (in_issue_loop_) {
    return;
  }
  in_issue_loop_ = true;
  while (inflight_ < iodepth_ && !ShouldStop()) {
    IssueOne(sim_->Now());
  }
  in_issue_loop_ = false;
}

void Driver::PumpArrivals() {
  // Same re-entrancy hazard as IssueLoop: a synchronous completion would
  // recurse through here for every queued arrival.
  if (in_issue_loop_) {
    return;
  }
  in_issue_loop_ = true;
  while (inflight_ < iodepth_ && !pending_arrivals_.empty()) {
    const SimTime intended = pending_arrivals_.front();
    pending_arrivals_.pop_front();
    // Coordinated-omission fix: the wait for an iodepth slot is part of the
    // request's latency (measured from `intended` in IssueOne) and is also
    // reported separately as queue delay.
    report_.queue_delay.Record(sim_->Now() - intended);
    IssueOne(intended);
  }
  in_issue_loop_ = false;
}

void Driver::IssueOne(SimTime intended) {
  BlockRequest req = generator_->Next();
  const uint64_t cap = target_->capacity_blocks();
  // Clamp generator footprints into the target's exposed capacity.
  if (req.nblocks > cap) {
    req.nblocks = cap;
  }
  if (req.offset_blocks + req.nblocks > cap) {
    req.offset_blocks = req.offset_blocks % (cap - req.nblocks + 1);
  }
  issued_++;
  inflight_++;
  epoch_++;
  const SimTime submit = sim_->Now();
  if (req.is_write) {
    std::vector<uint64_t> patterns = TakePatternBuffer(req.nblocks);
    for (uint64_t i = 0; i < req.nblocks; ++i) {
      patterns[i] = PatternFor(req.offset_blocks + i, epoch_);
      if (verify_reads_) {
        expected_[req.offset_blocks + i] = patterns[i];
      }
    }
    const uint64_t bytes = req.nblocks * kBlockSize;
    const uint64_t offset = req.offset_blocks;
    target_->SubmitWrite(
        offset, std::move(patterns),
        [this, submit, intended, bytes, offset](const Status& status) {
          inflight_--;
          if (status.ok()) {
            report_.bytes_written += bytes;
          }
          report_.requests_completed++;
          report_.write_latency.Record(sim_->Now() - intended);
          if (tracer_ != nullptr && tracer_->Armed(submit)) {
            tracer_->Record(Tracer::kLaneDriver, span_write_, submit,
                            sim_->Now(), key_offset_,
                            static_cast<int64_t>(offset), key_blocks_,
                            static_cast<int64_t>(bytes / kBlockSize));
          }
          last_completion_ = sim_->Now();
          IssueLoop();
        });
  } else {
    const uint64_t offset = req.offset_blocks;
    const uint64_t bytes = req.nblocks * kBlockSize;
    target_->SubmitRead(
        offset, req.nblocks,
        [this, submit, intended, bytes, offset](const Status& status,
                                                std::vector<uint64_t> patterns) {
          inflight_--;
          if (status.ok()) {
            report_.bytes_read += bytes;
            if (verify_reads_) {
              for (size_t i = 0; i < patterns.size(); ++i) {
                auto it = expected_.find(offset + i);
                if (it != expected_.end() && it->second != patterns[i]) {
                  report_.verify_failures++;
                }
              }
            }
          }
          RecyclePatternBuffer(std::move(patterns));
          report_.requests_completed++;
          report_.read_latency.Record(sim_->Now() - intended);
          if (tracer_ != nullptr && tracer_->Armed(submit)) {
            tracer_->Record(Tracer::kLaneDriver, span_read_, submit,
                            sim_->Now(), key_offset_,
                            static_cast<int64_t>(offset), key_blocks_,
                            static_cast<int64_t>(bytes / kBlockSize));
          }
          last_completion_ = sim_->Now();
          IssueLoop();
        });
  }
}

DriverReport Driver::Run(uint64_t max_requests, SimTime max_duration) {
  report_ = DriverReport{};
  max_requests_ = max_requests;
  start_ = sim_->Now();
  deadline_ = start_ + max_duration;
  last_completion_ = start_;
  arrivals_ = 0;
  pending_arrivals_.clear();
  if (arrival_interval_ns_ > 0) {
    // Open-loop pacing: one arrival per interval. Arrivals that find the
    // iodepth cap full queue with their intended arrival time and issue as
    // completions free slots (PumpArrivals); their latency is measured from
    // the intended arrival, never from the delayed issue. The tick holds
    // only a weak self-reference (each scheduled event owns a strong copy),
    // so the chain has no ownership cycle and the function dies with the
    // last pending event or this scope, whichever is later.
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [this, wtick = std::weak_ptr<std::function<void()>>(tick)]() {
      if (ShouldStop()) {
        return;
      }
      arrivals_++;
      if (inflight_ >= iodepth_) {
        report_.arrivals_deferred++;
      }
      pending_arrivals_.push_back(sim_->Now());
      PumpArrivals();
      if (auto self = wtick.lock()) {
        sim_->Schedule(arrival_interval_ns_, [self]() { (*self)(); });
      }
    };
    (*tick)();
  } else {
    IssueLoop();
  }
  sim_->RunUntilIdle();
  report_.stranded_requests =
      static_cast<uint64_t>(inflight_) + pending_arrivals_.size();
  report_.elapsed_ns =
      last_completion_ > start_ ? last_completion_ - start_ : 1;
  return report_;
}

void Driver::Fill(Simulator* sim, BlockTarget* target, uint64_t blocks,
                  uint64_t request_blocks, uint64_t epoch) {
  struct FillState {
    uint64_t next = 0;
    int inflight = 0;
  };
  auto state = std::make_shared<FillState>();
  const uint64_t cap = std::min(blocks, target->capacity_blocks());
  // Keep a modest depth so the prefill finishes quickly without swamping
  // allocation paths. A small self-owning pump object avoids the lifetime
  // hazards of a self-referencing lambda.
  class Pump {
   public:
    Pump(Simulator* sim, BlockTarget* target,
         std::shared_ptr<FillState> state, uint64_t cap,
         uint64_t request_blocks, uint64_t epoch)
        : sim_(sim),
          target_(target),
          state_(std::move(state)),
          cap_(cap),
          request_blocks_(request_blocks),
          epoch_(epoch) {}
    void Go(const std::shared_ptr<Pump>& self) {
      while (state_->inflight < 8 && state_->next < cap_) {
        const uint64_t offset = state_->next;
        const uint64_t n = std::min(request_blocks_, cap_ - offset);
        state_->next += n;
        std::vector<uint64_t> patterns(n);
        for (uint64_t i = 0; i < n; ++i) {
          patterns[i] = PatternFor(offset + i, epoch_);
        }
        state_->inflight++;
        target_->SubmitWrite(offset, std::move(patterns),
                             [this, self](const Status& status) {
                               if (!status.ok()) {
                                 BIZA_LOG_WARN("fill write failed: %s",
                                               status.ToString().c_str());
                               }
                               state_->inflight--;
                               Go(self);
                             });
      }
    }

   private:
    Simulator* sim_;
    BlockTarget* target_;
    std::shared_ptr<FillState> state_;
    uint64_t cap_;
    uint64_t request_blocks_;
    uint64_t epoch_;
  };
  auto pump_obj =
      std::make_shared<Pump>(sim, target, state, cap, request_blocks, epoch);
  pump_obj->Go(pump_obj);
  sim->RunUntilIdle();
}

ZonedSeqDriver::ZonedSeqDriver(Simulator* sim, ZonedTarget* target,
                               uint64_t request_blocks, int parallel_zones)
    : sim_(sim), target_(target), request_blocks_(request_blocks) {
  const int zones = std::min<int>(parallel_zones, target_->max_open_zones());
  cursors_.resize(static_cast<size_t>(std::max(zones, 1)));
  for (size_t i = 0; i < cursors_.size(); ++i) {
    cursors_[i].zone = static_cast<uint32_t>(i);
  }
  next_zone_ = static_cast<uint32_t>(cursors_.size());
}

bool ZonedSeqDriver::ShouldStop() const {
  return issued_ >= max_requests_ || sim_->Now() >= deadline_;
}

void ZonedSeqDriver::PumpZone(size_t index) {
  ZoneCursor& cursor = cursors_[index];
  if (cursor.busy || ShouldStop()) {
    return;
  }
  const uint64_t zone_cap = target_->zone_capacity_blocks();
  if (cursor.offset + request_blocks_ > zone_cap) {
    // Zone exhausted: move to the next one (recycling old zones).
    (void)target_->FinishZone(cursor.zone);
    cursor.zone = next_zone_ % target_->num_zones();
    next_zone_++;
    (void)target_->ResetZone(cursor.zone);
    cursor.offset = 0;
  }
  const uint64_t offset = cursor.offset;
  cursor.offset += request_blocks_;
  cursor.busy = true;
  issued_++;
  inflight_++;
  std::vector<uint64_t> patterns(request_blocks_);
  for (uint64_t i = 0; i < request_blocks_; ++i) {
    patterns[i] = PatternFor(offset + i, issued_);
  }
  const SimTime submit = sim_->Now();
  const uint64_t bytes = request_blocks_ * kBlockSize;
  target_->SubmitZoneWrite(
      cursor.zone, offset, std::move(patterns),
      [this, index, submit, bytes](const Status& status) {
        inflight_--;
        cursors_[index].busy = false;
        if (status.ok()) {
          report_.bytes_written += bytes;
        }
        report_.requests_completed++;
        report_.write_latency.Record(sim_->Now() - submit);
        last_completion_ = sim_->Now();
        // Deferred re-pump: synchronous failures must not recurse.
        sim_->Schedule(0, [this, index]() { PumpZone(index); });
      },
      WriteTag::kData);
}

DriverReport ZonedSeqDriver::Run(uint64_t max_requests, SimTime max_duration) {
  report_ = DriverReport{};
  max_requests_ = max_requests;
  start_ = sim_->Now();
  deadline_ = start_ + max_duration;
  last_completion_ = start_;
  for (size_t i = 0; i < cursors_.size(); ++i) {
    PumpZone(i);
  }
  sim_->RunUntilIdle();
  report_.elapsed_ns =
      last_completion_ > start_ ? last_completion_ - start_ : 1;
  return report_;
}

}  // namespace biza
