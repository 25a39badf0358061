#include "src/nvme/nvme_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace biza {

NvmeQueuePair::NvmeQueuePair(Simulator* sim, const NvmeQueueConfig& config,
                             SimTime doorbell_ns)
    : sim_(sim), config_(config), doorbell_ns_(doorbell_ns) {
  if (config_.num_queues == 0) {
    config_.num_queues = 1;
  }
  if (config_.queue_depth == 0) {
    config_.queue_depth = 1;
  }
  if (config_.irq_threshold == 0) {
    config_.irq_threshold = 1;
  }
  inflight_.assign(config_.num_queues, 0);
  overflow_.resize(config_.num_queues);
  arb_lists_.resize(config_.num_queues);
  power_cuts_ = sim_->power_cuts();
}

uint64_t NvmeQueuePair::inflight() const {
  if (sim_->power_cuts() != power_cuts_) {
    return 0;  // the cut destroyed them; Submit forgets them for good
  }
  uint64_t parked = 0;
  for (const auto& q : overflow_) {
    parked += q.size();
  }
  return host_inflight_ + parked;
}

void NvmeQueuePair::ForgetCommandsLostToPowerCut() {
  power_cuts_ = sim_->power_cuts();
  // Take every parked callback out before destroying any: a destructor that
  // submits again must find the pair already reset.
  std::vector<InlineCallback> lost;
  free_batches_.clear();
  for (Batch& batch : batches_) {
    for (Sqe& sqe : batch.entries) {
      lost.push_back(std::move(sqe.fn));
    }
    batch.entries.clear();
    free_batches_.push_back(&batch);
  }
  open_batch_ = nullptr;
  cq_.clear();
  cq_free_.clear();
  for (uint32_t slot = 0; slot < cq_slots_.size(); ++slot) {
    if (cq_slots_[slot]) {
      lost.push_back(std::move(cq_slots_[slot]));
    }
    cq_free_.push_back(slot);
  }
  for (auto& parked : overflow_) {
    for (InlineCallback& fn : parked) {
      lost.push_back(std::move(fn));
    }
    parked.clear();
  }
  inflight_.assign(config_.num_queues, 0);
  host_inflight_ = 0;
  irq_at_ = kNotArmed;
}  // `lost` destroys the callbacks here, none of them invoked

void NvmeQueuePair::Submit(InlineCallback fn) {
  if (sim_->power_cuts() != power_cuts_) {
    ForgetCommandsLostToPowerCut();
  }
  stats_.commands++;
  const uint32_t sq = static_cast<uint32_t>(sq_rr_++ % config_.num_queues);
  if (inflight_[sq] >= config_.queue_depth) {
    // Queue-depth backpressure: the command waits in host software until a
    // completion frees an SQ slot (its doorbell clock starts then).
    stats_.qd_stalls++;
    overflow_[sq].push_back(std::move(fn));
    return;
  }
  inflight_[sq]++;
  host_inflight_++;
  Enqueue(sq, sim_->Now(), std::move(fn));
}

void NvmeQueuePair::Enqueue(uint32_t sq, SimTime submitted, InlineCallback fn) {
  const SimTime db = doorbell_ns_;
  if (open_batch_ == nullptr || open_deliver_at_ < submitted + db) {
    // Ring a fresh doorbell. The admission rule above means the previous
    // ring either fired already or fires too soon for this command to make
    // it — and conversely, every command this batch holds was posted at
    // least one (non-zero) doorbell delay before the ring, so the ring event
    // is provably still pending when the host appends.
    if (free_batches_.empty()) {
      free_batches_.push_back(&batches_.emplace_back());
    }
    Batch* batch = free_batches_.back();
    free_batches_.pop_back();
    open_batch_ = batch;
    open_deliver_at_ = submitted + db;
    stats_.doorbells++;
    sim_->ScheduleAt(open_deliver_at_, [this, batch] {
      RingDoorbell(batch);
      // Every SQE ran: give the batch (and its vector's capacity) back.
      batch->entries.clear();
      free_batches_.push_back(batch);
      if (open_batch_ == batch) {
        open_batch_ = nullptr;
      }
    });
  } else {
    stats_.coalesced_commands++;  // rode an already-scheduled ring event
  }
  open_batch_->entries.push_back(Sqe{submitted, sq, std::move(fn)});
  if (open_batch_->entries.size() > stats_.max_batch) {
    stats_.max_batch = open_batch_->entries.size();
  }
}

void NvmeQueuePair::DrainOverflow() {
  const SimTime now = sim_->Now();
  for (uint32_t sq = 0; sq < config_.num_queues; ++sq) {
    auto& parked = overflow_[sq];
    while (!parked.empty() && inflight_[sq] < config_.queue_depth) {
      inflight_[sq]++;
      host_inflight_++;
      Enqueue(sq, now, std::move(parked.front()));
      parked.pop_front();
    }
  }
}

void NvmeQueuePair::RingDoorbell(Batch* batch) {
  auto& entries = batch->entries;
  if (entries.size() == 1) {
    // Sparse-submission fast path (one SQE per ring): the bucketing pass
    // below would visit every queue to fetch one command. Leaves exactly
    // the state the general path would — fetch skew of one slot, rotation
    // advanced past the fetched SQ.
    Sqe& sqe = entries[0];
    fetch_skew_ = kFetchNs;
    cur_sq_ = sqe.sq;
    arb_sq_ = (sqe.sq + 1) % config_.num_queues;
    sqe.fn.ConsumeInvoke();
    fetch_skew_ = 0;
    return;
  }
  // Bucket the batch by SQ (submission order preserved within each), then
  // arbitrate round-robin in bursts, continuing the rotation across rings.
  for (auto& list : arb_lists_) {
    list.clear();
  }
  for (uint32_t i = 0; i < entries.size(); ++i) {
    arb_lists_[entries[i].sq].push_back(i);
  }
  arb_cursor_.assign(config_.num_queues, 0);
  std::vector<uint32_t>& cursor = arb_cursor_;
  size_t done = 0;
  uint64_t fetched = 0;
  while (done < entries.size()) {
    auto& list = arb_lists_[arb_sq_];
    uint32_t burst = 0;
    while (burst < kArbBurst && cursor[arb_sq_] < list.size()) {
      Sqe& sqe = entries[list[cursor[arb_sq_]++]];
      // Serial fetch/decode: command i in arbitration order arrives i
      // fetch slots after the ring — the queue-derived dispatch skew.
      fetch_skew_ = static_cast<SimTime>(++fetched) * kFetchNs;
      cur_sq_ = sqe.sq;
      sqe.fn.ConsumeInvoke();  // execute the device handler at ring time
      burst++;
      done++;
    }
    arb_sq_ = (arb_sq_ + 1) % config_.num_queues;
  }
  fetch_skew_ = 0;
}

void NvmeQueuePair::Complete(SimTime when, InlineCallback fn) {
  const SimTime ready = when + fetch_skew_;
  uint32_t slot;
  if (cq_free_.empty()) {
    slot = static_cast<uint32_t>(cq_slots_.size());
    cq_slots_.push_back(std::move(fn));
  } else {
    slot = cq_free_.back();
    cq_free_.pop_back();
    cq_slots_[slot] = std::move(fn);
  }
  cq_.push_back(CqKey{ready, cq_seq_++, slot, cur_sq_});
  std::push_heap(cq_.begin(), cq_.end(), Later);
  ArmInterrupt(cq_.size() >= config_.irq_threshold
                   ? ready
                   : ready + config_.irq_timer_ns);
}

void NvmeQueuePair::ArmInterrupt(SimTime want) {
  const SimTime now = sim_->Now();
  if (want < now) {
    want = now;
  }
  if (irq_at_ <= want && irq_at_ != kNotArmed) {
    return;  // an earlier interrupt is already on the heap
  }
  irq_at_ = want;
  sim_->ScheduleAt(want, [this]() { FireInterrupt(); });
}

void NvmeQueuePair::FireInterrupt() {
  // Superseded ring: an earlier event already drained and re-armed later
  // (or drained everything). Interrupt events cannot be cancelled, so
  // stale ones no-op here.
  if (irq_at_ == kNotArmed || sim_->Now() < irq_at_) {
    return;
  }
  irq_at_ = kNotArmed;
  const SimTime now = sim_->Now();
  // Pop the ready CQEs; they leave the heap in delivery order (ready time,
  // then CQ posting order).
  fire_.clear();
  while (!cq_.empty() && cq_.front().ready <= now) {
    std::pop_heap(cq_.begin(), cq_.end(), Later);
    fire_.push_back(cq_.back());
    cq_.pop_back();
  }
  if (!cq_.empty()) {
    const SimTime min_ready = cq_.front().ready;
    ArmInterrupt(cq_.size() >= config_.irq_threshold
                     ? min_ready
                     : min_ready + config_.irq_timer_ns);
  }
  if (fire_.empty()) {
    return;
  }
  stats_.interrupts++;
  stats_.coalesced_cqes += fire_.size() - 1;
  // The interrupt drains the whole CQ batch inline: free the SQ slots,
  // refill from the software queues, then run the completion callbacks in
  // order. Each runs in its parked slot, which is freed only after it
  // returns.
  for (const CqKey& key : fire_) {
    assert(inflight_[key.sq] > 0);
    inflight_[key.sq]--;
    assert(host_inflight_ > 0);
    host_inflight_--;
  }
  DrainOverflow();
  for (const CqKey& key : fire_) {
    cq_slots_[key.slot].ConsumeInvoke();
    cq_free_.push_back(key.slot);
  }
}

}  // namespace biza
