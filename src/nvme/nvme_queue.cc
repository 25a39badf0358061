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
}

uint64_t NvmeQueuePair::inflight() const {
  uint64_t parked = 0;
  for (const auto& q : overflow_) {
    parked += q.size();
  }
  return host_inflight_ + parked;
}

void NvmeQueuePair::Submit(InlineCallback fn) {
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
    auto batch = std::make_shared<Batch>();
    open_batch_ = batch;
    open_deliver_at_ = submitted + db;
    stats_.doorbells++;
    sim_->ScheduleAt(open_deliver_at_,
                     [this, batch = std::move(batch)]() mutable {
                       RingDoorbell(batch.get());
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
  cq_.push_back(Cqe{ready, cq_seq_++, cur_sq_, std::move(fn)});
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
  // Partition ready CQEs out of the pending list in place: `fire` is handed
  // to the host message below, survivors compact to the front of cq_ in
  // their original posting order.
  std::vector<Cqe> fire;
  fire.reserve(cq_.size());
  size_t keep = 0;
  for (size_t i = 0; i < cq_.size(); ++i) {
    if (cq_[i].ready <= now) {
      fire.push_back(std::move(cq_[i]));
    } else {
      if (keep != i) {
        cq_[keep] = std::move(cq_[i]);
      }
      keep++;
    }
  }
  cq_.resize(keep);
  if (!cq_.empty()) {
    SimTime min_ready = cq_.front().ready;
    for (const auto& cqe : cq_) {
      min_ready = std::min(min_ready, cqe.ready);
    }
    ArmInterrupt(cq_.size() >= config_.irq_threshold
                     ? min_ready
                     : min_ready + config_.irq_timer_ns);
  }
  if (fire.empty()) {
    return;
  }
  // Deliver in completion order (ready time, then CQ posting order). CQEs
  // mostly post in ready order already, so check before paying the sort.
  const auto by_ready = [](const Cqe& a, const Cqe& b) {
    return a.ready != b.ready ? a.ready < b.ready : a.seq < b.seq;
  };
  if (!std::is_sorted(fire.begin(), fire.end(), by_ready)) {
    std::sort(fire.begin(), fire.end(), by_ready);
  }
  stats_.interrupts++;
  stats_.coalesced_cqes += fire.size() - 1;
  // The interrupt drains the whole CQ batch inline: free the SQ slots,
  // refill from the software queues, then run the completion callbacks in
  // order.
  for (auto& cqe : fire) {
    assert(inflight_[cqe.sq] > 0);
    inflight_[cqe.sq]--;
    assert(host_inflight_ > 0);
    host_inflight_--;
  }
  DrainOverflow();
  for (auto& cqe : fire) {
    cqe.fn.ConsumeInvoke();
  }
}

}  // namespace biza
