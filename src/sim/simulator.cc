#include "src/sim/simulator.h"

#include <cassert>

namespace biza {

void Simulator::SiftDown(size_t index) {
  const size_t size = heap_.size();
  const HeapEntry entry = heap_[index];
  for (;;) {
    const size_t first_child = kArity * index + 1;
    if (first_child >= size) {
      break;
    }
    const size_t end = first_child + kArity < size ? first_child + kArity : size;
    size_t best = first_child;
    for (size_t child = first_child + 1; child < end; ++child) {
      if (Earlier(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Earlier(heap_[best], entry)) {
      break;
    }
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = entry;
}

void Simulator::FireEarliest() {
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
  now_ = top.when;
  fired_++;
  // Slab chunks are address-stable, so the callback runs in place; its slot
  // is withheld from the free list until it returns, so events it schedules
  // cannot overwrite it.
  SlotPtr(top.slot)->ConsumeInvoke();
  free_slots_.push_back(top.slot);
}

SimTime Simulator::RunUntilIdle() {
  while (!heap_.empty()) {
    FireEarliest();
  }
  return now_;
}

void Simulator::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    FireEarliest();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::DropPending() {
  power_cuts_++;
  for (const HeapEntry& entry : heap_) {
    // Destroy (never invoke) the parked callback, then recycle its slot.
    SlotPtr(entry.slot)->Reset();
    free_slots_.push_back(entry.slot);
  }
  heap_.clear();
}

}  // namespace biza
