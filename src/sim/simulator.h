// Single-threaded discrete-event simulator.
//
// All devices, engines, and workload drivers sharing one experiment share one
// Simulator instance. Virtual time advances only when the event at the head
// of the queue fires; there is no wall-clock dependence, so every experiment
// is deterministic given its seeds. Independent experiments (each with its
// own Simulator) can run concurrently — see src/sim/parallel_runner.h.
//
// Events with equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps callback ordering
// stable across runs and platforms.
//
// Implementation: a 4-ary implicit min-heap over 24-byte {when, seq, slot}
// entries, with callbacks parked in a chunked slab of InlineCallback slots.
// Sift operations move small PODs instead of std::function objects; the slab
// recycles slots through a free list so steady-state scheduling performs no
// allocation; small callback captures live inline in the slot (no per-event
// malloc). Slab chunks never move once allocated, so Schedule() constructs
// the functor directly in its slot and firing invokes it in place — no
// callback is ever copied or moved after construction. The 4-ary layout
// halves tree depth versus a binary heap, trading slightly more comparisons
// per level for many fewer cache-missing levels — the standard choice for
// event queues of this size.
#ifndef BIZA_SRC_SIM_SIMULATOR_H_
#define BIZA_SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/units.h"
#include "src/sim/callback.h"

namespace biza {

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay_ns.
  template <typename F>
  void Schedule(SimTime delay_ns, F&& fn) {
    ScheduleAt(now_ + delay_ns, std::forward<F>(fn));
  }

  // Schedules `fn` at an absolute virtual time (must be >= Now()).
  // Defined inline: this is the hottest entry point in the repo and the
  // slot-recycle + sift-up fast path must inline into callers. Accepts any
  // void() callable and constructs it directly in the event slot; a
  // pre-built Callback must be passed as an rvalue.
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    const uint32_t slot = AcquireSlot();
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "pass a Simulator::Callback by rvalue (std::move it)");
      *SlotPtr(slot) = std::move(fn);
    } else {
      SlotPtr(slot)->Emplace(std::forward<F>(fn));
    }
    heap_.push_back(HeapEntry{when, next_seq_++, slot});
    SiftUp(heap_.size() - 1);
  }

  // Runs events until the queue drains. Returns the final virtual time.
  SimTime RunUntilIdle();

  // Runs events with timestamp <= deadline; leaves later events queued.
  // Virtual time ends at min(deadline, last fired event time is <= deadline);
  // Now() is set to `deadline` on return so subsequent Schedule() calls are
  // relative to the deadline.
  void RunFor(SimTime duration_ns) { RunUntil(now_ + duration_ns); }
  void RunUntil(SimTime deadline);

  // Discards every queued event without firing it — the simulation analogue
  // of a power cut: device completions, timers, and background steps still
  // in flight simply never happen. Callbacks are destroyed (releasing any
  // captured resources) and their slots recycled; Now() is unchanged, so the
  // simulation can continue past the crash (e.g. to run recovery).
  void DropPending();

  // How many times DropPending has run. Components that park work outside
  // the event heap (NVMe queue pairs) compare it to forget what a power cut
  // destroyed the events of.
  uint64_t power_cuts() const { return power_cuts_; }

  size_t pending_events() const { return heap_.size(); }
  uint64_t fired_events() const { return fired_; }

 private:
  static constexpr size_t kArity = 4;

  // Heap entries are deliberately tiny: sift-up/down shuffles these, never
  // the callbacks, which stay put in their slab slot until they fire.
  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  void SiftUp(size_t index) {
    const HeapEntry entry = heap_[index];
    while (index > 0) {
      const size_t parent = (index - 1) / kArity;
      if (!Earlier(entry, heap_[parent])) {
        break;
      }
      heap_[index] = heap_[parent];
      index = parent;
    }
    heap_[index] = entry;
  }

  void SiftDown(size_t index);

  // Removes the heap root, advances virtual time, and invokes the callback
  // in place. The slot returns to the free list only after the callback has
  // run, so a callback that schedules new events (even recursively) can
  // never be relocated or overwritten mid-execution.
  void FireEarliest();

  // Slots live in fixed-size chunks that never move once allocated (unlike
  // a flat vector, which would relocate a currently-executing callback if
  // it scheduled enough events to force a reallocation).
  static constexpr size_t kSlabShift = 8;  // 256 slots per chunk
  static constexpr size_t kSlabSize = size_t{1} << kSlabShift;

  InlineCallback* SlotPtr(uint32_t slot) {
    return &slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
  }

  uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if ((num_slots_ >> kSlabShift) == slabs_.size()) {
      slabs_.emplace_back(new InlineCallback[kSlabSize]);
    }
    return num_slots_++;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t fired_ = 0;
  uint64_t power_cuts_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<InlineCallback[]>> slabs_;
  uint32_t num_slots_ = 0;
  std::vector<uint32_t> free_slots_;
};

// A FIFO resource serving requests at a byte rate, with an optional fixed
// per-request setup cost. Models a controller port, a channel bus, or a die.
//
// Occupy() reserves the resource starting no earlier than `earliest` and
// returns the completion time; the resource is busy until then. This is the
// standard "next free time" queueing shortcut: adequate because requests at
// a stage are served FIFO.
class FifoResource {
 public:
  FifoResource() = default;
  FifoResource(double mb_per_s, SimTime fixed_ns)
      : ns_per_byte_(NsPerByte(mb_per_s)), fixed_ns_(fixed_ns) {}

  // Reserves the resource for `bytes` starting at max(earliest, free time).
  // Returns the completion time.
  SimTime Occupy(SimTime earliest, uint64_t bytes) {
    const SimTime start = earliest > free_at_ ? earliest : free_at_;
    const SimTime service =
        fixed_ns_ + static_cast<SimTime>(static_cast<double>(bytes) * ns_per_byte_);
    free_at_ = start + service;
    busy_ns_ += service;
    return free_at_;
  }

  // Reserves the resource for a fixed duration (e.g. a block erase).
  SimTime OccupyFor(SimTime earliest, SimTime duration) {
    const SimTime start = earliest > free_at_ ? earliest : free_at_;
    free_at_ = start + duration;
    busy_ns_ += duration;
    return free_at_;
  }

  SimTime free_at() const { return free_at_; }
  SimTime busy_ns() const { return busy_ns_; }

 private:
  double ns_per_byte_ = 0.0;
  SimTime fixed_ns_ = 0;
  SimTime free_at_ = 0;
  SimTime busy_ns_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_SIM_SIMULATOR_H_
