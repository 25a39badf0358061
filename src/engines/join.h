// One fan-in join for every engine (DESIGN.md §4 item 16).
//
// BIZA and each baseline split a block request into legs — member-zone
// writes, parity updates, survivor reads — and join the results. Join
// counts them:
//
//   * The submitter holds a dispatch guard from MakeJoin() until it calls
//     Done() after its dispatch loop, so a leg that completes synchronously
//     cannot fire the join while later legs are still being issued.
//   * Each leg holds one count: Add() before the leg is issued, Done(status)
//     when it lands. A remainder parked until space frees up counts as a
//     leg, released when the remainder completes.
//   * The first non-OK status wins; Fail() records one without a count.
//   * The continuation runs exactly once, when the guard and the last leg
//     have both been released.
//
// The continuation is destroyed with the join, that is with the last leg
// closure, so whatever it captures lives exactly as long as the legs do.
//
// A join may carry `data` that its legs fill in: a read's output blocks, a
// reconstruction's accumulator. The continuation then runs as
// then(status, std::move(data)); without data it runs as then(status).
#ifndef BIZA_SRC_ENGINES_JOIN_H_
#define BIZA_SRC_ENGINES_JOIN_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace biza {

struct NoJoinData {};

template <typename Then, typename Data = NoJoinData>
class Join {
 public:
  Join(Data initial, Then then)
      : data(std::move(initial)), then_(std::move(then)) {}

  // What the legs gather; handed to the continuation when it fires.
  Data data;

  // Takes one count per leg about to be issued.
  void Add(int legs = 1) { pending_ += legs; }

  // Records a failure without releasing a count.
  void Fail(const Status& status) {
    if (!status.ok() && error_.ok()) {
      error_ = status;
    }
  }

  // Releases one count: a leg's, or the dispatch guard.
  void Done() {
    assert(pending_ > 0);
    if (--pending_ != 0) {
      return;
    }
    if constexpr (std::is_same_v<Data, NoJoinData>) {
      then_(error_);
    } else {
      then_(error_, std::move(data));
    }
  }
  void Done(const Status& status) {
    Fail(status);
    Done();
  }

 private:
  int pending_ = 1;  // the dispatch guard
  Status error_;
  Then then_;
};

template <typename Then>
auto MakeJoin(Then then) {
  return std::make_shared<Join<Then>>(NoJoinData{}, std::move(then));
}

template <typename Data, typename Then>
auto MakeJoin(Data data, Then then) {
  return std::make_shared<Join<Then, Data>>(std::move(data), std::move(then));
}

// The read form: the join owns the request's `nblocks` output blocks
// (zero until a leg fills them) and its continuation is the read callback.
template <typename Then>
auto MakeReadJoin(uint64_t nblocks, Then then) {
  return MakeJoin(std::vector<uint64_t>(nblocks, 0), std::move(then));
}

// Leg callbacks for the plain cases. Each releases the one count the caller
// took with Add() before issuing the leg.

// Passes the leg's status on.
template <typename J>
auto Leg(std::shared_ptr<J> join) {
  return [join = std::move(join)](const Status& status) {
    join->Done(status);
  };
}

// Read form: copies the run a leg read into data[at..].
template <typename J>
auto RunLeg(std::shared_ptr<J> join, uint64_t at) {
  return [join = std::move(join), at](const Status& status,
                                      std::vector<uint64_t> run) {
    if (status.ok()) {
      std::copy(run.begin(), run.end(),
                join->data.begin() + static_cast<std::ptrdiff_t>(at));
    }
    join->Done(status);
  };
}

// Read form: stores the one block a leg produced into data[at].
template <typename J>
auto BlockLeg(std::shared_ptr<J> join, uint64_t at) {
  return [join = std::move(join), at](const Status& status, uint64_t block) {
    if (status.ok()) {
      join->data[at] = block;
    }
    join->Done(status);
  };
}

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_JOIN_H_
