// One bounded retry for every engine's member I/O (DESIGN.md §4 item 17).
//
// BIZA, ZapRAID and mdraid each issue reads and writes to their members, and
// a member may fail one with a transient error. IssueWithRetry issues such an
// I/O and retries it:
//
//   * `issue(on_complete)` issues one attempt; the member calls
//     on_complete(status, results...) when it lands. Each attempt calls its
//     own copy of `issue`, taken before the call, so `issue` may move a
//     payload it owns into the member.
//   * A retriable failure (IsRetriable) is issued again after
//     RetryBackoffNs(attempt, kRetryBackoffBaseNs), at most kMaxIoRetries
//     times, and bumps `*retries` once per retry.
//   * `done(status, results...)` runs once, with the last attempt's outcome.
//     The engine's own rules for that outcome stay in `done`: which
//     completions feed the health monitor, and what a dead member means.
//
// ZoneScheduler keeps its own retry: each of its attempts re-reads the
// newest content of the window, which a fixed payload cannot do.
#ifndef BIZA_SRC_ENGINES_RETRY_H_
#define BIZA_SRC_ENGINES_RETRY_H_

#include <cstdint>
#include <utility>

#include "src/common/status.h"
#include "src/sim/simulator.h"

namespace biza {

namespace retry_internal {

template <typename Issue, typename Done>
void Attempt(Simulator* sim, uint64_t* retries, int attempt, Issue issue,
             Done done) {
  Issue again = issue;
  issue([sim, retries, attempt, again = std::move(again),
         done = std::move(done)](const Status& status,
                                 auto&&... result) mutable {
    if (IsRetriable(status) && attempt < kMaxIoRetries) {
      ++*retries;
      sim->Schedule(RetryBackoffNs(attempt, kRetryBackoffBaseNs),
                    [sim, retries, attempt, again = std::move(again),
                     done = std::move(done)]() mutable {
                      Attempt(sim, retries, attempt + 1, std::move(again),
                              std::move(done));
                    });
      return;
    }
    done(status, std::forward<decltype(result)>(result)...);
  });
}

}  // namespace retry_internal

template <typename Issue, typename Done>
void IssueWithRetry(Simulator* sim, uint64_t* retries, Issue issue,
                    Done done) {
  retry_internal::Attempt(sim, retries, /*attempt=*/0, std::move(issue),
                          std::move(done));
}

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_RETRY_H_
