// One request front for the block engines (DESIGN.md §4 item 18).
//
// BIZA, ZapRAID, mdraid and dm-zap each hold one RequestFront and call it
// from their public SubmitWrite/SubmitRead, and from nowhere else. It does,
// once per host request, what used to be hand-written in each engine:
//
//   * Admission: an empty request, or one that runs past the capacity,
//     fails with kOutOfRange and reaches no engine code.
//   * User blocks: writes tagged kData and all reads add to the engine's
//     user_written_blocks / user_read_blocks, which only the front moves.
//   * Timing: with an Observability attached, the request's completion
//     records one `<engine>.{write,read}_latency_ns` sample and one
//     engine-lane `<engine>.{write,read}` span carrying lbn and blocks.
//     Dark, the callback is handed back unwrapped.
//
// Everything else, every CPU charge included, lives in the engine's request
// body. The engine's own re-entries call that body, never the public entry:
// parked remainders, GC and rebuild gather writes, rebuild migration reads
// and re-dispatched reads. So none of them is admitted, counted or timed as
// a host request; GC and rebuild I/O show only as `gc_step`/`rebuild_step`
// spans.
#ifndef BIZA_SRC_ENGINES_REQUEST_FRONT_H_
#define BIZA_SRC_ENGINES_REQUEST_FRONT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/write_tag.h"
#include "src/engines/target.h"
#include "src/metrics/observability.h"
#include "src/sim/simulator.h"

namespace biza {

class RequestFront {
 public:
  // `target` is the engine itself (its capacity bounds admission); the two
  // counters are fields of the engine's stats.
  RequestFront(Simulator* sim, const BlockTarget* target, std::string engine,
               uint64_t* user_written_blocks, uint64_t* user_read_blocks)
      : sim_(sim),
        target_(target),
        engine_(std::move(engine)),
        user_written_(user_written_blocks),
        user_read_(user_read_blocks) {}
  // Wrapped callbacks hold `this`.
  RequestFront(const RequestFront&) = delete;
  RequestFront& operator=(const RequestFront&) = delete;

  // Registers `<engine>.user_{written,read}_blocks`, the two request
  // histograms and the two span names; nullptr goes dark.
  void AttachObservability(Observability* obs) {
    obs_ = obs;
    if (obs_ == nullptr) {
      return;
    }
    StatRegistry& reg = obs_->registry;
    reg.RegisterCounter(engine_ + ".user_written_blocks",
                        [counter = user_written_] { return *counter; });
    reg.RegisterCounter(engine_ + ".user_read_blocks",
                        [counter = user_read_] { return *counter; });
    write_ = {reg.Histogram(engine_ + ".write_latency_ns"),
              obs_->tracer.Intern(engine_ + ".write")};
    read_ = {reg.Histogram(engine_ + ".read_latency_ns"),
             obs_->tracer.Intern(engine_ + ".read")};
    key_lbn_ = obs_->tracer.Intern("lbn");
    key_blocks_ = obs_->tracer.Intern("blocks");
  }

  // Admits one host write. Returns false once `cb` has failed with
  // kOutOfRange; otherwise the caller hands `cb` to its request body.
  bool AdmitWrite(uint64_t lbn, uint64_t nblocks, WriteTag tag,
                  BlockTarget::WriteCallback& cb) {
    if (!InRange(lbn, nblocks)) {
      cb(OutOfRangeError(engine_ + ": write outside the exposed capacity"));
      return false;
    }
    if (tag == WriteTag::kData) {
      *user_written_ += nblocks;
    }
    if (obs_ != nullptr) {
      cb = [this, start = sim_->Now(), lbn, nblocks,
            cb = std::move(cb)](const Status& status) {
        Finish(write_, start, lbn, nblocks);
        cb(status);
      };
    }
    return true;
  }

  // Admits one host read, as AdmitWrite does.
  bool AdmitRead(uint64_t lbn, uint64_t nblocks,
                 BlockTarget::ReadCallback& cb) {
    if (!InRange(lbn, nblocks)) {
      cb(OutOfRangeError(engine_ + ": read outside the exposed capacity"), {});
      return false;
    }
    *user_read_ += nblocks;
    if (obs_ != nullptr) {
      cb = [this, start = sim_->Now(), lbn, nblocks, cb = std::move(cb)](
               const Status& status, std::vector<uint64_t> patterns) {
        Finish(read_, start, lbn, nblocks);
        cb(status, std::move(patterns));
      };
    }
    return true;
  }

 private:
  // One request direction: its histogram and span name.
  struct Kind {
    LatencyHistogram* histogram = nullptr;
    uint16_t span = 0;
  };

  // Written so that lbn + nblocks cannot wrap past zero.
  bool InRange(uint64_t lbn, uint64_t nblocks) const {
    const uint64_t cap = target_->capacity_blocks();
    return nblocks > 0 && lbn < cap && nblocks <= cap - lbn;
  }

  void Finish(const Kind& kind, SimTime start, uint64_t lbn,
              uint64_t nblocks) const {
    const SimTime end = sim_->Now();
    kind.histogram->Record(end - start);
    if (obs_->tracer.Armed(start)) {
      obs_->tracer.Record(Tracer::kLaneEngine, kind.span, start, end,
                          key_lbn_, static_cast<int64_t>(lbn), key_blocks_,
                          static_cast<int64_t>(nblocks));
    }
  }

  Simulator* sim_;
  const BlockTarget* target_;
  std::string engine_;
  uint64_t* user_written_;
  uint64_t* user_read_;

  Observability* obs_ = nullptr;
  Kind write_;
  Kind read_;
  uint16_t key_lbn_ = 0;
  uint16_t key_blocks_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_REQUEST_FRONT_H_
