// One online rebuild for BIZA, ZapRAID and mdraid (DESIGN.md §4 item 12): a
// background sweep migrates the keys a replacement touches, ascending, in
// throttled batches under foreground I/O, rescanning after every pass. The
// Engine says which keys and how a batch migrates; RebuildSweep owns the
// rest, member rules included:
//   * A member takes writes while healthy or while it is the replacement
//     under rebuild; one that stops answering is failed.
//   * Each leg of a batch holds its Token, whose last release (a destructor,
//     not a join: §4 item 16) records the `<engine>.rebuild_step` span and
//     schedules the next batch kIntervalNs later.
//   * `passes` counts completed sweeps. Only a rescan that finds nothing
//     restores the member (failed flag cleared, finished_ns stamped); a
//     sweep with work left after kMaxPasses, or whose replacement dies,
//     ends with the member failed and finished_ns at 0.
//   * Starting a sweep resets the member's health record.
#ifndef BIZA_SRC_ENGINES_REBUILD_H_
#define BIZA_SRC_ENGINES_REBUILD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/health/device_health.h"
#include "src/metrics/observability.h"
#include "src/sim/simulator.h"

namespace biza {

struct RebuildStats {
  bool active = false;
  int device = -1;
  uint64_t chunks_migrated = 0;  // keys the engine migrated
  uint64_t passes = 0;           // completed sweeps
  SimTime started_ns = 0;
  SimTime finished_ns = 0;       // 0 unless the sweep restored the member
};

class RebuildSweep {
 public:
  static constexpr uint64_t kBatchKeys = 64;
  static constexpr SimTime kIntervalNs = 200 * kMicrosecond;  // after a batch
  static constexpr uint64_t kMaxPasses = 8;

  using Keys = std::vector<uint64_t>;
  using Token = std::shared_ptr<void>;  // held by every leg of a batch

  class Engine {
   public:
    // Hands `next` the keys still owed, ascending: at Start for the first
    // pass, and at the end of every pass (mdraid then drains its stripe
    // cache first, so `next` may run later).
    virtual void RebuildRescan(std::function<void(Keys)> next) = 0;
    // Whether `key` joins the batch: false when it needs no more work, or
    // when the engine puts it off to the next pass.
    virtual bool RebuildTake(uint64_t key) = 0;
    virtual void RebuildMigrate(Keys keys, const Token& token) = 0;
    // The sweep ended; the member rules have been applied.
    virtual void RebuildEnd(bool /*restored*/) {}
   protected:
    ~Engine() = default;
  };

  // `failed` is the engine's per-member failed flags.
  RebuildSweep(Simulator* sim, std::string engine, std::vector<bool>* failed,
               Engine* owner)
      : sim_(sim), engine_(std::move(engine)), failed_(failed), owner_(owner) {}

  const RebuildStats& stats() const { return stats_; }
  bool Rebuilding(int device) const {
    return stats_.active && stats_.device == device;
  }
  bool Writable(int device) const {
    return !(*failed_)[static_cast<size_t>(device)] || Rebuilding(device);
  }

  Status CanStart(int device) const {
    if (device < 0 || static_cast<size_t>(device) >= failed_->size() ||
        !(*failed_)[static_cast<size_t>(device)] || stats_.active) {
      return FailedPreconditionError(
          engine_ + ": replace: member " + std::to_string(device) +
          " is not failed, or a rebuild is running");
    }
    return OkStatus();
  }

  void Start(int device, DeviceHealthMonitor* health) {
    stats_ = RebuildStats{.active = true, .device = device,
                          .started_ns = sim_->Now()};
    if (health != nullptr) {
      health->ResetDevice(device);
    }
    owner_->RebuildRescan([this, generation = ++generation_](Keys keys) {
      queue_ = std::move(keys);
      cursor_ = 0;
      sim_->Schedule(0, [this, generation] { Step(generation); });
    });
  }

  // `device` answered kUnavailable. Marks it failed and returns true the
  // first time; the replacement under rebuild instead ends the sweep.
  bool MemberLost(int device) {
    if (Rebuilding(device)) {
      End(/*restored=*/false);
      return false;
    }
    if ((*failed_)[static_cast<size_t>(device)]) {
      return false;
    }
    BIZA_LOG_WARN("%s: member %d unavailable, entering degraded mode",
                  engine_.c_str(), device);
    (*failed_)[static_cast<size_t>(device)] = true;
    return true;
  }

  void CountMigrated(uint64_t keys) { stats_.chunks_migrated += keys; }

  // Registers `<engine>.rebuild.{chunks_migrated,passes,active}` and the
  // `<engine>.rebuild_step` span; nullptr detaches.
  void AttachObservability(Observability* obs) {
    obs_ = obs;
    if (obs_ == nullptr) {
      return;
    }
    StatRegistry& reg = obs_->registry;
    reg.RegisterCounter(engine_ + ".rebuild.chunks_migrated",
                        [this] { return stats_.chunks_migrated; });
    reg.RegisterCounter(engine_ + ".rebuild.passes",
                        [this] { return stats_.passes; });
    reg.RegisterGauge(engine_ + ".rebuild.active",
                      [this] { return stats_.active ? uint64_t{1} : 0; });
    span_step_ = obs_->tracer.Intern(engine_ + ".rebuild_step");
    key_device_ = obs_->tracer.Intern("device");
    key_blocks_ = obs_->tracer.Intern("blocks");
  }

 private:
  // `generation` keeps a batch of an ended sweep from stepping a new one.
  void Step(uint64_t generation) {
    if (generation != generation_ || !stats_.active) {
      return;
    }
    if (cursor_ < queue_.size()) {
      RunBatch();
      return;
    }
    ++stats_.passes;
    owner_->RebuildRescan([this, generation](Keys keys) {
      if (generation != generation_ || !stats_.active) {
        return;
      }
      if (keys.empty() || stats_.passes >= kMaxPasses) {
        End(/*restored=*/keys.empty());
        return;
      }
      queue_ = std::move(keys);
      cursor_ = 0;
      RunBatch();
    });
  }

  void RunBatch() {
    Keys keys;
    while (cursor_ < queue_.size() && keys.size() < kBatchKeys) {
      const uint64_t key = queue_[cursor_++];
      if (owner_->RebuildTake(key)) {
        keys.push_back(key);
      }
    }
    const auto blocks = static_cast<int64_t>(keys.size());
    const Token token(nullptr, [this, generation = generation_,
                                start = sim_->Now(), blocks](void*) {
      if (obs_ != nullptr && obs_->tracer.Armed(start)) {
        obs_->tracer.Record(Tracer::kLaneEngine, span_step_, start,
                            sim_->Now(), key_device_, stats_.device,
                            key_blocks_, blocks);
      }
      if (generation == generation_ && stats_.active) {
        sim_->Schedule(kIntervalNs, [this, generation] { Step(generation); });
      }
    });
    owner_->RebuildMigrate(std::move(keys), token);
  }

  void End(bool restored) {
    stats_.active = false;
    if (restored) {
      stats_.finished_ns = sim_->Now();
      (*failed_)[static_cast<size_t>(stats_.device)] = false;
    }
    queue_.clear();
    BIZA_LOG_INFO("%s: rebuild of member %d %s after %llu keys, %llu passes",
                  engine_.c_str(), stats_.device,
                  restored ? "complete" : "abandoned, member still failed",
                  static_cast<unsigned long long>(stats_.chunks_migrated),
                  static_cast<unsigned long long>(stats_.passes));
    owner_->RebuildEnd(restored);
  }

  Simulator* sim_;
  std::string engine_;
  std::vector<bool>* failed_;
  Engine* owner_;
  RebuildStats stats_;
  uint64_t generation_ = 0;  // bumped per Start
  Keys queue_;
  size_t cursor_ = 0;

  Observability* obs_ = nullptr;
  uint16_t span_step_ = 0;
  uint16_t key_device_ = 0;
  uint16_t key_blocks_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_REBUILD_H_
