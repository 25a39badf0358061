#include "src/engines/raizn.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/common/logging.h"
#include "src/engines/join.h"
#include "src/raid/reed_solomon.h"

namespace biza {

Raizn::Raizn(Simulator* sim, std::vector<ZnsDevice*> devices,
             const RaiznConfig& config)
    : sim_(sim), devices_(std::move(devices)), config_(config) {
  n_ = static_cast<int>(devices_.size());
  assert(n_ >= 3 && "RAID 5 needs at least 3 drives");
  k_ = n_ - 1;
  geometry_.num_drives = n_;
  geometry_.num_parity = 1;
  geometry_.chunk_blocks = 1;

  const ZnsConfig& dev_config = devices_[0]->config();
  dev_zone_cap_ = dev_config.zone_capacity_blocks;
  // The last two physical zones of every device are the ping-pong metadata
  // zones; the rest back logical zones.
  assert(dev_config.num_zones > 2);
  num_logical_zones_ = dev_config.num_zones - 2;
  // One open logical zone consumes one physical open zone per device; keep
  // one slot per device for the metadata zone.
  max_open_zones_ = dev_config.max_open_zones - 1;

  logical_zones_.resize(num_logical_zones_);
  phys_state_.resize(static_cast<size_t>(n_));
  md_.resize(static_cast<size_t>(n_));
  for (int d = 0; d < n_; ++d) {
    phys_state_[static_cast<size_t>(d)].resize(dev_config.num_zones);
    md_[static_cast<size_t>(d)].zones[0] = dev_config.num_zones - 2;
    md_[static_cast<size_t>(d)].zones[1] = dev_config.num_zones - 1;
  }
}

void Raizn::EnqueuePhys(int device, uint32_t phys_zone, PhysJob job) {
  phys_state_[static_cast<size_t>(device)][phys_zone].queue.push_back(
      std::move(job));
  PumpPhys(device, phys_zone);
}

void Raizn::PumpPhys(int device, uint32_t phys_zone) {
  PhysZoneState& state = phys_state_[static_cast<size_t>(device)][phys_zone];
  if (state.busy || state.queue.empty()) {
    return;
  }
  state.busy = true;
  PhysJob job = std::move(state.queue.front());
  state.queue.pop_front();
  const uint64_t offset = job.offset;
  auto patterns = std::move(job.patterns);
  auto oobs = std::move(job.oobs);
  devices_[static_cast<size_t>(device)]->SubmitWrite(
      phys_zone, offset, std::move(patterns), std::move(oobs),
      [this, device, phys_zone, done = std::move(job.done)](const Status& status) {
        if (!status.ok()) {
          BIZA_LOG_ERROR("raizn phys write failed: %s", status.ToString().c_str());
        }
        phys_state_[static_cast<size_t>(device)][phys_zone].busy = false;
        if (done) {
          done();
        }
        PumpPhys(device, phys_zone);
        MaybeFinishPhys(device, phys_zone);
      });
}

void Raizn::MaybeFinishPhys(int device, uint32_t phys_zone) {
  PhysZoneState& state = phys_state_[static_cast<size_t>(device)][phys_zone];
  if (state.finish_pending && !state.busy && state.queue.empty()) {
    state.finish_pending = false;
    (void)devices_[static_cast<size_t>(device)]->FinishZone(phys_zone);
  }
}

void Raizn::SubmitZoneWrite(uint32_t zone, uint64_t offset,
                            std::vector<uint64_t> patterns, WriteCallback cb,
                            WriteTag tag) {
  if (zone >= num_logical_zones_) {
    cb(OutOfRangeError("bad logical zone"));
    return;
  }
  LogicalZone& lz = logical_zones_[zone];
  const uint64_t n = patterns.size();
  if (n == 0 || offset + n > zone_capacity_blocks()) {
    cb(OutOfRangeError("write beyond logical zone capacity"));
    return;
  }
  if (offset != lz.wptr) {
    cb(WriteFailureError("non-sequential logical zone write"));
    return;
  }
  cpu_.Charge(kCpuCosts.request_overhead_ns);
  stats_.user_written_blocks += n;
  lz.wptr += n;

  // Legs: one physical write per device batch, and a persisted partial
  // parity.
  auto join = MakeJoin(std::move(cb));

  // Per-device batching: each device's blocks for this request sit at
  // consecutive stripe offsets while the device stays a data drive, so they
  // coalesce into one physical write (real RAIZN splits a bio into one
  // sub-request per device the same way).
  struct Batch {
    bool active = false;
    uint64_t start = 0;
    std::vector<uint64_t> patterns;
    std::vector<OobRecord> oobs;
  };
  std::vector<Batch> batches(static_cast<size_t>(n_));
  auto flush_device = [this, zone, &join, &batches](int device) {
    Batch& b = batches[static_cast<size_t>(device)];
    if (!b.active) {
      return;
    }
    PhysJob job;
    job.offset = b.start;
    job.patterns = std::move(b.patterns);
    job.oobs = std::move(b.oobs);
    join->Add();
    job.done = [join] { join->Done(); };
    EnqueuePhys(device, zone, std::move(job));
    b = Batch{};
  };

  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t logical = offset + i;
    const uint64_t in_zone_stripe = logical / static_cast<uint64_t>(k_);
    const int slot = static_cast<int>(logical % static_cast<uint64_t>(k_));
    const uint64_t gstripe = GlobalStripe(zone, in_zone_stripe);
    const int device = geometry_.DataDrive(gstripe, slot);

    Batch& b = batches[static_cast<size_t>(device)];
    const OobRecord oob{logical, static_cast<uint32_t>(gstripe), tag};
    if (b.active && b.start + b.patterns.size() == in_zone_stripe) {
      b.patterns.push_back(patterns[i]);
      b.oobs.push_back(oob);
    } else {
      flush_device(device);
      b.active = true;
      b.start = in_zone_stripe;
      b.patterns = {patterns[i]};
      b.oobs = {oob};
    }

    lz.stripe_buf.push_back(patterns[i]);
    if (static_cast<int>(lz.stripe_buf.size()) == k_) {
      // Stripe sealed: write the final parity to the rotating parity drive.
      cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / kKiB));
      const uint64_t parity = XorParity(lz.stripe_buf);
      const int pdrive = geometry_.ParityDrive(gstripe);
      // Order: any earlier data blocks batched for the parity drive must
      // reach its zone queue before this parity block.
      flush_device(pdrive);
      PhysJob pjob;
      pjob.offset = in_zone_stripe;
      pjob.patterns = {parity};
      pjob.oobs = {OobRecord{OobRecord::kUnsetLbn,
                             static_cast<uint32_t>(gstripe), WriteTag::kParity}};
      stats_.parity_written_blocks++;
      EnqueuePhys(pdrive, zone, std::move(pjob));
      DropBufferedPp(zone, gstripe);
      lz.stripe_buf.clear();
    }
  }
  for (int d = 0; d < n_; ++d) {
    flush_device(d);
  }

  // Partial tail stripe: persist (or buffer) the partial parity.
  if (!lz.stripe_buf.empty()) {
    cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / kKiB));
    const uint64_t pp = XorParity(lz.stripe_buf);
    const uint64_t tail_stripe = GlobalStripe(zone, lz.wptr / static_cast<uint64_t>(k_));
    const int pdrive = geometry_.ParityDrive(tail_stripe);
    if (config_.parity_buffer_entries > 0) {
      BufferPp(zone, tail_stripe, pp, pdrive);
    } else {
      join->Add();
      PersistPp(pdrive, pp, [join] { join->Done(); });
    }
  }
  join->Done();  // the dispatch guard
}

void Raizn::PersistPp(int device, uint64_t pattern, std::function<void()> done) {
  MdState& md = md_[static_cast<size_t>(device)];
  if (md.wptr >= dev_zone_cap_) {
    // Active metadata zone full: ping-pong to the other zone. The zone we
    // switch TO filled a full cycle ago (its queue has long drained and its
    // parities are stale — GC-friendly, as the paper notes), so resetting
    // it now is safe; resetting the zone we just filled would race its
    // still-queued tail writes.
    md.active ^= 1;
    (void)devices_[static_cast<size_t>(device)]->ResetZone(md.zones[md.active]);
    md.wptr = 0;
    stats_.md_zone_resets++;
  }
  const uint32_t md_zone = md.zones[md.active];
  PhysJob job;
  job.offset = md.wptr++;
  job.patterns = {pattern};
  job.oobs = {OobRecord{OobRecord::kUnsetLbn, 0, WriteTag::kParity}};
  job.done = std::move(done);
  stats_.pp_written_blocks++;
  EnqueuePhys(device, md_zone, std::move(job));
}

void Raizn::BufferPp(uint32_t zone, uint64_t stripe, uint64_t pattern,
                     int pdrive) {
  // Coalesce with an existing buffered PP of the same stripe (absorbed).
  for (auto& entry : pp_buffer_) {
    if (!entry.dead && entry.zone == zone && entry.stripe == stripe) {
      entry.pattern = pattern;
      entry.buffered_at = sim_->Now();
      stats_.pp_absorbed++;
      return;
    }
  }
  if (pp_buffer_.size() >= config_.parity_buffer_entries) {
    // Evict the oldest live entry to the metadata zone.
    for (auto& entry : pp_buffer_) {
      if (!entry.dead) {
        PersistPp(entry.parity_device, entry.pattern, nullptr);
        entry.dead = true;
        break;
      }
    }
    while (!pp_buffer_.empty() && pp_buffer_.front().dead) {
      pp_buffer_.pop_front();
    }
  }
  pp_buffer_.push_back(BufferedPp{zone, stripe, pattern, pdrive, sim_->Now(), false});
  SchedulePpSweep();
}

void Raizn::DropBufferedPp(uint32_t zone, uint64_t stripe) {
  for (auto& entry : pp_buffer_) {
    if (!entry.dead && entry.zone == zone && entry.stripe == stripe) {
      entry.dead = true;
      stats_.pp_absorbed++;
      return;
    }
  }
}

void Raizn::SchedulePpSweep() {
  if (pp_sweep_scheduled_ || config_.parity_buffer_entries == 0) {
    return;
  }
  pp_sweep_scheduled_ = true;
  sim_->Schedule(kParityBufferFlushNs, [this]() { PpSweep(); });
}

void Raizn::PpSweep() {
  pp_sweep_scheduled_ = false;
  const SimTime deadline = sim_->Now() >= kParityBufferFlushNs
                               ? sim_->Now() - kParityBufferFlushNs
                               : 0;
  bool live_left = false;
  for (auto& entry : pp_buffer_) {
    if (entry.dead) {
      continue;
    }
    if (entry.buffered_at <= deadline) {
      // Compensation flush: the stripe stayed open too long.
      PersistPp(entry.parity_device, entry.pattern, nullptr);
      entry.dead = true;
    } else {
      live_left = true;
    }
  }
  while (!pp_buffer_.empty() && pp_buffer_.front().dead) {
    pp_buffer_.pop_front();
  }
  if (live_left) {
    SchedulePpSweep();
  }
}

void Raizn::SubmitZoneRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                           ReadCallback cb) {
  if (zone >= num_logical_zones_ ||
      offset + nblocks > zone_capacity_blocks() || nblocks == 0) {
    cb(OutOfRangeError("bad logical zone read"), {});
    return;
  }
  cpu_.Charge(kCpuCosts.request_overhead_ns);

  auto join = MakeReadJoin(nblocks, std::move(cb));

  // Gather per-device runs: a device holds consecutive stripes' blocks at
  // consecutive offsets whenever it stays a data drive, so merge greedily.
  uint64_t i = 0;
  while (i < nblocks) {
    const uint64_t logical = offset + i;
    const uint64_t stripe = logical / static_cast<uint64_t>(k_);
    const int slot = static_cast<int>(logical % static_cast<uint64_t>(k_));
    const int device = geometry_.DataDrive(GlobalStripe(zone, stripe), slot);
    join->Add();
    devices_[static_cast<size_t>(device)]->SubmitRead(zone, stripe, 1,
                                                      RunLeg(join, i));
    i++;
  }
  join->Done();  // the dispatch guard
}

Status Raizn::ResetZone(uint32_t zone) {
  if (zone >= num_logical_zones_) {
    return OutOfRangeError("bad logical zone");
  }
  for (int d = 0; d < n_; ++d) {
    BIZA_RETURN_IF_ERROR(devices_[static_cast<size_t>(d)]->ResetZone(zone));
  }
  logical_zones_[zone] = LogicalZone{};
  for (auto& entry : pp_buffer_) {
    if (entry.zone == zone) {
      entry.dead = true;
    }
  }
  return OkStatus();
}

Status Raizn::FinishZone(uint32_t zone) {
  if (zone >= num_logical_zones_) {
    return OutOfRangeError("bad logical zone");
  }
  LogicalZone& lz = logical_zones_[zone];
  if (!lz.stripe_buf.empty()) {
    // Seal the tail stripe with a zero-padded parity.
    const uint64_t gstripe = GlobalStripe(zone, lz.wptr / static_cast<uint64_t>(k_));
    const uint64_t parity = XorParity(lz.stripe_buf);
    const int pdrive = geometry_.ParityDrive(gstripe);
    const uint64_t in_zone_stripe = lz.wptr / static_cast<uint64_t>(k_);
    PhysJob pjob;
    pjob.offset = in_zone_stripe;
    pjob.patterns = {parity};
    pjob.oobs = {OobRecord{OobRecord::kUnsetLbn, static_cast<uint32_t>(gstripe),
                           WriteTag::kParity}};
    stats_.parity_written_blocks++;
    EnqueuePhys(pdrive, zone, std::move(pjob));
    DropBufferedPp(zone, gstripe);
    lz.stripe_buf.clear();
  }
  for (int d = 0; d < n_; ++d) {
    phys_state_[static_cast<size_t>(d)][zone].finish_pending = true;
    MaybeFinishPhys(d, zone);
  }
  lz.wptr = zone_capacity_blocks();
  return OkStatus();
}

}  // namespace biza
