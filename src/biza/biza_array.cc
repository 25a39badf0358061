#include "src/biza/biza_array.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "src/common/logging.h"
#include "src/engines/retry.h"
#include "src/raid/reed_solomon.h"

namespace biza {

namespace {

// Parity blocks are marked in OOB with this LBN prefix; the low 32 bits
// carry a monotonically increasing version so recovery can pick the newest
// parity of a stripe when a stale, invalidated copy still exists on flash.
constexpr uint64_t kParityLbnBase = 0xFFFFFFFE00000000ULL;

bool IsParityLbn(uint64_t lbn) {
  return (lbn & 0xFFFFFFFF00000000ULL) == kParityLbnBase;
}

// Derives the HP promotion threshold from the total ZRWA size when the
// caller left it at 0 (paper: 2 x the size of ZRWA).
BizaConfig WithSelectorThreshold(BizaConfig config,
                                 const std::vector<ZnsDevice*>& devices) {
  if (config.ghost.hp_reuse_threshold == 0) {
    const ZnsConfig& dev_config = devices[0]->config();
    config.ghost.hp_reuse_threshold =
        2ULL * dev_config.zrwa_blocks *
        static_cast<uint64_t>(dev_config.max_open_zones) * devices.size();
  }
  return config;
}

}  // namespace

BizaArray::BizaArray(Simulator* sim, std::vector<ZnsDevice*> devices,
                     const BizaConfig& config)
    : sim_(sim),
      devices_(std::move(devices)),
      config_(WithSelectorThreshold(config, devices_)),
      ghost_(config_.ghost),
      rebuild_(sim, "biza", &device_failed_, this),
      front_(sim, this, "biza", &stats_.user_written_blocks,
             &stats_.user_read_blocks) {
  n_ = static_cast<int>(devices_.size());
  m_ = config_.num_parity;
  assert(m_ >= 1 && n_ >= m_ + 2 && "need at least m+2 devices");
  k_ = n_ - m_;
  geometry_.num_drives = n_;
  geometry_.num_parity = m_;
  geometry_.chunk_blocks = 1;
  if (m_ >= 2) {
    rs_ = std::make_unique<ReedSolomon>(k_, m_);
  }

  const ZnsConfig& dev_config = devices_[0]->config();
  zone_cap_ = dev_config.zone_capacity_blocks;
  num_zones_ = dev_config.num_zones;
  assert(dev_config.zrwa_blocks > 0 && "BIZA requires ZRWA devices");

  const uint64_t data_blocks =
      static_cast<uint64_t>(num_zones_) * zone_cap_ * static_cast<uint64_t>(k_);
  // (k of every n physical blocks hold data; the rest hold parity)
  exposed_blocks_ = static_cast<uint64_t>(
      static_cast<double>(data_blocks) * config_.exposed_capacity_ratio);

  zones_.resize(static_cast<size_t>(n_));
  free_zones_.assign(static_cast<size_t>(n_), num_zones_);
  groups_.resize(static_cast<size_t>(n_));
  device_failed_.assign(static_cast<size_t>(n_), false);
  config_.detector.num_channels = dev_config.timing.num_channels;
  channel_busy_until_.resize(static_cast<size_t>(n_));
  for (int d = 0; d < n_; ++d) {
    zones_[static_cast<size_t>(d)].resize(num_zones_);
    detectors_.push_back(
        std::make_unique<ChannelDetector>(config_.detector, num_zones_));
    channel_busy_until_[static_cast<size_t>(d)].assign(
        static_cast<size_t>(dev_config.timing.num_channels), 0);
  }

  if (!config_.recover_mode) {
    InitGroups(/*fresh=*/true);
  }
}

void BizaArray::AttachObservability(Observability* obs) {
  obs_ = obs;
  rebuild_.AttachObservability(obs_);
  front_.AttachObservability(obs_);
  if (obs_ == nullptr) {
    for (auto& dev_zones : zones_) {
      for (DevZone& z : dev_zones) {
        if (z.sched != nullptr) {
          z.sched->SetTracer(nullptr);
        }
      }
    }
    return;
  }
  StatRegistry& reg = obs_->registry;
  reg.RegisterCounter("biza.inplace_updates",
                      [this] { return stats_.inplace_updates; });
  reg.RegisterCounter("biza.appended_chunks",
                      [this] { return stats_.appended_chunks; });
  reg.RegisterCounter("biza.parity_writes",
                      [this] { return stats_.parity_writes; });
  reg.RegisterCounter("biza.parity_inplace_updates",
                      [this] { return stats_.parity_inplace_updates; });
  reg.RegisterCounter("biza.gc_runs", [this] { return stats_.gc_runs; });
  reg.RegisterCounter("biza.gc_migrated_data",
                      [this] { return stats_.gc_migrated_data; });
  reg.RegisterCounter("biza.gc_migrated_parity",
                      [this] { return stats_.gc_migrated_parity; });
  reg.RegisterCounter("biza.gc_zone_resets",
                      [this] { return stats_.gc_zone_resets; });
  reg.RegisterCounter("biza.degraded_reads",
                      [this] { return stats_.degraded_reads; });
  reg.RegisterCounter("biza.degraded_writes",
                      [this] { return stats_.degraded_writes; });
  reg.RegisterCounter("biza.write_retries",
                      [this] { return stats_.write_retries; });
  reg.RegisterCounter("biza.read_retries",
                      [this] { return stats_.read_retries; });
  reg.RegisterCounter("biza.write_stalls",
                      [this] { return stats_.write_stalls; });
  reg.RegisterCounter("biza.busy_skips", [this] { return stats_.busy_skips; });
  // Gray-failure mitigation plane.
  stats_.mitigation.Register(reg, "biza");
  reg.RegisterCounter("biza.health.steered_parity_stripes",
                      [this] { return stats_.steered_parity_stripes; });
  reg.RegisterCounter("biza.health.gray_channel_skips",
                      [this] { return stats_.gray_channel_skips; });
  // Channel detector, aggregated over the member devices.
  auto detector_sum = [this](uint64_t ChannelDetectorStats::*field) {
    uint64_t sum = 0;
    for (const auto& d : detectors_) {
      sum += d->stats().*field;
    }
    return sum;
  };
  reg.RegisterCounter("biza.detector.spikes_observed", [detector_sum] {
    return detector_sum(&ChannelDetectorStats::spikes_observed);
  });
  reg.RegisterCounter("biza.detector.votes_cast", [detector_sum] {
    return detector_sum(&ChannelDetectorStats::votes_cast);
  });
  reg.RegisterCounter("biza.detector.corrections", [detector_sum] {
    return detector_sum(&ChannelDetectorStats::corrections);
  });
  reg.RegisterCounter("biza.detector.confirmed_shortcuts", [detector_sum] {
    return detector_sum(&ChannelDetectorStats::confirmed_shortcuts);
  });
  // Zone group selector (ghost caches): the tier mix of user writes.
  const std::pair<const char*, uint64_t GhostCacheStats::*> ghost_counters[] = {
      {"biza.ghost.lookups", &GhostCacheStats::lookups},
      {"biza.ghost.lru_hits", &GhostCacheStats::lru_hits},
      {"biza.ghost.hr_promotions", &GhostCacheStats::hr_promotions},
      {"biza.ghost.hp_promotions", &GhostCacheStats::hp_promotions},
      {"biza.ghost.hr_demotions", &GhostCacheStats::hr_demotions},
      {"biza.ghost.lru_demotions", &GhostCacheStats::lru_demotions},
  };
  for (const auto& [name, field] : ghost_counters) {
    reg.RegisterCounter(name, [this, field] { return ghost_.stats().*field; });
  }
  reg.RegisterGauge("biza.ghost.tracked_entries",
                    [this] { return ghost_.tracked_entries(); });
  // Scheduler plane: queue depth / in-flight across every active zone.
  reg.RegisterGauge("biza.gc_active",
                    [this] { return gc_active_ ? uint64_t{1} : 0; });
  reg.RegisterGauge("biza.queued_writes", [this] {
    uint64_t depth = 0;
    for (const auto& dev_zones : zones_) {
      for (const DevZone& z : dev_zones) {
        if (z.sched != nullptr) {
          depth += z.sched->queue_depth();
        }
      }
    }
    return depth;
  });
  reg.RegisterGauge("biza.inflight_writes", [this] {
    uint64_t inflight = 0;
    for (const auto& dev_zones : zones_) {
      for (const DevZone& z : dev_zones) {
        if (z.sched != nullptr) {
          inflight += z.sched->inflight();
        }
      }
    }
    return inflight;
  });
  reg.RegisterGauge("biza.stalled_writes",
                    [this] { return stalled_writes_.size(); });
  reg.RegisterGauge("biza.sched_queue_delay_ns", [this] {
    // Worst per-scheduler enqueue->dispatch EWMA: the array's current
    // write-admission pressure point (rises on a gray-throttled device).
    uint64_t worst = 0;
    for (const auto& dev_zones : zones_) {
      for (const DevZone& z : dev_zones) {
        if (z.sched != nullptr) {
          worst = std::max<uint64_t>(worst, z.sched->queue_delay_ewma_ns());
        }
      }
    }
    return worst;
  });
  span_gc_step_ = obs_->tracer.Intern("biza.gc_step");
  key_device_ = obs_->tracer.Intern("device");
  key_zone_ = obs_->tracer.Intern("zone");
  for (auto& dev_zones : zones_) {
    for (DevZone& z : dev_zones) {
      if (z.sched != nullptr) {
        z.sched->SetTracer(&obs_->tracer);
      }
    }
  }
}

void BizaArray::InitGroups(bool fresh) {
  // Open the initial zone groups on every device.
  for (int d = 0; d < n_; ++d) {
    InitDeviceGroups(d, fresh);
  }
}

void BizaArray::InitDeviceGroups(int d, [[maybe_unused]] bool fresh) {
  for (int g = 0; g < kNumGroups; ++g) {
    groups_[static_cast<size_t>(d)][g].width =
        static_cast<size_t>(kGroupWidths[g]);
    for (int i = 0; i < kGroupWidths[g]; ++i) {
      const bool ok = ReplenishGroup(d, static_cast<GroupKind>(g));
      assert((ok || !fresh) &&
             "group plan exceeds a fresh device's open-zone budget or "
             "free-zone reserve");
      (void)ok;
    }
  }
  // Start-up zone-to-zone diagnosis (§3.3): confirm the channels of the
  // GC-destination zones — the zones whose BUSY attribution matters. The
  // diagnosis procedure itself (pairwise latency probing) is exercised in
  // bench/tab03_inter_zone; here we apply its result.
  auto& gc_group = groups_[static_cast<size_t>(d)][kGroupGcDest];
  int confirmed = 0;
  for (uint32_t zone : gc_group.zones) {
    if (confirmed >= config_.diagnosis_confirmed_zones) {
      break;
    }
    detectors_[static_cast<size_t>(d)]->Confirm(
        zone, devices_[static_cast<size_t>(d)]->DebugChannelOf(zone));
    confirmed++;
  }
}

ZoneScheduler* BizaArray::SchedOf(uint64_t pa) {
  if (pa == kInvalidPa || IsPhantomPa(pa)) {
    return nullptr;
  }
  DevZone& z = ZoneOf(PaDevice(pa), PaZone(pa));
  return z.sched.get();
}

bool BizaArray::ReplenishGroup(int device, GroupKind kind, bool emergency) {
  auto& dev_zones = zones_[static_cast<size_t>(device)];
  // Per-group free-zone floors implement the reserve: GC destinations may
  // take the very last zone (they are how zones come back), parity keeps
  // one in hand for GC, data groups keep the full reserve — except in an
  // emergency (GC has no reclaimable victim yet, so the reserve is not
  // imminently needed), when they may dip to two.
  uint64_t floor = kReservedZones;
  if (kind == kGroupGcDest) {
    floor = 0;
  } else if (kind == kGroupParity) {
    floor = 1;
  } else if (emergency) {
    floor = 2;
  }
  if (FreeZonesOf(device) <= floor) {
    return false;
  }
  for (uint32_t zone = 0; zone < num_zones_; ++zone) {
    DevZone& z = dev_zones[zone];
    if (z.use != ZoneUse::kFree || z.valid != 0) {
      continue;
    }
    const Status status =
        devices_[static_cast<size_t>(device)]->OpenZone(zone, /*with_zrwa=*/true);
    if (!status.ok()) {
      // Transient: sealing zones release budget as their writes drain.
      BIZA_LOG_DEBUG("open zone failed on dev %d: %s", device,
                     status.ToString().c_str());
      return false;
    }
    SetZoneUse(device, zone, ZoneUse::kActive);
    z.sched = std::make_unique<ZoneScheduler>(
        devices_[static_cast<size_t>(device)], zone, kMaxIoRetries,
        kRetryBackoffBaseNs, &stats_.write_retries);
    if (obs_ != nullptr) {
      z.sched->SetTracer(&obs_->tracer);
    }
    if (health_ != nullptr && health_->IsGray(device)) {
      // Fresh schedulers on a gray device inherit the in-flight cap.
      z.sched->SetInflightCap(DeviceHealthMonitor::kGrayInflightCap);
    }
    detectors_[static_cast<size_t>(device)]->OnZoneOpened(zone);
    // Future-ZNS (§6): if the device exposes the mapping in the OPEN
    // completion, confirm it outright — no guessing, no voting.
    const int architected =
        devices_[static_cast<size_t>(device)]->ChannelOf(zone);
    if (architected >= 0) {
      detectors_[static_cast<size_t>(device)]->Confirm(zone, architected);
    }
    groups_[static_cast<size_t>(device)][kind].zones.push_back(zone);
    return true;
  }
  return false;
}

bool BizaArray::IsBusyChannel(int device, int channel) const {
  if (channel < 0) {
    return false;
  }
  // Erase cooldown applies even after GC has moved on.
  const auto& cooldowns = channel_busy_until_[static_cast<size_t>(device)];
  if (static_cast<size_t>(channel) < cooldowns.size() &&
      sim_->Now() < cooldowns[static_cast<size_t>(channel)]) {
    return true;
  }
  return gc_active_ &&
         gc_busy_channel_set_.size() > static_cast<size_t>(device) &&
         gc_busy_channel_set_[static_cast<size_t>(device)] == channel;
}

int BizaArray::VoteChannelOf(int device) const {
  if (!gc_active_) {
    return -1;
  }
  if (device == gc_device_ && gc_victim_channel_ >= 0) {
    return gc_victim_channel_;
  }
  return gc_busy_channel_set_.size() > static_cast<size_t>(device)
             ? gc_busy_channel_set_[static_cast<size_t>(device)]
             : -1;
}

bool BizaArray::VoteConfirmed(int device) const {
  if (!gc_active_) {
    return false;
  }
  if (device == gc_device_ && gc_victim_channel_ >= 0) {
    return gc_victim_confirmed_;
  }
  return gc_busy_confirmed_set_.size() > static_cast<size_t>(device) &&
         gc_busy_confirmed_set_[static_cast<size_t>(device)];
}

ZoneScheduler* BizaArray::PickZone(int device, GroupKind kind,
                                   uint64_t need_blocks) {
  (void)need_blocks;
  ZoneGroup& group = groups_[static_cast<size_t>(device)][kind];
  // GC's own writes must land in the (BUSY-tagged) GC destination zones —
  // only user traffic steers away from them.
  const bool avoid =
      config_.enable_gc_avoidance && gc_active_ && kind != kGroupGcDest;

  // Retire full zones and keep the group topped up at its width so every
  // group always spreads across its configured number of channels.
  for (size_t i = group.zones.size(); i-- > 0;) {
    const uint32_t zone = group.zones[i];
    DevZone& z = ZoneOf(device, zone);
    if (!z.sched || z.sched->free_blocks() == 0) {
      SealZone(device, zone);  // removes the zone from the group
    }
  }
  while (group.zones.size() < group.width && ReplenishGroup(device, kind)) {
  }
  if (group.zones.empty()) {
    return nullptr;
  }

  // Sticky pick: stay on the current zone (group.rr) while it has room and
  // its detected channel is not BUSY — stickiness keeps per-device writes
  // physically contiguous so sequential reads merge.
  for (size_t attempt = 0; attempt < group.zones.size(); ++attempt) {
    const size_t index = (group.rr + attempt) % group.zones.size();
    const uint32_t zone = group.zones[index];
    DevZone& z = ZoneOf(device, zone);
    if (!z.sched || z.sched->free_blocks() == 0) {
      continue;
    }
    if (avoid &&
        IsBusyChannel(device,
                      detectors_[static_cast<size_t>(device)]->ChannelOf(zone))) {
      stats_.busy_skips++;
      continue;  // GC avoidance: skip zones on BUSY channels (§4.3)
    }
    if (health_ != nullptr && kind != kGroupGcDest &&
        health_->IsGrayChannel(
            device, detectors_[static_cast<size_t>(device)]->ChannelOf(zone))) {
      // Channel-granular steering: the device is fine but this channel is
      // not — place the chunk on a sibling channel's zone instead. GC
      // destinations are exempt (GC must always make progress).
      stats_.gray_channel_skips++;
      continue;
    }
    group.rr = index;
    return z.sched.get();
  }
  // Every zone is either full or on a BUSY channel: take any zone with room
  // (latency over failure).
  for (size_t index = 0; index < group.zones.size(); ++index) {
    DevZone& z = ZoneOf(device, group.zones[index]);
    if (z.sched && z.sched->free_blocks() > 0) {
      group.rr = index;
      return z.sched.get();
    }
  }
  return nullptr;
}

void BizaArray::SealZone(int device, uint32_t zone) {
  DevZone& z = ZoneOf(device, zone);
  if (z.use != ZoneUse::kActive || !z.sched) {
    return;
  }
  if (z.sched->free_blocks() > 0) {
    return;  // still has room; not sealable
  }
  auto& group_list = groups_[static_cast<size_t>(device)];
  for (auto& group : group_list) {
    auto it = std::find(group.zones.begin(), group.zones.end(), zone);
    if (it != group.zones.end()) {
      group.zones.erase(it);
      if (group.rr >= group.zones.size()) {
        group.rr = 0;
      }
      break;
    }
  }
  z.seal_pending = true;
  MaybeFinishSeal(device, zone);
}

void BizaArray::MaybeFinishSeal(int device, uint32_t zone) {
  DevZone& z = ZoneOf(device, zone);
  if (!z.seal_pending || !z.sched || !z.sched->Idle()) {
    return;
  }
  const Status status = z.sched->Seal();
  if (!status.ok()) {
    BIZA_LOG_WARN("seal failed dev %d zone %u: %s", device, zone,
                  status.ToString().c_str());
    return;
  }
  z.seal_pending = false;
  SetZoneUse(device, zone, ZoneUse::kSealed);
  z.sched.reset();  // releases the window bookkeeping; zone is immutable now
  // A newly sealed zone may be the GC victim that parked writes are
  // waiting for.
  if (!stalled_writes_.empty()) {
    MaybeStartGc();
    if (gc_active_) {
      RetryStalled();
    }
  }
}

void BizaArray::InvalidatePa(uint64_t pa) {
  // Phantom chunks were never written, so no zone holds a block for them.
  if (pa == kInvalidPa || IsPhantomPa(pa)) {
    return;
  }
  DevZone& z = ZoneOf(PaDevice(pa), PaZone(pa));
  assert(z.valid > 0);
  z.valid--;
}

void BizaArray::InvalidateChunk(BmtEntry& entry) {
  // `entry` points into a BMT page, and pages never move, so it stays valid
  // whatever the BMT does meanwhile (nothing below touches it anyway).
  if (entry.pa == kInvalidPa) {
    return;
  }
  InvalidatePa(entry.pa);
  const uint32_t sn = entry.sn;
  uint32_t& live = stripe_live_[sn];
  assert(live > 0);
  live--;
  if (live == 0) {
    // The stripe's last live chunk died: its parities are garbage now.
    for (int row = 0; row < m_; ++row) {
      const uint64_t ppa = SmtAt(sn, row);
      if (ppa != kInvalidPa) {
        InvalidatePa(ppa);
        SmtSet(sn, row, kInvalidPa);
      }
    }
    // A still-open builder of this stripe must forget the dead parity, or
    // its next refresh would invalidate the same block a second time.
    for (auto& builder : builders_) {
      if (builder.open && builder.sn == sn) {
        builder.parity_pa.assign(static_cast<size_t>(m_), kInvalidPa);
        break;
      }
    }
  }
  entry.pa = kInvalidPa;
}

void BizaArray::RecordCompletion(int device, uint32_t zone,
                                 SimTime submit_time) {
  const SimTime latency = sim_->Now() - submit_time;
  detectors_[static_cast<size_t>(device)]->RecordWriteLatency(
      zone, latency, VoteChannelOf(device), VoteConfirmed(device));
  if (health_ != nullptr) {
    // Channel attribution rides on the detector's current guess for the
    // zone, so a single slow channel can be steered around independently.
    health_->RecordLatency(
        device, DeviceHealthMonitor::Kind::kWrite,
        detectors_[static_cast<size_t>(device)]->ChannelOf(zone), latency,
        sim_->Now());
  }
  MaybeFinishSeal(device, zone);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void BizaArray::SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                            WriteCallback cb, WriteTag tag) {
  if (front_.AdmitWrite(lbn, patterns.size(), tag, cb)) {
    WriteBody(lbn, {}, std::move(patterns), std::move(cb), tag);
  }
}

void BizaArray::WriteGather(std::vector<uint64_t> lbns,
                            std::vector<uint64_t> patterns, WriteCallback cb) {
  assert(!lbns.empty() && lbns.size() == patterns.size());
  WriteBody(/*lbn=*/0, std::move(lbns), std::move(patterns), std::move(cb),
            WriteTag::kGcData);
}

void BizaArray::WriteBody(uint64_t lbn, std::vector<uint64_t> gather_lbns,
                          std::vector<uint64_t> patterns, WriteCallback cb,
                          WriteTag tag) {
  const bool gather = !gather_lbns.empty();
  const uint64_t nblocks = patterns.size();
  cpu_.Charge(kCpuCosts.request_overhead_ns);
  const bool is_gc_write =
      tag == WriteTag::kGcData || tag == WriteTag::kGcParity;

  // Legs: device writes, the parity writes of a degraded stripe, and a
  // stalled remainder.
  std::shared_ptr<WriteJoin> join = MakeJoin(std::move(cb));

  bool builder_touched[kNumBuilders] = {};

  // Per-device batching of appended chunks: stripes rotate chunks across
  // devices, but per-device allocations within one request stay physically
  // contiguous (sticky zone pick), so each device gets one large write per
  // request instead of per-4KiB commands.
  struct Batch {
    ZoneScheduler* sched = nullptr;
    uint64_t start = 0;
    std::vector<uint64_t> patterns;
    std::vector<OobRecord> oobs;
  };
  std::vector<Batch> batches(static_cast<size_t>(n_));
  auto flush_device_batch = [this, &join](int device, Batch& batch) {
    if (batch.sched == nullptr) {
      return;
    }
    WriteLeg(batch.sched, device, batch.start, std::move(batch.patterns),
             std::move(batch.oobs), join);
    batch = Batch{};
  };
  auto flush_batch = [&batches, &flush_device_batch, this]() {
    for (int d = 0; d < n_; ++d) {
      flush_device_batch(d, batches[static_cast<size_t>(d)]);
    }
  };

  for (uint64_t i = 0; i < nblocks; ++i) {
    const uint64_t target = gather ? gather_lbns[i] : lbn + i;
    const uint64_t pattern = patterns[i];

    // 1. Classify via the ghost caches (zone group selector, §4.2). GC
    //    migrations bypass classification: they always go to the GC
    //    destination zones through the GC stripe builder.
    GroupKind group = kGroupTrivial;
    int builder_class = 2;
    if (is_gc_write) {
      builder_class = kGcBuilder;
      group = kGroupGcDest;
    } else if (config_.enable_selector) {
      cpu_.Charge(kCpuCosts.ghost_cache_op_ns);
      switch (ghost_.OnWrite(target)) {
        case ChunkTier::kHighProfit:
          group = kGroupZrwa;
          builder_class = 0;
          break;
        case ChunkTier::kHighRevenue:
          group = kGroupGcAware;
          builder_class = 1;
          break;
        case ChunkTier::kTrivial:
          group = kGroupTrivial;
          builder_class = 2;
          break;
      }
    } else {
      // BIZAw/oSelector: spread chunks over the data groups blindly.
      builder_class = static_cast<int>(selector_rr_++ % 3);
      group = static_cast<GroupKind>(builder_class);
    }

    // 2. In-place ZRWA update when both the chunk and its stripe parity are
    //    still inside their sliding windows (§4.1's relaxation).
    cpu_.Charge(kCpuCosts.map_lookup_ns);
    // The one BMT lookup of this block: `mapped` stays valid across the
    // inserts below (BMT pages never move) and is updated in place.
    BmtEntry& mapped = bmt_.Mut(target);
    const BmtEntry entry = mapped;
    // Stripes awaiting rebuild are pinned out-of-place: an in-place update
    // would keep the stale stripe alive and the rebuild sweep could never
    // drain it. Chunks on a dead member can't be updated in place either.
    if (entry.pa != kInvalidPa && !StripeNeedsRebuild(entry.sn) &&
        !device_failed_[static_cast<size_t>(PaDevice(entry.pa))]) {
      ZoneScheduler* dsched = SchedOf(entry.pa);
      const uint64_t doff = PaOffset(entry.pa);
      if (dsched != nullptr && dsched->CanUpdateInPlace(doff)) {
        // Builder case: the stripe is still being built — refresh its
        // pattern so the eventual parity covers the new content; the PP
        // refresh at the end of this request picks it up.
        StripeBuilder* owner = nullptr;
        for (auto& builder : builders_) {
          if (builder.open && builder.sn == entry.sn) {
            owner = &builder;
            break;
          }
        }
        if (owner != nullptr) {
          for (size_t s = 0; s < owner->lbns.size(); ++s) {
            if (owner->lbns[s] == target) {
              owner->patterns[s] = pattern;
              break;
            }
          }
          stats_.inplace_updates++;
          cpu_.Charge(kCpuCosts.scheduler_op_ns);
          WriteLeg(dsched, PaDevice(entry.pa), doff, {pattern},
                   {OobRecord{target, entry.sn, tag}}, join);
          for (int b = 0; b < kNumBuilders; ++b) {
            if (&builders_[b] == owner) {
              builder_touched[b] = true;
            }
          }
          continue;
        }
        // Sealed-stripe case: needs in-place delta updates on ALL m
        // parities (linearity of the code makes each a local recompute).
        bool all_parities_updatable = true;
        for (int row = 0; row < m_; ++row) {
          const uint64_t ppa = SmtAt(entry.sn, row);
          ZoneScheduler* psched = SchedOf(ppa);
          if (psched == nullptr ||
              device_failed_[static_cast<size_t>(PaDevice(ppa))] ||
              !psched->CanUpdateInPlace(PaOffset(ppa))) {
            all_parities_updatable = false;
            break;
          }
        }
        if (all_parities_updatable) {
          const uint64_t old_data = dsched->PatternAt(doff);
          const int slot =
              m_ == 1 ? 0 : geometry_.DataSlotOf(entry.sn, PaDevice(entry.pa));
          cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib *
                      (kBlockSize / kKiB) * static_cast<SimTime>(m_));
          stats_.inplace_updates++;
          WriteLeg(dsched, PaDevice(entry.pa), doff, {pattern},
                   {OobRecord{target, entry.sn, tag}}, join);
          for (int row = 0; row < m_; ++row) {
            const uint64_t ppa = SmtAt(entry.sn, row);
            ZoneScheduler* psched = SchedOf(ppa);
            const uint64_t poff = PaOffset(ppa);
            const uint64_t old_parity = psched->PatternAt(poff);
            const uint64_t new_parity =
                m_ == 1 ? old_parity ^ old_data ^ pattern
                        : rs_->UpdateParityPattern(row, slot, old_parity,
                                                   old_data, pattern);
            stats_.parity_inplace_updates++;
            stats_.parity_writes++;
            WriteLeg(psched, PaDevice(ppa), poff, {new_parity},
                     {OobRecord{kParityLbnBase |
                                    (parity_version_++ & 0xFFFFFFFFULL),
                                entry.sn, WriteTag::kParity}},
                     join);
          }
          continue;
        }
      }
    }

    // 3. Out-of-place append into the class's stripe builder.
    StripeBuilder& builder = builders_[builder_class];
    if (!builder.open) {
      builder.open = true;
      builder.degraded = false;
      builder.sn = next_sn_++;
      // Write steering, part 1: ParityDrive(sn, row) is a pure function of
      // the stripe number (recovery recomputes it from OOB), so parity slots
      // cannot be remapped — instead burn sn values whose parity rotation
      // lands on a gray device. Burned stripes get empty table rows (no OOB
      // ever references them, so recovery is unaffected).
      if (health_ != nullptr) {
        auto parity_on_gray = [this](uint32_t sn) {
          for (int row = 0; row < m_; ++row) {
            if (health_->IsGray(geometry_.ParityDrive(sn, row))) {
              return true;
            }
          }
          return false;
        };
        int burned = 0;
        while (burned < n_ && parity_on_gray(builder.sn)) {
          for (int row = 0; row < m_; ++row) {
            smt_.push_back(kInvalidPa);
          }
          stripe_data_pa_.insert(stripe_data_pa_.end(),
                                 static_cast<size_t>(k_), kInvalidPa);
          stripe_live_.push_back(0);
          builder.sn = next_sn_++;
          burned++;
        }
        if (burned > 0) {
          stats_.steered_parity_stripes++;
        }
      }
      builder.patterns.clear();
      builder.patterns.reserve(static_cast<size_t>(k_));
      builder.lbns.clear();
      builder.lbns.reserve(static_cast<size_t>(k_));
      builder.parity_devices.assign(static_cast<size_t>(m_), -1);
      builder.parity_pa.assign(static_cast<size_t>(m_), kInvalidPa);
      for (int row = 0; row < m_; ++row) {
        builder.parity_devices[static_cast<size_t>(row)] =
            geometry_.ParityDrive(builder.sn, row);
      }
      for (int row = 0; row < m_; ++row) {
        smt_.push_back(kInvalidPa);
      }
      stripe_data_pa_.insert(stripe_data_pa_.end(), static_cast<size_t>(k_),
                             kInvalidPa);
      stripe_live_.push_back(0);
      assert(smt_.size() ==
             static_cast<size_t>(next_sn_) * static_cast<size_t>(m_));
    }
    builder_touched[builder_class] = true;
    const int slot = static_cast<int>(builder.patterns.size());
    const int device = geometry_.DataDrive(builder.sn, slot);
    const GroupKind dest_group =
        builder_class == kGcBuilder ? kGroupGcDest : group;
    if (!DeviceWritable(device)) {
      // Degraded write: the dead member's chunk is never written anywhere —
      // its content survives only XOR-ed into the stripe parity, and the
      // write may not be acknowledged until that parity is durable. The
      // phantom PA routes later reads of this chunk to the degraded path.
      cpu_.Charge(kCpuCosts.map_update_ns);
      InvalidateChunk(mapped);
      const uint64_t pa = PhantomPa(device);
      mapped = BmtEntry{pa, builder.sn};
      SetStripeDataPa(builder.sn, slot, pa);
      stripe_live_[builder.sn]++;
      builder.patterns.push_back(pattern);
      builder.lbns.push_back(target);
      builder.degraded = true;
      stats_.degraded_writes++;
      if (static_cast<int>(builder.patterns.size()) == k_) {
        WriteStripeParity(builder,
                          builder_class == kGcBuilder ? WriteTag::kGcParity
                                                      : WriteTag::kParity,
                          join);
        builder_touched[builder_class] = false;  // parity already final
      }
      continue;
    }
    ZoneScheduler* sched = PickZone(device, dest_group, 1);
    if (sched == nullptr) {
      if (is_gc_write) {
        // Should not happen: GC destinations draw on the reserve.
        join->Fail(ResourceExhaustedError("biza: GC destination exhausted"));
        break;
      }
      // Backpressure: park the unprocessed tail of this request until GC
      // frees a zone; completion waits for the retried remainder.
      MaybeStartGc();
      if (!gc_active_) {
        // No reclaimable victim yet (the garbage sits in zones that have
        // not sealed): emergency-replenish this group from the reserve and
        // retry once rather than wedging.
        if (ReplenishGroup(device, dest_group, /*emergency=*/true)) {
          sched = PickZone(device, dest_group, 1);
        }
      }
      if (sched == nullptr) {
        if (fail_stalled_) {
          // Retries made no progress for many rounds: genuine ENOSPC.
          join->Fail(ResourceExhaustedError("biza: array is full"));
          break;
        }
        // Park the remainder until GC or a zone seal frees space; it holds
        // one leg of the join until its own retry completes.
        const uint64_t rem_lbn = lbn + i;
        std::vector<uint64_t> rem(patterns.begin() + static_cast<long>(i),
                                  patterns.end());
        std::vector<uint64_t> rem_lbns;
        if (gather) {
          rem_lbns.assign(gather_lbns.begin() + static_cast<long>(i),
                          gather_lbns.end());
        }
        stats_.write_stalls++;
        join->Add();
        stalled_writes_.push_back(
            [this, rem_lbn, rem_lbns = std::move(rem_lbns),
             rem = std::move(rem), tag, join]() mutable {
              WriteBody(rem_lbn, std::move(rem_lbns), std::move(rem),
                        Leg(std::move(join)), tag);
            });
        ArmStallTimer();
        break;
      }
      // Emergency replenishment succeeded: continue with the allocation.
    }
    const uint64_t off = sched->Allocate(1);
    const uint64_t pa = MakePa(device, sched->zone(), off, zone_cap_);

    cpu_.Charge(kCpuCosts.map_update_ns);
    InvalidateChunk(mapped);
    mapped = BmtEntry{pa, builder.sn};
    ZoneOf(device, sched->zone()).valid++;
    SetStripeDataPa(builder.sn, slot, pa);
    stripe_live_[builder.sn]++;

    builder.patterns.push_back(pattern);
    builder.lbns.push_back(target);
    stats_.appended_chunks++;
    cpu_.Charge(kCpuCosts.scheduler_op_ns);

    // Batch contiguous writes per device.
    Batch& dev_batch = batches[static_cast<size_t>(device)];
    if (dev_batch.sched == sched &&
        dev_batch.start + dev_batch.patterns.size() == off) {
      dev_batch.patterns.push_back(pattern);
      dev_batch.oobs.push_back(OobRecord{target, builder.sn, tag});
    } else {
      flush_device_batch(device, dev_batch);
      dev_batch.sched = sched;
      dev_batch.start = off;
      dev_batch.patterns = {pattern};
      dev_batch.oobs = {OobRecord{target, builder.sn, tag}};
    }

    if (static_cast<int>(builder.patterns.size()) == k_) {
      // Stripe sealed: final parity.
      WriteStripeParity(builder,
                        builder_class == kGcBuilder ? WriteTag::kGcParity
                                                    : WriteTag::kParity,
                        join);
      builder_touched[builder_class] = false;  // parity already final
    }
  }
  flush_batch();

  // Partial parities for builders this request touched and left open.
  for (int b = 0; b < kNumBuilders; ++b) {
    StripeBuilder& builder = builders_[b];
    if (builder_touched[b] && builder.open && !builder.patterns.empty()) {
      WriteStripeParity(builder,
                        b == kGcBuilder ? WriteTag::kGcParity : WriteTag::kParity,
                        join);
    }
  }

  join->Done();  // the dispatch guard
  MaybeStartGc();
}

std::vector<uint64_t> BizaArray::ComputeParities(
    const std::vector<uint64_t>& data) const {
  if (m_ == 1) {
    return {XorParity(data)};
  }
  // Zero-pad the unfilled slots: unwritten device blocks read back as zero,
  // so the padding convention matches the physical stripe contents.
  std::vector<uint64_t> padded(static_cast<size_t>(k_), 0);
  std::copy(data.begin(), data.end(), padded.begin());
  return rs_->EncodePatterns(padded);
}

void BizaArray::WriteStripeParity(StripeBuilder& builder, WriteTag tag,
                                  const std::shared_ptr<WriteJoin>& join) {
  cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / kKiB) *
              static_cast<SimTime>(m_));
  const std::vector<uint64_t> parities = ComputeParities(builder.patterns);
  const bool final = static_cast<int>(builder.patterns.size()) == k_;

  for (int row = 0; row < m_; ++row) {
    stats_.parity_writes++;
    const uint64_t parity = parities[static_cast<size_t>(row)];
    uint64_t& ppa = builder.parity_pa[static_cast<size_t>(row)];
    const int pdevice = builder.parity_devices[static_cast<size_t>(row)];
    if (!DeviceWritable(pdevice)) {
      // Parity member is dead: leave the row unwritten. Degraded reads fall
      // back to the surviving rows; rebuild re-homes the whole stripe.
      if (ppa != kInvalidPa) {
        InvalidatePa(ppa);
      }
      ppa = kInvalidPa;
      SmtSet(builder.sn, row, kInvalidPa);
      continue;
    }
    ZoneScheduler* psched = SchedOf(ppa);
    uint64_t poff = ppa == kInvalidPa ? 0 : PaOffset(ppa);
    const OobRecord oob{kParityLbnBase | (parity_version_++ & 0xFFFFFFFFULL),
                        builder.sn, tag};
    if (psched != nullptr && psched->CanUpdateInPlace(poff)) {
      // Partial parity refresh absorbed in ZRWA (§4.2: partial parities
      // always get the ZRWA without consulting the ghost caches).
      stats_.parity_inplace_updates++;
    } else {
      if (ppa != kInvalidPa) {
        InvalidatePa(ppa);
      }
      psched = PickZone(pdevice, kGroupParity, 1);
      if (psched == nullptr) {
        // Parity zones draw on the reserve, so this is a genuine
        // exhaustion. Leave this parity row unwritten; degraded reads fall
        // back to the surviving rows.
        BIZA_LOG_ERROR("biza: no parity zone available on device %d", pdevice);
        ppa = kInvalidPa;
        SmtSet(builder.sn, row, kInvalidPa);
        continue;
      }
      poff = psched->Allocate(1);
      ppa = MakePa(pdevice, psched->zone(), poff, zone_cap_);
      ZoneOf(pdevice, psched->zone()).valid++;
    }
    // A degraded stripe's phantom chunks live ONLY in the parity, so the
    // user's write acknowledgement must additionally wait for parity
    // durability; healthy-stripe acks keep their original timing.
    WriteLeg(psched, pdevice, poff, {parity}, {oob}, join,
             /*leg=*/builder.degraded);
    SmtSet(builder.sn, row, ppa);
  }
  if (final) {
    builder.open = false;
    builder.degraded = false;
  }
}

void BizaArray::WriteLeg(ZoneScheduler* sched, int device, uint64_t offset,
                         std::vector<uint64_t> patterns,
                         std::vector<OobRecord> oobs,
                         const std::shared_ptr<WriteJoin>& join, bool leg) {
  if (leg) {
    join->Add();
  }
  const uint32_t zone = sched->zone();
  const SimTime submitted = sim_->Now();
  sched->SubmitWrite(
      offset, std::move(patterns), std::move(oobs),
      [this, join, device, zone, submitted, leg](const Status& status) {
        if (status.code() == ErrorCode::kUnavailable) {
          OnDeviceUnavailable(device);
        }
        if (!leg && !status.ok()) {
          // Nothing waits on this write, so the log is its only witness.
          BIZA_LOG_ERROR("biza: parity write failed: %s",
                         status.ToString().c_str());
        }
        RecordCompletion(device, zone, submitted);
        if (leg) {
          join->Done(status);
        }
      });
}

// ---------------------------------------------------------------------------
// Read path (with degraded-mode reconstruction)
// ---------------------------------------------------------------------------

void BizaArray::SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  if (front_.AdmitRead(lbn, nblocks, cb)) {
    ReadBody(lbn, nblocks, std::move(cb));
  }
}

void BizaArray::ReadBody(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  cpu_.Charge(kCpuCosts.request_overhead_ns);
  // Legs: device runs, degraded reconstructions and mitigated reads. A run
  // whose path fails under it is re-dispatched through ReadBody, whose
  // fresh BMT lookup re-decides the path; its result lands as a run leg.
  auto join = MakeReadJoin(nblocks, std::move(cb));

  uint64_t i = 0;
  while (i < nblocks) {
    cpu_.Charge(kCpuCosts.map_lookup_ns);
    const BmtEntry entry = BmtGet(lbn + i);
    if (entry.pa == kInvalidPa) {
      i++;  // never written: reads as zero
      continue;
    }
    const int device = PaDevice(entry.pa);
    if (IsPhantomPa(entry.pa) || device_failed_[static_cast<size_t>(device)]) {
      // Degraded read: rebuild the chunk from its stripe peers. Phantom
      // chunks (degraded writes) are ALWAYS read this way — they were never
      // written anywhere and exist only in the stripe parity.
      stats_.degraded_reads++;
      join->Add();
      ReconstructFromPeers(entry, StripePeers(entry), BlockLeg(join, i));
      i++;
      continue;
    }

    join->Add();
    const uint64_t out_at = i;
    const uint64_t target = lbn + i;
    // Gray-failure mitigation (DESIGN.md §6): a suspect or gray device's
    // block is raced against, or rebuilt from, its stripe peers.
    if (MitigateRead(sim_, health_, device, &stats_.mitigation, [&] {
          // Re-dispatch for the fallback and the redrive.
          auto redispatch = [this, target, leg = RunLeg(join, out_at)] {
            ReadBody(target, 1, leg);
          };
          return ReadLegs{
              .can_reconstruct =
                  [this, target, entry] {
                    // The mapping or the stripe may have changed since the
                    // block was looked up.
                    const BmtEntry cur = BmtGet(target);
                    return cur.pa == entry.pa && cur.sn == entry.sn &&
                           CanMitigateRead(cur);
                  },
              .direct =
                  [this, device, entry](ReadLegs::Done done) {
                    DeviceRead(device, entry.pa, 1,
                               [done = std::move(done)](
                                   const Status& s, std::vector<uint64_t> p) {
                                 done(s, p.empty() ? 0 : p[0]);
                               });
                  },
              .reconstruct =
                  [this, target, entry](ReadLegs::Done done) {
                    ReconstructChunk(target, entry, std::move(done));
                  },
              .deliver = BlockLeg(join, out_at),
              .fallback = redispatch,
              .redrive =
                  [this, device, redispatch] {
                    OnDeviceUnavailable(device);
                    redispatch();
                  },
          };
        })) {
      i++;
      continue;
    }

    // Merge a physically-contiguous run (same device and zone).
    uint64_t run = 1;
    while (i + run < nblocks) {
      const uint64_t next_pa = BmtGet(lbn + i + run).pa;
      if (next_pa != entry.pa + run || PaZone(next_pa) != PaZone(entry.pa)) {
        break;
      }
      run++;
    }
    DeviceRead(device, entry.pa, run,
               [this, leg = RunLeg(join, out_at), target, run, device](
                   const Status& status, std::vector<uint64_t> pats) {
                 if (status.code() == ErrorCode::kUnavailable) {
                   // The device died under this read: flag it and
                   // re-dispatch the run through the degraded path above.
                   OnDeviceUnavailable(device);
                   ReadBody(target, run, leg);
                   return;
                 }
                 leg(status, std::move(pats));
               });
    i += run;
  }
  join->Done();  // the dispatch guard
}

void BizaArray::FlushBuffers(std::function<void()> done) {
  // ZRWA is non-volatile on-device buffer (battery-backed DRAM / NVM / SLC,
  // §3.1): nothing volatile to flush.
  done();
}

void BizaArray::SetDeviceFailed(int device, bool failed) {
  device_failed_[static_cast<size_t>(device)] = failed;
}

void BizaArray::DeviceRead(
    int device, uint64_t pa, uint64_t nblocks,
    std::function<void(const Status&, std::vector<uint64_t>)> cb) {
  IssueWithRetry(
      sim_, &stats_.read_retries,
      [this, device, pa, nblocks](auto on_complete) {
        devices_[static_cast<size_t>(device)]->SubmitRead(
            PaZone(pa), PaOffset(pa), nblocks, std::move(on_complete));
      },
      // Feeds the monitor the end-to-end read latency, retries included: a
      // device needing retries IS slow from the array's point of view.
      [this, device, health = health_, submitted = sim_->Now(),
       cb = std::move(cb)](const Status& status,
                           std::vector<uint64_t> patterns) {
        if (health != nullptr) {
          health->RecordLatency(device, DeviceHealthMonitor::Kind::kRead, -1,
                                sim_->Now() - submitted, sim_->Now());
        }
        cb(status, std::move(patterns));
      });
}

// ---------------------------------------------------------------------------
// Gray-failure mitigation plane
// ---------------------------------------------------------------------------

void BizaArray::SetHealthMonitor(DeviceHealthMonitor* monitor) {
  health_ = monitor;
  if (health_ == nullptr) {
    return;
  }
  // Write steering, part 2: the moment a device turns gray, cap in-flight
  // writes to it so queued stripes drain at its pace instead of convoying;
  // clear the cap the moment it leaves gray.
  health_->SetTransitionHook([this](int device, DeviceHealth from,
                                    DeviceHealth to) {
    if (to == DeviceHealth::kGray) {
      ApplyInflightCap(device, DeviceHealthMonitor::kGrayInflightCap);
    } else if (from == DeviceHealth::kGray) {
      ApplyInflightCap(device, 0);
    }
  });
}

void BizaArray::ApplyInflightCap(int device, uint64_t cap) {
  if (device < 0 || device >= n_) {
    return;
  }
  for (DevZone& z : zones_[static_cast<size_t>(device)]) {
    if (z.sched != nullptr) {
      z.sched->SetInflightCap(cap);
    }
  }
}

bool BizaArray::PaStable(uint64_t pa) const {
  const DevZone& z =
      zones_[static_cast<size_t>(PaDevice(pa))][PaZone(pa)];
  if (z.use == ZoneUse::kSealed) {
    return true;  // immutable until the next reset (epoch-guarded)
  }
  return z.use == ZoneUse::kActive && z.sched != nullptr &&
         z.sched->StableAt(PaOffset(pa));
}

bool BizaArray::CanMitigateRead(const BmtEntry& entry) const {
  if (entry.pa == kInvalidPa || IsPhantomPa(entry.pa)) {
    return false;
  }
  // Every peer the reconstruct would read must be durable and quiescent on
  // a usable, non-gray device — otherwise going around the slow device is
  // either incorrect (torn in-place update) or pointless (the peer is just
  // as slow). All m parity rows must be present: for m = 1 the XOR needs
  // its parity, and for m >= 2 requiring the full set keeps the shard count
  // at k + m - 1 >= k without per-row arithmetic.
  for (const Peer& peer : StripePeers(entry)) {
    if (peer.pa == kInvalidPa || IsPhantomPa(peer.pa)) {
      return false;
    }
    const int d = PaDevice(peer.pa);
    if (device_failed_[static_cast<size_t>(d)] ||
        (health_ != nullptr && health_->IsGray(d)) || !PaStable(peer.pa)) {
      return false;
    }
  }
  return true;
}

std::vector<BizaArray::Peer> BizaArray::StripePeers(
    const BmtEntry& entry) const {
  std::vector<Peer> peers;
  peers.reserve(static_cast<size_t>(k_ + m_));
  for (int slot = 0; slot < k_; ++slot) {
    const uint64_t pa = StripeDataPa(entry.sn, slot);
    if (pa != entry.pa && pa != kInvalidPa) {
      peers.push_back(Peer{pa, slot});
    }
  }
  for (int row = 0; row < m_; ++row) {
    peers.push_back(Peer{SmtAt(entry.sn, row), k_ + row});
  }
  return peers;
}

void BizaArray::ReconstructFromPeers(const BmtEntry& entry,
                                     const std::vector<Peer>& peers,
                                     ChunkCallback cb) {
  cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / kKiB) *
              static_cast<SimTime>(k_));
  // Shards are slot-identified: data slots first, then parity rows. A slot
  // no peer fills is an unfilled data slot and stays zero, which is what
  // the stripe's parity was computed over.
  struct Shards {
    std::vector<uint64_t> patterns;
    std::vector<bool> present;
  };
  const size_t width = static_cast<size_t>(k_ + m_);
  const int target = geometry_.DataSlotOf(entry.sn, PaDevice(entry.pa));
  Shards shards{std::vector<uint64_t>(width, 0), std::vector<bool>(width, true)};
  shards.present[static_cast<size_t>(target)] = false;
  int erasures = 1;
  for (const Peer& peer : peers) {
    if (peer.pa == kInvalidPa || IsPhantomPa(peer.pa) ||
        device_failed_[static_cast<size_t>(PaDevice(peer.pa))]) {
      shards.present[static_cast<size_t>(peer.slot)] = false;
      erasures++;
    }
  }
  if (erasures > m_) {
    cb(DataLossError("biza: more stripe erasures than parities"), 0);
    return;
  }
  auto join = MakeJoin(
      std::move(shards),
      [this, target, cb = std::move(cb)](const Status& status, Shards read) {
        if (!status.ok()) {
          cb(status, 0);
          return;
        }
        if (m_ == 1) {
          // The erased chunk is the XOR of every other shard.
          cb(OkStatus(), XorParity(read.patterns));
          return;
        }
        const Status decoded =
            rs_->ReconstructPatterns(read.patterns, read.present);
        if (!decoded.ok()) {
          BIZA_LOG_ERROR("RS reconstruction failed: %s",
                         decoded.ToString().c_str());
          cb(decoded, 0);
          return;
        }
        cb(OkStatus(), read.patterns[static_cast<size_t>(target)]);
      });
  for (const Peer& peer : peers) {
    if (!join->data.present[static_cast<size_t>(peer.slot)]) {
      continue;
    }
    join->Add();
    DeviceRead(PaDevice(peer.pa), peer.pa, 1,
               [join, slot = peer.slot](const Status& status,
                                        std::vector<uint64_t> pats) {
                 if (status.ok()) {
                   join->data.patterns[static_cast<size_t>(slot)] = pats[0];
                 }
                 join->Done(status);
               });
  }
  join->Done();  // the dispatch guard
}

void BizaArray::ReconstructChunk(uint64_t lbn, const BmtEntry& entry,
                                 ChunkCallback cb) {
  // Mitigation-only reconstruction: unlike the degraded path this runs
  // while the array is healthy, so concurrent writes, GC migrations, and
  // zone resets can invalidate the peers mid-flight. Defense: snapshot
  // enough per-peer context at submission to PROVE, at completion, that
  // the bytes read are the bytes that were stable at submission — the
  // stripe tables still point at the snapshotted PAs, sealed peers kept
  // their zone epoch (no reset), active peers kept their scheduler pattern
  // (no completed overwrite) and stability. Any mismatch returns
  // kFailedPrecondition and the caller falls back to a direct read.
  struct Snapshot {
    Peer peer;
    bool active = false;
    uint64_t epoch = 0;
    uint64_t pattern = 0;  // PatternAt snapshot (active peers only)
  };
  const std::vector<Peer> peers = StripePeers(entry);
  std::vector<Snapshot> snapshots;
  snapshots.reserve(peers.size());
  for (const Peer& peer : peers) {
    const DevZone& z =
        zones_[static_cast<size_t>(PaDevice(peer.pa))][PaZone(peer.pa)];
    Snapshot snap{peer, z.use == ZoneUse::kActive, z.epoch, 0};
    if (snap.active) {
      snap.pattern = z.sched->PatternAt(PaOffset(peer.pa));
    }
    snapshots.push_back(snap);
  }
  ReconstructFromPeers(
      entry, peers,
      [this, lbn, entry, snapshots = std::move(snapshots), cb = std::move(cb)](
          const Status& status, uint64_t chunk) {
        if (!status.ok()) {
          cb(status, 0);
          return;
        }
        // Completion-time revalidation (see the defense note above).
        const BmtEntry cur = BmtGet(lbn);
        bool valid = cur.pa == entry.pa && cur.sn == entry.sn;
        for (const Snapshot& snap : snapshots) {
          if (!valid) {
            break;
          }
          const uint64_t pa = snap.peer.pa;
          const uint64_t table_pa =
              snap.peer.slot < k_ ? StripeDataPa(entry.sn, snap.peer.slot)
                                  : SmtAt(entry.sn, snap.peer.slot - k_);
          const DevZone& z =
              zones_[static_cast<size_t>(PaDevice(pa))][PaZone(pa)];
          valid = table_pa == pa && z.epoch == snap.epoch;
          if (valid && snap.active) {
            valid = z.use == ZoneUse::kActive && z.sched != nullptr &&
                    z.sched->StableAt(PaOffset(pa)) &&
                    z.sched->PatternAt(PaOffset(pa)) == snap.pattern;
          } else if (valid) {
            valid = z.use == ZoneUse::kSealed;
          }
        }
        if (!valid) {
          cb(FailedPreconditionError("recon sources changed in flight"), 0);
          return;
        }
        cb(OkStatus(), chunk);
      });
}

// ---------------------------------------------------------------------------
// Online rebuild (ReplaceDevice; the sweep is RebuildSweep in
// src/engines/rebuild.h)
// ---------------------------------------------------------------------------

Status BizaArray::ReplaceDevice(int device, ZnsDevice* replacement) {
  if (Status status = rebuild_.CanStart(device); !status.ok()) {
    return status;
  }
  if (replacement == nullptr ||
      replacement->config().zone_capacity_blocks != zone_cap_ ||
      replacement->config().num_zones != num_zones_) {
    return InvalidArgumentError("replace: incompatible replacement device");
  }
  devices_[static_cast<size_t>(device)] = replacement;

  // Purge every reference to the dead device's blocks. Data chunks become
  // phantoms (content recoverable from survivors + parity), parity rows
  // become unwritten. Every touched stripe is then queued for migration:
  // the rebuilder re-homes its live chunks through the normal write path so
  // the whole stale stripe — phantoms included — dies, which is why the
  // replacement never needs direct parity reconstruction writes.
  rebuild_touched_.assign(stripe_live_.size(), 0);
  for (uint32_t sn = 0; sn < next_sn_; ++sn) {
    for (int slot = 0; slot < k_; ++slot) {
      const uint64_t pa = StripeDataPa(sn, slot);
      if (pa == kInvalidPa || PaDevice(pa) != device) {
        continue;
      }
      if (!IsPhantomPa(pa)) {
        SetStripeDataPa(sn, slot, PhantomPa(device));
      }
      rebuild_touched_[sn] = 1;
    }
    for (int row = 0; row < m_; ++row) {
      const uint64_t ppa = SmtAt(sn, row);
      if (ppa != kInvalidPa && PaDevice(ppa) == device) {
        SmtSet(sn, row, kInvalidPa);
        rebuild_touched_[sn] = 1;
      }
    }
    // A stripe written while a member was down may hold a phantom data
    // chunk or an unwritten parity row without holding any PA on the
    // replaced device (a dead parity member's row is never written, so
    // there is no PA to see). Such stripes run below full redundancy:
    // re-home them too, or the array stays silently degraded after every
    // member has been replaced.
    if (rebuild_touched_[sn] == 0 && stripe_live_[sn] > 0) {
      bool below_redundancy = false;
      for (int slot = 0; slot < k_ && !below_redundancy; ++slot) {
        below_redundancy = IsPhantomPa(StripeDataPa(sn, slot));
      }
      for (int row = 0; row < m_ && !below_redundancy; ++row) {
        below_redundancy = SmtAt(sn, row) == kInvalidPa;
      }
      if (below_redundancy) {
        rebuild_touched_[sn] = 1;
      }
    }
  }
  for (auto& builder : builders_) {
    if (!builder.open) {
      continue;
    }
    for (int row = 0; row < m_; ++row) {
      uint64_t& ppa = builder.parity_pa[static_cast<size_t>(row)];
      if (ppa != kInvalidPa && PaDevice(ppa) == device) {
        ppa = kInvalidPa;
      }
    }
  }
  bmt_.ForEach([&](uint64_t, BmtEntry& entry) {
    if (entry.pa != kInvalidPa && !IsPhantomPa(entry.pa) &&
        PaDevice(entry.pa) == device) {
      entry.pa = PhantomPa(device);
    }
  });

  // Fresh bookkeeping for the (empty) replacement.
  for (uint32_t zone = 0; zone < num_zones_; ++zone) {
    DevZone& z = ZoneOf(device, zone);
    SetZoneUse(device, zone, ZoneUse::kFree);
    z.valid = 0;
    z.sched.reset();
    z.seal_pending = false;
    z.epoch++;  // the old device's content is gone
  }
  detectors_[static_cast<size_t>(device)] =
      std::make_unique<ChannelDetector>(config_.detector, num_zones_);
  auto& cooldowns = channel_busy_until_[static_cast<size_t>(device)];
  cooldowns.assign(cooldowns.size(), 0);
  for (auto& group : groups_[static_cast<size_t>(device)]) {
    group = ZoneGroup{};
  }

  rebuild_.Start(device, health_);
  InitDeviceGroups(device, /*fresh=*/true);
  return OkStatus();
}

// Foreground overwrites retire queued lbns on their own, but a migration can
// land in a builder whose stripe later fails its parity write, so every pass
// ends with a rescan.
void BizaArray::RebuildRescan(std::function<void(RebuildSweep::Keys)> next) {
  // BMT visit order is not lbn order: collect then sort so the rebuilder
  // sweeps ascending lbn exactly as the dense table did (determinism + run
  // merging).
  std::vector<uint64_t> lbns;
  bmt_.ForEach([&](uint64_t lbn, const BmtEntry& entry) {
    if (entry.pa != kInvalidPa && StripeNeedsRebuild(entry.sn)) {
      lbns.push_back(lbn);
    }
  });
  std::sort(lbns.begin(), lbns.end());
  next(std::move(lbns));
}

bool BizaArray::RebuildTake(uint64_t lbn) {
  // An lbn overwritten or already re-homed needs no more work.
  const BmtEntry entry = BmtGet(lbn);
  return entry.pa != kInvalidPa && StripeNeedsRebuild(entry.sn);
}

void BizaArray::RebuildEnd(bool) {
  rebuild_touched_.clear();
  RetryStalled();
}

void BizaArray::RebuildMigrate(RebuildSweep::Keys lbns,
                               const RebuildSweep::Token& token) {
  // One array read per contiguous-lbn run; the surviving chunks re-home
  // through one gather write (one stripe-append burst, one parity refresh),
  // issued when the last run read releases the gather. The write holds the
  // token until it lands, so the throttle interval starts once the batch is
  // durable.
  struct RebuildGather {
    BizaArray* array;
    RebuildSweep::Token token;
    std::vector<uint64_t> lbns;
    std::vector<uint64_t> patterns;
    ~RebuildGather() {
      if (lbns.empty()) {
        return;
      }
      array->rebuild_.CountMigrated(lbns.size());
      array->WriteGather(std::move(lbns), std::move(patterns),
                         [token = token](const Status&) {});
    }
  };
  auto gather = std::make_shared<RebuildGather>();
  gather->array = this;
  gather->token = token;
  size_t idx = 0;
  while (idx < lbns.size()) {
    size_t run = 1;
    while (idx + run < lbns.size() && lbns[idx + run] == lbns[idx] + run) {
      run++;
    }
    const uint64_t start_lbn = lbns[idx];
    std::vector<BmtEntry> snap(run);
    for (size_t j = 0; j < run; ++j) {
      snap[j] = BmtGet(start_lbn + j);
    }
    ReadBody(
        start_lbn, run,
        [this, gather, start_lbn, snap = std::move(snap)](
            const Status& status, std::vector<uint64_t> patterns) {
          for (size_t j = 0; j < snap.size(); ++j) {
            const uint64_t lbn = start_lbn + j;
            uint64_t pattern = 0;
            if (status.ok() && j < patterns.size()) {
              pattern = patterns[j];
            } else {
              // Unrecoverable chunk (e.g. a second failure under rebuild):
              // re-home zeros so the rebuild still terminates, and shout.
              BIZA_LOG_ERROR("rebuild: lbn %llu unreadable (%s) — data loss",
                             static_cast<unsigned long long>(lbn),
                             status.ToString().c_str());
            }
            const BmtEntry now = BmtGet(lbn);
            if (now.pa != snap[j].pa || now.sn != snap[j].sn) {
              continue;  // overwritten while the read was in flight
            }
            gather->lbns.push_back(lbn);
            gather->patterns.push_back(pattern);
          }
        });
    idx += run;
  }
}

// ---------------------------------------------------------------------------
// Garbage collection with GC avoidance (§4.3)
// ---------------------------------------------------------------------------

void BizaArray::SetZoneUse(int device, uint32_t zone, ZoneUse use) {
  DevZone& z = ZoneOf(device, zone);
  uint64_t& free = free_zones_[static_cast<size_t>(device)];
  if (z.use == ZoneUse::kFree) {
    free--;
  }
  if (use == ZoneUse::kFree) {
    free++;
  }
  z.use = use;
}

std::pair<int, uint32_t> BizaArray::PickGcVictim() const {
  // Space pressure is per-device (a starved device cannot borrow another's
  // free zones), so victims come from the most-starved device that still
  // has a reclaimable zone; the greedy min-valid rule applies within it.
  std::vector<int> order(static_cast<size_t>(n_));
  for (int d = 0; d < n_; ++d) {
    order[static_cast<size_t>(d)] = d;
  }
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    return FreeZonesOf(a) < FreeZonesOf(b);
  });
  for (int d : order) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;  // its zones are unreadable; rebuild re-homes them instead
    }
    uint32_t best_zone = 0;
    double best_score = 1.1;
    for (uint32_t zone = 0; zone < num_zones_; ++zone) {
      const DevZone& z = zones_[static_cast<size_t>(d)][zone];
      if (z.use != ZoneUse::kSealed) {
        continue;
      }
      const double score =
          static_cast<double>(z.valid) / static_cast<double>(zone_cap_);
      if (score < best_score) {
        best_score = score;
        best_zone = zone;
      }
    }
    if (best_score <= 0.999) {
      // Churn guard: a fully-valid victim frees nothing; try the next
      // device rather than spinning on this one.
      return {d, best_zone};
    }
  }
  return {-1, 0};
}

bool BizaArray::ForceSealGarbageZone() {
  int best_device = -1;
  uint32_t best_zone = 0;
  double best_ratio = 0.999;
  for (int d = 0; d < n_; ++d) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;
    }
    for (uint32_t zone = 0; zone < num_zones_; ++zone) {
      DevZone& z = ZoneOf(d, zone);
      if (z.use != ZoneUse::kActive || !z.sched || !z.sched->Idle() ||
          z.sched->alloc_ptr() == 0) {
        continue;
      }
      const double ratio = static_cast<double>(z.valid) /
                           static_cast<double>(z.sched->alloc_ptr());
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_device = d;
        best_zone = zone;
      }
    }
  }
  if (best_device < 0) {
    return false;
  }
  // Detach from its group and seal in place (the unallocated tail is
  // wasted; the reset after collection reclaims the whole zone).
  DevZone& z = ZoneOf(best_device, best_zone);
  for (auto& group : groups_[static_cast<size_t>(best_device)]) {
    auto it = std::find(group.zones.begin(), group.zones.end(), best_zone);
    if (it != group.zones.end()) {
      group.zones.erase(it);
      if (group.rr >= group.zones.size()) {
        group.rr = 0;
      }
      break;
    }
  }
  const Status status = z.sched->SealPartial();
  if (!status.ok()) {
    BIZA_LOG_WARN("force seal failed: %s", status.ToString().c_str());
    return false;
  }
  z.sched.reset();
  z.seal_pending = false;
  SetZoneUse(best_device, best_zone, ZoneUse::kSealed);
  return true;
}

void BizaArray::MaybeStartGc() {
  if (gc_active_) {
    return;
  }
  bool low = false;
  for (int d = 0; d < n_; ++d) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;  // a dead member's space pressure is the rebuilder's problem
    }
    const double free_ratio = static_cast<double>(FreeZonesOf(d)) /
                              static_cast<double>(num_zones_);
    if (free_ratio < config_.gc_trigger_free_ratio) {
      low = true;
      break;
    }
  }
  if (!low) {
    return;
  }
  auto [device, zone] = PickGcVictim();
  if (device < 0) {
    // Garbage may be trapped in active zones (they only seal when full):
    // force-seal the most-dead idle one and retry.
    if (!ForceSealGarbageZone()) {
      return;
    }
    std::tie(device, zone) = PickGcVictim();
    if (device < 0) {
      return;
    }
  }
  gc_active_ = true;
  gc_device_ = device;
  gc_victim_zone_ = zone;
  gc_scan_ = 0;
  stats_.gc_runs++;

  // BUSY-tag the channels of the GC destination zones on every device (the
  // "GC-interfered" zones receiving migrated chunks).
  gc_busy_channel_set_.assign(static_cast<size_t>(n_), -1);
  gc_busy_confirmed_set_.assign(static_cast<size_t>(n_), false);
  gc_victim_channel_ =
      detectors_[static_cast<size_t>(gc_device_)]->ChannelOf(gc_victim_zone_);
  gc_victim_confirmed_ =
      detectors_[static_cast<size_t>(gc_device_)]->IsConfirmed(gc_victim_zone_);
  for (int d = 0; d < n_; ++d) {
    const auto& dest = groups_[static_cast<size_t>(d)][kGroupGcDest];
    if (!dest.zones.empty()) {
      const uint32_t dest_zone = dest.zones[dest.rr % dest.zones.size()];
      gc_busy_channel_set_[static_cast<size_t>(d)] =
          detectors_[static_cast<size_t>(d)]->ChannelOf(dest_zone);
      gc_busy_confirmed_set_[static_cast<size_t>(d)] =
          detectors_[static_cast<size_t>(d)]->IsConfirmed(dest_zone);
    }
  }
  sim_->Schedule(0, [this]() { GcStep(); });
}

void BizaArray::ArmStallTimer() {
  if (stall_timer_armed_) {
    return;
  }
  stall_timer_armed_ = true;
  sim_->Schedule(5 * kMillisecond, [this]() {
    stall_timer_armed_ = false;
    // Detect futility: if nothing has been reclaimed or appended since the
    // last retry round, parked writes cannot make progress; after enough
    // futile rounds the array is genuinely full and they must fail.
    const uint64_t progress =
        stats_.gc_zone_resets + stats_.appended_chunks + stats_.gc_runs;
    if (progress == stall_progress_marker_) {
      if (++stall_futile_rounds_ > 50) {
        fail_stalled_ = true;
      }
    } else {
      stall_futile_rounds_ = 0;
    }
    stall_progress_marker_ = progress;
    MaybeStartGc();
    RetryStalled();  // the deferred drain clears fail_stalled_ when done
  });
}

void BizaArray::RetryStalled() {
  // Always deferred: a retry re-enters WriteBody, and callers of
  // RetryStalled may themselves be inside WriteBody (synchronous
  // completion paths) — re-entrant builder mutation corrupts stripes.
  if (stalled_writes_.empty() || retry_scheduled_) {
    return;
  }
  retry_scheduled_ = true;
  sim_->Schedule(0, [this]() {
    retry_scheduled_ = false;
    std::vector<std::function<void()>> retry;
    retry.swap(stalled_writes_);
    for (auto& fn : retry) {
      fn();
    }
    fail_stalled_ = false;  // ENOSPC mode applies to one drain round only
  });
}

void BizaArray::FinishGcVictim() {
  DevZone& vz = ZoneOf(gc_device_, gc_victim_zone_);
  // The reset's erase occupies the victim channel for several ms: keep it
  // tagged BUSY for that long so writes steer clear of the erase hammer.
  if (gc_victim_channel_ >= 0) {
    auto& cooldowns = channel_busy_until_[static_cast<size_t>(gc_device_)];
    if (static_cast<size_t>(gc_victim_channel_) < cooldowns.size()) {
      cooldowns[static_cast<size_t>(gc_victim_channel_)] =
          sim_->Now() +
          devices_[static_cast<size_t>(gc_device_)]->config().timing.die_erase_ns;
    }
  }
  (void)devices_[static_cast<size_t>(gc_device_)]->ResetZone(gc_victim_zone_);
  detectors_[static_cast<size_t>(gc_device_)]->OnZoneReset(gc_victim_zone_);
  SetZoneUse(gc_device_, gc_victim_zone_, ZoneUse::kFree);
  vz.valid = 0;
  vz.epoch++;  // in-flight recons sourcing this zone must now fail validation
  stats_.gc_zone_resets++;
  RetryStalled();

  // Continue collecting until every device is above the stop watermark.
  bool low = false;
  for (int d = 0; d < n_; ++d) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;
    }
    const double free_ratio = static_cast<double>(FreeZonesOf(d)) /
                              static_cast<double>(num_zones_);
    if (free_ratio < config_.gc_stop_free_ratio) {
      low = true;
      break;
    }
  }
  if (low) {
    const auto [device, zone] = PickGcVictim();
    if (device >= 0) {
      gc_device_ = device;
      gc_victim_zone_ = zone;
      gc_scan_ = 0;
      sim_->Schedule(0, [this]() { GcStep(); });
      return;
    }
  }
  gc_active_ = false;
}

void BizaArray::GcStep() {
  if (!gc_active_) {
    return;
  }
  if (device_failed_[static_cast<size_t>(gc_device_)]) {
    // The victim's device died mid-collection: abandon the run. Migrating
    // with failed reads would rewrite zeros over live data; the rebuilder
    // re-homes the dead device's chunks instead.
    gc_active_ = false;
    return;
  }
  ZnsDevice* dev = devices_[static_cast<size_t>(gc_device_)];
  struct Item {
    uint64_t offset;
    OobRecord oob;
  };
  std::vector<Item> batch;
  while (gc_scan_ < zone_cap_ && batch.size() < kGcBatchBlocks) {
    // Hop over never-written regions chunk-by-chunk instead of probing every
    // offset (the probes would return !ok anyway).
    gc_scan_ = dev->NextWrittenCandidate(gc_victim_zone_, gc_scan_);
    if (gc_scan_ >= zone_cap_) {
      break;
    }
    const uint64_t off = gc_scan_++;
    auto oob = dev->ReadOobSync(gc_victim_zone_, off);
    if (!oob.ok()) {
      continue;  // unwritten block
    }
    const uint64_t pa = MakePa(gc_device_, gc_victim_zone_, off, zone_cap_);
    if (IsParityLbn(oob->lbn)) {
      bool live = false;
      if (oob->sn < next_sn_) {
        for (int row = 0; row < m_; ++row) {
          if (SmtAt(oob->sn, row) == pa) {
            live = true;
            break;
          }
        }
      }
      if (live) {
        batch.push_back(Item{off, *oob});
      }
    } else if (oob->lbn < exposed_blocks_ && BmtGet(oob->lbn).pa == pa) {
      batch.push_back(Item{off, *oob});
    }
  }

  if (batch.empty()) {
    if (gc_scan_ >= zone_cap_) {
      FinishGcVictim();
    } else {
      sim_->Schedule(0, [this]() { GcStep(); });
    }
    return;
  }

  struct GcRead {
    std::vector<Item> items;
    std::vector<uint64_t> patterns;
    std::vector<char> ok;  // read succeeded; never migrate unread content
  };
  const size_t count = batch.size();
  const SimTime step_start = sim_->Now();

  auto rewrite = [this, step_start](const Status&, const GcRead& read) {
    if (obs_ != nullptr && obs_->tracer.Armed(step_start)) {
      obs_->tracer.Record(Tracer::kLaneEngine, span_gc_step_, step_start,
                          sim_->Now(), key_device_, gc_device_, key_zone_,
                          gc_victim_zone_);
    }
    struct MigrateJoin {
      BizaArray* array;
      explicit MigrateJoin(BizaArray* a) : array(a) {}
      ~MigrateJoin() {
        BizaArray* a = array;
        if (a->gc_active_ && a->gc_pass_failed_) {
          // Some chunk was not re-homed (destination exhausted or write
          // error); the scan cursor was rolled back over it, so the victim
          // cannot be reset yet. Back off to let seals/completions free
          // destination space, and abandon the victim after too many futile
          // passes — its chunks stay readable in place, and the pressure
          // surfaces as write stalls instead of erased acknowledged data.
          if (++a->gc_futile_passes_ > 64) {
            a->gc_futile_passes_ = 0;
            a->gc_active_ = false;
            return;
          }
          a->sim_->Schedule(200 * kMicrosecond, [a]() { a->GcStep(); });
          return;
        }
        a->gc_futile_passes_ = 0;
        a->sim_->Schedule(0, [a]() { a->GcStep(); });
      }
    };
    auto mjoin = std::make_shared<MigrateJoin>(this);
    gc_pass_failed_ = false;

    // Collect the batch's surviving data chunks and re-home them with one
    // gather write (one partial-parity refresh) after the loop.
    std::vector<uint64_t> gather_lbns;
    std::vector<uint64_t> gather_patterns;
    uint64_t gather_min_off = zone_cap_;
    uint64_t rescan = zone_cap_;
    for (size_t idx = 0; idx < read.items.size(); ++idx) {
      if (read.ok[idx] == 0) {
        // Read failed even after retries: never migrate unread content.
        // Roll the scan cursor back so the block is re-attempted before the
        // victim zone can be declared empty and reset.
        rescan = std::min(rescan, read.items[idx].offset);
        continue;
      }
      const Item& item = read.items[idx];
      const uint64_t pa =
          MakePa(gc_device_, gc_victim_zone_, item.offset, zone_cap_);
      const uint64_t pattern = read.patterns[idx];
      if (IsParityLbn(item.oob.lbn)) {
        // Parity migration: stays on the same device (fault isolation),
        // moves into the GC destination zone. SMT/stripe index follow.
        int row = -1;
        if (item.oob.sn < next_sn_) {
          for (int r = 0; r < m_; ++r) {
            if (SmtAt(item.oob.sn, r) == pa) {
              row = r;
              break;
            }
          }
        }
        if (row < 0) {
          continue;  // invalidated while the batch was reading
        }
        ZoneScheduler* sched = PickZone(gc_device_, kGroupGcDest, 1);
        if (sched == nullptr) {
          // Leave the parity in place and re-attempt before any reset: the
          // SMT still points into the victim, so erasing it would strand
          // every read of this stripe's parity row.
          BIZA_LOG_ERROR("GC: no destination zone on device %d", gc_device_);
          rescan = std::min(rescan, item.offset);
          gc_pass_failed_ = true;
          continue;
        }
        const uint64_t off = sched->Allocate(1);
        const uint64_t new_pa =
            MakePa(gc_device_, sched->zone(), off, zone_cap_);
        InvalidatePa(pa);
        ZoneOf(gc_device_, sched->zone()).valid++;
        SmtSet(item.oob.sn, row, new_pa);
        // If the stripe is still being built, its builder must follow the
        // move, or it would later invalidate a stale PA (and corrupt the
        // valid count of whatever zone recycled into that slot).
        for (auto& builder : builders_) {
          if (builder.open && builder.sn == item.oob.sn) {
            builder.parity_pa[static_cast<size_t>(row)] = new_pa;
            break;
          }
        }
        stats_.gc_migrated_parity++;
        const int device = gc_device_;
        const uint32_t zone = sched->zone();
        sched->SubmitWrite(
            off, {pattern},
            {OobRecord{kParityLbnBase | (parity_version_++ & 0xFFFFFFFFULL),
                       item.oob.sn, WriteTag::kGcParity}},
            [this, device, zone, mjoin](const Status& s) {
              if (!s.ok()) {
                BIZA_LOG_ERROR("GC parity write failed: %s",
                               s.ToString().c_str());
              }
              MaybeFinishSeal(device, zone);
            });
      } else {
        if (BmtGet(item.oob.lbn).pa != pa) {
          continue;  // overwritten while the batch was reading
        }
        stats_.gc_migrated_data++;
        gather_lbns.push_back(item.oob.lbn);
        gather_patterns.push_back(pattern);
        gather_min_off = std::min(gather_min_off, item.offset);
      }
    }
    if (!gather_lbns.empty()) {
      WriteGather(std::move(gather_lbns), std::move(gather_patterns),
                  [this, mjoin, gather_min_off](const Status& s) {
                    if (!s.ok()) {
                      // A failed gather re-homed only a prefix; the rescan
                      // filter retries exactly the chunks whose BMT still
                      // points into the victim.
                      gc_scan_ = std::min(gc_scan_, gather_min_off);
                      gc_pass_failed_ = true;
                    }
                  });
    }
    if (rescan < zone_cap_) {
      gc_scan_ = std::min<uint64_t>(gc_scan_, rescan);
    }
  };

  // The rewrite runs once every run read has landed.
  auto gc_read = MakeJoin(GcRead{std::move(batch),
                                 std::vector<uint64_t>(count, 0),
                                 std::vector<char>(count, 0)},
                          std::move(rewrite));
  const std::vector<Item>& items = gc_read->data.items;
  for (size_t idx = 0; idx < items.size();) {
    // Read each physically-contiguous victim run with one device command;
    // a failed run read marks every covered block not-ok, which the rescan
    // rollback then re-attempts individually.
    uint64_t run = 1;
    while (idx + run < items.size() &&
           items[idx + run].offset == items[idx].offset + run) {
      run++;
    }
    gc_read->Add();
    const uint64_t pa =
        MakePa(gc_device_, gc_victim_zone_, items[idx].offset, zone_cap_);
    DeviceRead(gc_device_, pa, run,
               [this, gc_read, idx, run](const Status& status,
                                         std::vector<uint64_t> pats) {
                 if (status.ok() && pats.size() >= run) {
                   for (uint64_t j = 0; j < run; ++j) {
                     gc_read->data.patterns[idx + j] = pats[j];
                     gc_read->data.ok[idx + j] = 1;
                   }
                 } else if (status.code() == ErrorCode::kUnavailable) {
                   OnDeviceUnavailable(gc_device_);
                 }
                 gc_read->Done();
               });
    idx += run;
  }
  gc_read->Done();  // the dispatch guard
}

// ---------------------------------------------------------------------------
// Crash recovery from OOB (§4.1)
// ---------------------------------------------------------------------------

Status BizaArray::Recover() {
  // Quiesce requirement: no in-flight I/O, no GC, no rebuild.
  if (gc_active_) {
    return FailedPreconditionError("recover during GC");
  }
  if (rebuild_.stats().active) {
    return FailedPreconditionError("recover during rebuild");
  }

  // Step 0: finish every zone the crashed host left open or closed. ZRWA is
  // non-volatile, so finishing just makes the tail durable and frees the
  // open-zone budget for fresh groups.
  for (int d = 0; d < n_; ++d) {
    ZnsDevice* dev = devices_[static_cast<size_t>(d)];
    for (uint32_t zone = 0; zone < num_zones_; ++zone) {
      const ZoneInfo info = dev->Report(zone);
      if (info.state == ZoneState::kOpen || info.state == ZoneState::kClosed) {
        BIZA_RETURN_IF_ERROR(dev->FinishZone(zone));
      }
    }
  }

  bmt_.Clear();
  smt_.clear();
  stripe_data_pa_.clear();
  stripe_live_.clear();
  next_sn_ = 0;

  struct ParityCandidate {
    uint64_t pa = kInvalidPa;
    uint32_t version = 0;
    bool seen = false;
  };
  // Keyed by sn * m + parity row; the row is recoverable from the device a
  // parity block sits on (ParityDrive(sn, row) is a pure function).
  std::vector<ParityCandidate> parity;

  // Pass 1: scan every written block's OOB.
  for (int d = 0; d < n_; ++d) {
    ZnsDevice* dev = devices_[static_cast<size_t>(d)];
    for (uint32_t zone = 0; zone < num_zones_; ++zone) {
      const ZoneInfo info = dev->Report(zone);
      for (uint64_t off = 0; off < info.high_water; ++off) {
        // Hop over never-allocated block runs: their OOBs are unwritten.
        off = dev->NextWrittenCandidate(zone, off);
        if (off >= info.high_water) {
          break;
        }
        auto oob = dev->ReadOobSync(zone, off);
        if (!oob.ok() || !oob->set()) {
          continue;
        }
        const uint64_t pa = MakePa(d, zone, off, zone_cap_);
        if (oob->sn >= next_sn_) {
          next_sn_ = oob->sn + 1;
        }
        if (IsParityLbn(oob->lbn)) {
          const uint32_t version = static_cast<uint32_t>(oob->lbn);
          int row = -1;
          for (int r = 0; r < m_; ++r) {
            if (geometry_.ParityDrive(oob->sn, r) == d) {
              row = r;
              break;
            }
          }
          if (row < 0) {
            // A GC-migrated parity stays on its original parity device, so
            // this cannot happen; tolerate corrupt OOB by skipping.
            continue;
          }
          const size_t key = static_cast<size_t>(oob->sn) *
                                 static_cast<size_t>(m_) +
                             static_cast<size_t>(row);
          if (parity.size() <= key) {
            parity.resize(key + 1);
          }
          ParityCandidate& cand = parity[key];
          if (!cand.seen || version > cand.version) {
            cand.pa = pa;
            cand.version = version;
            cand.seen = true;
          }
        } else if (oob->lbn < exposed_blocks_) {
          BmtEntry& entry = bmt_.Mut(oob->lbn);
          // Newer stripes have higher SNs; in-place updates share location.
          if (entry.pa == kInvalidPa || oob->sn >= entry.sn) {
            entry = BmtEntry{pa, oob->sn};
          }
        }
      }
    }
  }

  // Pass 2: rebuild the stripe index and SMT, recompute zone valid counts.
  smt_.assign(static_cast<size_t>(next_sn_) * static_cast<size_t>(m_),
              kInvalidPa);
  stripe_data_pa_.assign(
      static_cast<size_t>(next_sn_) * static_cast<size_t>(k_), kInvalidPa);
  stripe_live_.assign(next_sn_, 0);
  for (auto& dev_zones : zones_) {
    for (auto& z : dev_zones) {
      z.valid = 0;
    }
  }
  // Per-entry increments are commutative, so the BMT's unspecified visit
  // order leaves the rebuilt tables identical to a sequential lbn sweep.
  bmt_.ForEach([&](uint64_t, const BmtEntry& entry) {
    if (entry.pa == kInvalidPa) {
      return;
    }
    // Slot identity is a pure function of (sn, device): required for
    // Reed-Solomon decode and preserved across recovery.
    const int slot = geometry_.DataSlotOf(entry.sn, PaDevice(entry.pa));
    if (slot >= 0) {
      SetStripeDataPa(entry.sn, slot, entry.pa);
    }
    stripe_live_[entry.sn]++;
    ZoneOf(PaDevice(entry.pa), PaZone(entry.pa)).valid++;
  });
  for (uint32_t sn = 0; sn < next_sn_; ++sn) {
    if (stripe_live_[sn] == 0) {
      continue;
    }
    for (int row = 0; row < m_; ++row) {
      const size_t key =
          static_cast<size_t>(sn) * static_cast<size_t>(m_) +
          static_cast<size_t>(row);
      if (key < parity.size() && parity[key].seen) {
        SmtSet(sn, row, parity[key].pa);
        ZoneOf(PaDevice(parity[key].pa), PaZone(parity[key].pa)).valid++;
      }
    }
  }

  // Step 3: rebuild zone usage states and open fresh groups.
  for (int d = 0; d < n_; ++d) {
    ZnsDevice* dev = devices_[static_cast<size_t>(d)];
    for (uint32_t zone = 0; zone < num_zones_; ++zone) {
      DevZone& z = ZoneOf(d, zone);
      z.sched.reset();
      z.seal_pending = false;
      const ZoneInfo info = dev->Report(zone);
      // Anything not EMPTY is sealed (step 0 finished all open zones, so an
      // open-but-never-written zone is now FULL with high_water 0).
      SetZoneUse(d, zone,
                 info.state == ZoneState::kEmpty ? ZoneUse::kFree
                                                 : ZoneUse::kSealed);
      if (z.use == ZoneUse::kSealed && z.valid == 0) {
        // Fully dead (or empty-finished) zone: reclaim immediately.
        BIZA_RETURN_IF_ERROR(dev->ResetZone(zone));
        SetZoneUse(d, zone, ZoneUse::kFree);
      }
    }
    for (auto& group : groups_[static_cast<size_t>(d)]) {
      group = ZoneGroup{};
    }
  }
  InitGroups(/*fresh=*/false);

  // Builders were lost with host DRAM; open fresh stripes lazily.
  for (auto& builder : builders_) {
    builder = StripeBuilder{};
  }
  return OkStatus();
}

uint64_t BizaArray::DebugBmtPa(uint64_t lbn) const {
  return lbn < exposed_blocks_ ? BmtGet(lbn).pa : kInvalidPa;
}

uint64_t BizaArray::ResidentStateBytes() const {
  uint64_t bytes = bmt_.allocated_bytes() +
                   smt_.capacity() * sizeof(smt_[0]) +
                   stripe_data_pa_.capacity() * sizeof(stripe_data_pa_[0]) +
                   stripe_live_.capacity() * sizeof(stripe_live_[0]);
  bytes += ghost_.ResidentBytes();
  for (const ZnsDevice* dev : devices_) {
    bytes += dev->ResidentStateBytes();
  }
  return bytes;
}

}  // namespace biza
