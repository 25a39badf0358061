#include "src/testbed/platforms.h"

#include <cassert>

namespace biza {

const char* PlatformKindName(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kBiza:
      return "BIZA";
    case PlatformKind::kBizaNoSelector:
      return "BIZAw/oSelector";
    case PlatformKind::kBizaNoAvoid:
      return "BIZAw/oAvoid";
    case PlatformKind::kDmzapRaizn:
      return "dmzap+RAIZN";
    case PlatformKind::kMdraidDmzap:
      return "mdraid+dmzap";
    case PlatformKind::kMdraidConv:
      return "mdraid+ConvSSD";
    case PlatformKind::kRaizn:
      return "RAIZN";
    case PlatformKind::kZapRaid:
      return "ZapRAID";
  }
  return "?";
}

std::unique_ptr<Platform> Platform::Create(Simulator* sim, PlatformKind kind,
                                           PlatformConfig config) {
  auto platform = std::unique_ptr<Platform>(new Platform());
  platform->kind_ = kind;
  platform->config_ = config;
  Platform& p = *platform;

  auto make_zns = [&]() {
    for (int d = 0; d < config.num_ssds; ++d) {
      ZnsConfig zc = config.zns;
      zc.seed = config.seed * 1000003ULL + static_cast<uint64_t>(d);
      p.zns_.push_back(std::make_unique<ZnsDevice>(sim, zc));
    }
  };

  switch (kind) {
    case PlatformKind::kBiza:
    case PlatformKind::kBizaNoSelector:
    case PlatformKind::kBizaNoAvoid: {
      make_zns();
      BizaConfig bc = config.biza;
      if (kind == PlatformKind::kBizaNoSelector) {
        bc.enable_selector = false;
      }
      if (kind == PlatformKind::kBizaNoAvoid) {
        bc.enable_gc_avoidance = false;
      }
      std::vector<ZnsDevice*> devices;
      for (auto& dev : p.zns_) {
        devices.push_back(dev.get());
      }
      p.biza_ = std::make_unique<BizaArray>(sim, devices, bc);
      p.block_ = p.biza_.get();
      break;
    }
    case PlatformKind::kDmzapRaizn: {
      make_zns();
      std::vector<ZnsDevice*> devices;
      for (auto& dev : p.zns_) {
        devices.push_back(dev.get());
      }
      p.raizn_ = std::make_unique<Raizn>(sim, devices, config.raizn);
      p.dmzaps_.push_back(
          std::make_unique<DmZap>(sim, p.raizn_.get(), config.dmzap));
      p.block_ = p.dmzaps_[0].get();
      break;
    }
    case PlatformKind::kMdraidDmzap: {
      make_zns();
      std::vector<BlockTarget*> children;
      for (auto& dev : p.zns_) {
        p.dmzaps_.push_back(
            std::make_unique<DmZap>(sim, dev.get(), config.dmzap));
        children.push_back(p.dmzaps_.back().get());
      }
      MdraidConfig mc = config.mdraid;
      // dm-zap cannot re-merge the 4 KiB pages mdraid emits (§5.2).
      mc.block_layer_merge = false;
      p.mdraid_ = std::make_unique<Mdraid>(sim, children, mc);
      p.block_ = p.mdraid_.get();
      break;
    }
    case PlatformKind::kMdraidConv: {
      std::vector<BlockTarget*> children;
      for (int d = 0; d < config.num_ssds; ++d) {
        ConvSsdConfig cc = config.conv;
        cc.seed = config.seed * 2000003ULL + static_cast<uint64_t>(d);
        p.conv_.push_back(std::make_unique<ConvSsd>(sim, cc));
        children.push_back(p.conv_.back().get());
      }
      MdraidConfig mc = config.mdraid;
      mc.block_layer_merge = true;  // the block layer re-merges 4 KiB pages
      p.mdraid_ = std::make_unique<Mdraid>(sim, children, mc);
      p.block_ = p.mdraid_.get();
      break;
    }
    case PlatformKind::kRaizn: {
      make_zns();
      std::vector<ZnsDevice*> devices;
      for (auto& dev : p.zns_) {
        devices.push_back(dev.get());
      }
      p.raizn_ = std::make_unique<Raizn>(sim, devices, config.raizn);
      p.zoned_ = p.raizn_.get();
      break;
    }
    case PlatformKind::kZapRaid: {
      make_zns();
      std::vector<ZnsDevice*> devices;
      for (auto& dev : p.zns_) {
        devices.push_back(dev.get());
      }
      p.zapraid_ = std::make_unique<ZapRaid>(sim, devices, config.zapraid);
      p.block_ = p.zapraid_.get();
      break;
    }
  }

  // Host write-buffer tier: stacked above whatever block engine the kind
  // produced, so every platform (and the crash harness) sees the same
  // absorption/ack semantics. Raw RAIZN has no block target to wrap.
  if (config.hostbuf.enabled && p.block_ != nullptr) {
    p.hostbuf_ =
        std::make_unique<HostWriteBuffer>(sim, p.block_, config.hostbuf);
    p.block_ = p.hostbuf_.get();
  }

  // Fault plane: one injector interposes on every member device. Device ids
  // match creation order (0..num_ssds-1), so --fail-device=D@T addresses the
  // D-th member regardless of platform kind.
  p.fault_ = std::make_unique<FaultInjector>(config.faults);
  for (auto& dev : p.zns_) {
    dev->AttachFaultInjector(p.fault_.get(), p.next_fault_id_++);
  }
  for (auto& dev : p.conv_) {
    dev->AttachFaultInjector(p.fault_.get(), p.next_fault_id_++);
  }

  // Gray-failure self-defense: when enabled the platform owns a
  // DeviceHealthMonitor and arms the engine's mitigation plane. The monitor
  // is fed from engine-side completion callbacks.
  if (config.health.enabled) {
    p.health_ = std::make_unique<DeviceHealthMonitor>(
        config.health, config.zns.timing.num_channels);
    if (p.biza_) {
      p.biza_->SetHealthMonitor(p.health_.get());
    }
    if (p.mdraid_) {
      p.mdraid_->SetHealthMonitor(p.health_.get());
    }
    if (p.zapraid_) {
      p.zapraid_->SetHealthMonitor(p.health_.get());
    }
  }

  // Observability plane: per-device ids match the fault-plan ids above.
  if (config.obs != nullptr) {
    Observability* obs = config.obs;
    int id = 0;
    for (auto& dev : p.zns_) {
      dev->AttachObservability(obs, id++);
    }
    for (auto& dev : p.conv_) {
      dev->AttachObservability(obs, id++);
    }
    if (p.biza_) {
      p.biza_->AttachObservability(obs);
    }
    if (p.mdraid_) {
      p.mdraid_->AttachObservability(obs);
    }
    if (p.zapraid_) {
      p.zapraid_->AttachObservability(obs);
    }
    if (p.hostbuf_) {
      HostWriteBuffer* hb = p.hostbuf_.get();
      obs->registry.RegisterCounter(
          "hostbuf.write_blocks",
          [hb] { return hb->stats().write_blocks; });
      obs->registry.RegisterCounter(
          "hostbuf.absorbed_blocks",
          [hb] { return hb->stats().absorbed_blocks; });
      obs->registry.RegisterCounter(
          "hostbuf.flushed_blocks",
          [hb] { return hb->stats().flushed_blocks; });
      obs->registry.RegisterCounter(
          "hostbuf.admission_stalls",
          [hb] { return hb->stats().admission_stalls; });
      obs->registry.RegisterGauge(
          "hostbuf.occupancy_blocks",
          [hb] { return hb->occupancy_blocks(); });
    }
    FaultInjector* fault = p.fault_.get();
    obs->registry.RegisterCounter(
        "fault.injected_read_errors",
        [fault] { return fault->stats().injected_read_errors; });
    obs->registry.RegisterCounter(
        "fault.injected_write_errors",
        [fault] { return fault->stats().injected_write_errors; });
    obs->registry.RegisterCounter(
        "fault.unavailable_rejections",
        [fault] { return fault->stats().unavailable_rejections; });
    if (p.health_) {
      DeviceHealthMonitor* health = p.health_.get();
      obs->registry.RegisterCounter(
          "health.samples", [health] { return health->stats().samples; });
      obs->registry.RegisterCounter(
          "health.windows", [health] { return health->stats().windows; });
      obs->registry.RegisterCounter(
          "health.suspect_transitions",
          [health] { return health->stats().suspect_transitions; });
      obs->registry.RegisterCounter(
          "health.gray_transitions",
          [health] { return health->stats().gray_transitions; });
      obs->registry.RegisterCounter(
          "health.recoveries",
          [health] { return health->stats().recoveries; });
      obs->registry.RegisterCounter(
          "health.channel_gray_transitions",
          [health] { return health->stats().channel_gray_transitions; });
      // Devices materialize in the monitor lazily; state(d) is kHealthy for
      // unseen ones, so gauges can be registered for every member up front.
      for (int d = 0; d < config.num_ssds; ++d) {
        obs->registry.RegisterGauge(
            "health.dev" + std::to_string(d) + ".state", [health, d] {
              return static_cast<uint64_t>(health->state(d));
            });
      }
    }
  }
  return platform;
}

Status Platform::ReplaceMember(Simulator* sim, int device) {
  const RebuildStats* sweep = rebuild();
  if (sweep == nullptr) {
    return UnimplementedError(name() +
                              " has no member replace path (BIZA, ZapRAID "
                              "and mdraid+ConvSSD have one)");
  }
  if (device < 0 || device >= config_.num_ssds || sweep->active) {
    return FailedPreconditionError(
        "replace: bad member index, or a rebuild is running");
  }
  // A fresh, empty spare with the next fault-plan device id.
  const int id = next_fault_id_++;
  const uint64_t seed_offset = static_cast<uint64_t>(1000 + id);
  auto attach = [this, id](auto& dev) {
    dev.AttachFaultInjector(fault_.get(), id);
    if (config_.obs != nullptr) {
      dev.AttachObservability(config_.obs, id);
    }
  };
  if (kind_ == PlatformKind::kMdraidConv) {
    ConvSsdConfig cc = config_.conv;
    cc.seed = config_.seed * 2000003ULL + seed_offset;
    conv_.push_back(std::make_unique<ConvSsd>(sim, cc));
    attach(*conv_.back());
    mdraid_->SetChildFailed(device, true);
    return mdraid_->RebuildChild(device, conv_.back().get());
  }
  ZnsConfig zc = config_.zns;
  zc.seed = config_.seed * 1000003ULL + seed_offset;
  zns_.push_back(std::make_unique<ZnsDevice>(sim, zc));
  attach(*zns_.back());
  if (biza_ != nullptr) {
    biza_->SetDeviceFailed(device, true);
    return biza_->ReplaceDevice(device, zns_.back().get());
  }
  zapraid_->SetDeviceFailed(device, true);
  return zapraid_->ReplaceDevice(device, zns_.back().get());
}

const RebuildStats* Platform::rebuild() const {
  if (biza_ != nullptr) {
    return &biza_->rebuild();
  }
  if (zapraid_ != nullptr) {
    return &zapraid_->rebuild();
  }
  return kind_ == PlatformKind::kMdraidConv ? &mdraid_->rebuild() : nullptr;
}

WaBreakdown Platform::CollectWa(uint64_t user_blocks) const {
  WaBreakdown wa;
  wa.user_blocks = user_blocks;
  for (const auto& dev : zns_) {
    wa.AddDeviceTags(dev->stats().flash_by_tag);
  }
  for (const auto& dev : conv_) {
    wa.AddDeviceTags(dev->stats().flash_by_tag);
  }
  return wa;
}

uint64_t Platform::FlashProgrammedBlocks() const {
  uint64_t total = 0;
  for (const auto& dev : zns_) {
    total += dev->stats().flash_programmed_blocks;
  }
  for (const auto& dev : conv_) {
    total += dev->stats().flash_programmed_blocks;
  }
  return total;
}

std::map<std::string, SimTime> Platform::CpuBreakdown() const {
  std::map<std::string, SimTime> out;
  // An engine that has charged nothing yet gets no row.
  auto fold = [&out](const char* component, const CpuAccount& account) {
    if (account.total() > 0) {
      out[component] += account.total();
    }
  };
  for (const auto& dz : dmzaps_) {
    fold("dmzap", dz->cpu());
  }
  if (raizn_) {
    fold("raizn", raizn_->cpu());
  }
  if (mdraid_) {
    fold("mdraid", mdraid_->cpu());
  }
  if (biza_) {
    fold("biza", biza_->cpu());
  }
  if (zapraid_) {
    fold("zapraid", zapraid_->cpu());
  }
  // Modelled kernel-I/O CPU share: per-block submission/completion handling.
  constexpr SimTime kIoNsPerBlock = 400;
  uint64_t io_blocks = 0;
  for (const auto& dev : zns_) {
    io_blocks += dev->stats().host_written_blocks + dev->stats().host_read_blocks;
  }
  for (const auto& dev : conv_) {
    io_blocks += dev->stats().host_written_blocks + dev->stats().host_read_blocks;
  }
  out["io"] += io_blocks * kIoNsPerBlock;
  return out;
}

void Platform::Quiesce(Simulator* sim) {
  if (block_ != nullptr) {
    bool done = false;
    block_->FlushBuffers([&done]() { done = true; });
    sim->RunUntilIdle();
    assert(done);
  } else {
    sim->RunUntilIdle();
  }
}

std::vector<ZnsDevice*> Platform::zns_devices() {
  std::vector<ZnsDevice*> out;
  for (auto& dev : zns_) {
    out.push_back(dev.get());
  }
  return out;
}

std::vector<ConvSsd*> Platform::conv_devices() {
  std::vector<ConvSsd*> out;
  for (auto& dev : conv_) {
    out.push_back(dev.get());
  }
  return out;
}

}  // namespace biza
