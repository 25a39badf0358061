// Thin adapters between the simulated devices and the target interfaces.
#ifndef BIZA_SRC_ENGINES_ADAPTERS_H_
#define BIZA_SRC_ENGINES_ADAPTERS_H_

#include <utility>
#include <vector>

#include "src/convssd/conv_ssd.h"
#include "src/engines/target.h"
#include "src/zns/zns_device.h"

namespace biza {

// Exposes a raw ZNS SSD as a ZonedTarget (sequential zones, no ZRWA). Used
// for the mdraid+dmzap stack where dm-zap sits directly on each SSD.
class ZnsZonedTarget : public ZonedTarget {
 public:
  explicit ZnsZonedTarget(ZnsDevice* device) : device_(device) {}

  uint32_t num_zones() const override { return device_->config().num_zones; }
  uint64_t zone_capacity_blocks() const override {
    return device_->config().zone_capacity_blocks;
  }
  int max_open_zones() const override {
    return device_->config().max_open_zones;
  }

  void SubmitZoneWrite(uint32_t zone, uint64_t offset,
                       std::vector<uint64_t> patterns, WriteCallback cb,
                       WriteTag tag) override {
    std::vector<OobRecord> oobs(patterns.size());
    for (auto& oob : oobs) {
      oob.tag = tag;
    }
    device_->SubmitWrite(zone, offset, std::move(patterns), std::move(oobs),
                         std::move(cb));
  }

  void SubmitZoneRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                      ReadCallback cb) override {
    device_->SubmitRead(zone, offset, nblocks, std::move(cb));
  }

  Status ResetZone(uint32_t zone) override { return device_->ResetZone(zone); }
  Status FinishZone(uint32_t zone) override { return device_->FinishZone(zone); }

  ZnsDevice* device() { return device_; }

 private:
  ZnsDevice* device_;
};

// Exposes a conventional SSD as a BlockTarget.
class ConvSsdTarget : public BlockTarget {
 public:
  explicit ConvSsdTarget(ConvSsd* device) : device_(device) {}

  uint64_t capacity_blocks() const override {
    return device_->config().capacity_blocks;
  }

  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag) override {
    device_->SubmitWrite(lbn, std::move(patterns), std::move(cb), tag);
  }

  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override {
    device_->SubmitRead(lbn, nblocks, std::move(cb));
  }

  ConvSsd* device() { return device_; }

 private:
  ConvSsd* device_;
};

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_ADAPTERS_H_
