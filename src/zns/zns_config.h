// Configuration of a simulated ZNS SSD.
//
// Presets mirror the commodity devices of Table 2 in the paper; capacities
// are scaled down (zones shrink, ratios stay) so garbage collection and
// endurance phenomena appear within seconds of simulated time.
#ifndef BIZA_SRC_ZNS_ZNS_CONFIG_H_
#define BIZA_SRC_ZNS_ZNS_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/units.h"
#include "src/nand/nand_backend.h"
#include "src/nvme/device_port.h"

namespace biza {

// The host interface (dispatch_jitter_ns, nvme) is inherited.
struct ZnsConfig : HostInterfaceConfig {
  std::string model = "SIM-ZN540";

  // Geometry (in 4 KiB logical blocks).
  uint64_t zone_capacity_blocks = 6144;  // 24 MiB zones (scaled-down ZN540)
  uint32_t num_zones = 128;

  // ZRWA window per open zone, in blocks. 0 disables ZRWA support entirely.
  uint32_t zrwa_blocks = 256;  // 1 MiB, as on the ZN540

  int max_open_zones = 14;

  // NAND timing / parallelism.
  NandTimingConfig timing;

  // Probability that an opened zone is NOT mapped round-robin to channels
  // (models wear-leveling decisions hidden behind the ZNS interface, §3.3).
  double wear_level_deviation = 0.0;

  // Future-ZNS extension (§6 of the paper): expose the zone-to-channel
  // mapping in the OPEN command's completion. When set, DebugChannelOf()
  // becomes an architected interface (ChannelOf) instead of an oracle, and
  // BIZA can skip guess-and-verify entirely.
  bool expose_channel_on_open = false;

  uint64_t seed = 1;

  // Full-size WD Ultrastar DC ZN540: 904 zones x 1077 MiB per the paper's
  // Table 2 (275,712 four-KiB blocks per zone).
  static constexpr uint32_t kFullZn540Zones = 904;
  static constexpr uint64_t kFullZn540ZoneBlocks = 1077 * kMiB / kBlockSize;

  uint64_t capacity_blocks() const {
    return zone_capacity_blocks * num_zones;
  }
  uint64_t zone_capacity_bytes() const {
    return zone_capacity_blocks * kBlockSize;
  }

  // Scaled-down WD Ultrastar DC ZN540: 1 MiB ZRWA, 14 open zones, 8 channels.
  static ZnsConfig Zn540(uint32_t num_zones = 128,
                         uint64_t zone_capacity_blocks = 6144);

  // The other Table 2 devices (for tab02_zrwa_configs and sensitivity work).
  static ZnsConfig DapuJ5500z();
  static ZnsConfig InspurNs8600g();
  static ZnsConfig SamsungPm1731a();
};

}  // namespace biza

#endif  // BIZA_SRC_ZNS_ZNS_CONFIG_H_
