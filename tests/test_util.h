// Small helpers for driving async device/engine APIs from synchronous tests.
#ifndef BIZA_TESTS_TEST_UTIL_H_
#define BIZA_TESTS_TEST_UTIL_H_

#include <vector>

#include "src/common/status.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"

namespace biza {

// Submits a ZNS write and pumps the simulator until it completes.
inline Status ZnsWriteSync(Simulator* sim, ZnsDevice* dev, uint32_t zone,
                           uint64_t offset, std::vector<uint64_t> patterns,
                           std::vector<OobRecord> oobs = {}) {
  Status out = InternalError("never completed");
  dev->SubmitWrite(zone, offset, std::move(patterns), std::move(oobs),
                   [&out](const Status& status) { out = status; });
  sim->RunUntilIdle();
  return out;
}

// Submits a ZNS read and pumps the simulator until it completes; yields the
// blocks' patterns.
inline Result<std::vector<uint64_t>> ZnsReadSync(Simulator* sim, ZnsDevice* dev,
                                                 uint32_t zone, uint64_t offset,
                                                 uint64_t nblocks) {
  Status status = InternalError("never completed");
  std::vector<uint64_t> patterns;
  dev->SubmitRead(zone, offset, nblocks,
                  [&](const Status& s, std::vector<uint64_t> p) {
                    status = s;
                    patterns = std::move(p);
                  });
  sim->RunUntilIdle();
  if (!status.ok()) {
    return status;
  }
  return patterns;
}

inline Result<uint64_t> ZnsAppendSync(Simulator* sim, ZnsDevice* dev,
                                      uint32_t zone,
                                      std::vector<uint64_t> patterns) {
  Status status = InternalError("never completed");
  uint64_t offset = 0;
  dev->SubmitAppend(zone, std::move(patterns), {},
                    [&](const Status& s, uint64_t off) {
                      status = s;
                      offset = off;
                    });
  sim->RunUntilIdle();
  if (!status.ok()) {
    return status;
  }
  return offset;
}

}  // namespace biza

#endif  // BIZA_TESTS_TEST_UTIL_H_
