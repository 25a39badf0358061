// Process-memory introspection for the bench/CI harness.
//
// Peak RSS is the acceptance metric for full-geometry runs (a 4 x ZN540
// array must simulate in a few GiB, not tens): benches print it in their
// metric records and CI asserts a ceiling on the full-geometry smoke.
#ifndef BIZA_SRC_COMMON_RSS_H_
#define BIZA_SRC_COMMON_RSS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace biza {

// Peak resident-set size of this process in bytes (Linux VmHWM), or 0 where
// /proc is unavailable.
inline uint64_t PeakRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  uint64_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
#else
  return 0;
#endif
}

}  // namespace biza

#endif  // BIZA_SRC_COMMON_RSS_H_
