// Target interfaces: the two I/O abstractions AFA engines expose/consume.
//
// BlockTarget is the classic block interface (random 4 KiB-block reads and
// writes); ZonedTarget is the ZNS interface (sequential-write zones). ConvSsd
// is a BlockTarget and ZnsDevice a ZonedTarget themselves. The AFA designs of
// the paper are compositions over these:
//
//   mdraid+ConvSSD : Mdraid( ConvSsd x4 )                  -> BlockTarget
//   mdraid+dmzap   : Mdraid( DmZap(ZnsDevice) x4 )         -> BlockTarget
//   RAIZN          : Raizn( ZnsDevice x4 )                 -> ZonedTarget
//   dmzap+RAIZN    : DmZap( Raizn )                        -> BlockTarget
//   BIZA           : BizaArray( ZnsDevice x4 )             -> BlockTarget
#ifndef BIZA_SRC_ENGINES_TARGET_H_
#define BIZA_SRC_ENGINES_TARGET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/common/write_tag.h"

namespace biza {

class BlockTarget {
 public:
  using WriteCallback = std::function<void(const Status&)>;
  using ReadCallback =
      std::function<void(const Status&, std::vector<uint64_t> patterns)>;

  virtual ~BlockTarget() = default;

  // Writes patterns.size() blocks starting at `lbn`. `tag` classifies the
  // write for endurance accounting and is propagated down stacks.
  virtual void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                           WriteCallback cb, WriteTag tag = WriteTag::kData) = 0;
  virtual void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) = 0;

  virtual uint64_t capacity_blocks() const = 0;

  // Flushes any volatile write-back state (stripe caches etc.). `done` fires
  // once everything is durable. Default: nothing buffered.
  virtual void FlushBuffers(std::function<void()> done) { done(); }
};

class ZonedTarget {
 public:
  using WriteCallback = std::function<void(const Status&)>;
  using ReadCallback =
      std::function<void(const Status&, std::vector<uint64_t> patterns)>;

  virtual ~ZonedTarget() = default;

  virtual uint32_t num_zones() const = 0;
  virtual uint64_t zone_capacity_blocks() const = 0;
  virtual int max_open_zones() const = 0;

  // Sequential-write-required: `offset` must equal the zone's write pointer
  // at arrival, or the write fails (kWriteFailure).
  virtual void SubmitZoneWrite(uint32_t zone, uint64_t offset,
                               std::vector<uint64_t> patterns, WriteCallback cb,
                               WriteTag tag = WriteTag::kData) = 0;
  virtual void SubmitZoneRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                              ReadCallback cb) = 0;
  virtual Status ResetZone(uint32_t zone) = 0;
  virtual Status FinishZone(uint32_t zone) = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_TARGET_H_
