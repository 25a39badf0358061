#include "src/zns/zns_device.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace biza {

std::string_view ZoneStateName(ZoneState state) {
  switch (state) {
    case ZoneState::kEmpty:
      return "EMPTY";
    case ZoneState::kOpen:
      return "OPEN";
    case ZoneState::kClosed:
      return "CLOSED";
    case ZoneState::kFull:
      return "FULL";
    case ZoneState::kOffline:
      return "OFFLINE";
  }
  return "UNKNOWN";
}

ZnsDevice::ZnsDevice(Simulator* sim, const ZnsConfig& config)
    : sim_(sim),
      config_(config),
      backend_(std::make_unique<NandBackend>(sim, config.timing)),
      port_(sim, config, config.seed) {
  zones_.resize(config_.num_zones);
  // Chunk granularity: zones fill sequentially (append discipline), so
  // 1024-block chunks keep overhead near one chunk of slack per open zone
  // while a never-written full-geometry zone (275,712 blocks) costs only
  // its chunk-pointer table.
  const uint64_t chunk =
      std::min<uint64_t>(config_.zone_capacity_blocks, 1024);
  for (auto& z : zones_) {
    z.blocks = ChunkedArray<Block>(config_.zone_capacity_blocks, chunk);
  }
}

void ZnsDevice::AttachObservability(Observability* obs, int device_id) {
  obs_ = obs;
  if (obs_ == nullptr) {
    h_write_ = nullptr;
    h_read_ = nullptr;
    backend_->SetTracer(nullptr, device_id);
    return;
  }
  const std::string prefix = "dev" + std::to_string(device_id) + ".zns.";
  StatRegistry& reg = obs_->registry;
  reg.RegisterCounter(prefix + "host_written_blocks",
                      [this] { return stats_.host_written_blocks; });
  reg.RegisterCounter(prefix + "flash_programmed_blocks",
                      [this] { return stats_.flash_programmed_blocks; });
  reg.RegisterCounter(prefix + "zrwa_absorbed_blocks",
                      [this] { return stats_.zrwa_absorbed_blocks; });
  reg.RegisterCounter(prefix + "host_read_blocks",
                      [this] { return stats_.host_read_blocks; });
  reg.RegisterCounter(prefix + "zone_resets",
                      [this] { return stats_.zone_resets; });
  reg.RegisterCounter(prefix + "write_failures",
                      [this] { return stats_.write_failures; });
  reg.RegisterGauge(prefix + "open_zones", [this] {
    return static_cast<uint64_t>(open_zones_);
  });
  // ZRWA occupancy: blocks currently inside some open zone's sliding window
  // (i.e. admitted but not yet committed to flash).
  reg.RegisterGauge(prefix + "zrwa_occupancy_blocks", [this] {
    uint64_t occupied = 0;
    for (const Zone& z : zones_) {
      if (z.state == ZoneState::kOpen && z.with_zrwa &&
          z.high_water > z.flush_ptr) {
        occupied += z.high_water - z.flush_ptr;
      }
    }
    return occupied;
  });
  for (int c = 0; c < backend_->num_channels(); ++c) {
    reg.RegisterGauge(prefix + "chan" + std::to_string(c) + ".backlog_ns",
                      [this, c] { return backend_->ChannelBacklogNs(c); });
  }
  port_.RegisterCounters(reg, prefix);
  h_write_ = reg.Histogram(prefix + "write_latency_ns");
  h_read_ = reg.Histogram(prefix + "read_latency_ns");
  span_write_ = obs_->tracer.Intern("zns.write");
  span_read_ = obs_->tracer.Intern("zns.read");
  span_append_ = obs_->tracer.Intern("zns.append");
  key_zone_ = obs_->tracer.Intern("zone");
  key_offset_ = obs_->tracer.Intern("offset");
  key_blocks_ = obs_->tracer.Intern("blocks");
  backend_->SetTracer(&obs_->tracer, device_id);
}

Status ZnsDevice::ValidateZoneId(uint32_t zone) const {
  if (zone >= config_.num_zones) {
    return OutOfRangeError("zone " + std::to_string(zone) + " out of range");
  }
  return OkStatus();
}

void ZnsDevice::AssignChannel(Zone& z) {
  Rng& rng = port_.rng();
  if (config_.wear_level_deviation > 0.0 &&
      rng.Chance(config_.wear_level_deviation)) {
    z.channel = static_cast<int>(rng.Uniform(
        static_cast<uint64_t>(config_.timing.num_channels)));
  } else {
    z.channel = static_cast<int>(open_rr_counter_ %
                                 static_cast<uint64_t>(config_.timing.num_channels));
  }
  open_rr_counter_++;
}

Status ZnsDevice::EnsureOpenForWrite(Zone& z, uint32_t zone_id) {
  switch (z.state) {
    case ZoneState::kOpen:
      return OkStatus();
    case ZoneState::kEmpty:
    case ZoneState::kClosed:
      if (z.state == ZoneState::kEmpty) {
        // Implicit open.
        if (open_zones_ >= config_.max_open_zones) {
          return ResourceExhaustedError("open zone limit reached");
        }
        AssignChannel(z);
      } else if (open_zones_ >= config_.max_open_zones) {
        return ResourceExhaustedError("open zone limit reached");
      }
      z.state = ZoneState::kOpen;
      open_zones_++;
      return OkStatus();
    case ZoneState::kFull:
      return ZoneStateError("zone " + std::to_string(zone_id) + " is FULL");
    case ZoneState::kOffline:
      return ZoneStateError("zone " + std::to_string(zone_id) + " is OFFLINE");
  }
  return InternalError("bad zone state");
}

SimTime ZnsDevice::FlushRange(Zone& z, uint64_t from, uint64_t to) {
  assert(to <= z.blocks.size());
  uint64_t flushed = 0;
  for (uint64_t b = from; b < to; ++b) {
    b = z.blocks.SkipUnallocated(b);  // hop never-written gaps chunk-wise
    if (b >= to) {
      break;
    }
    Block& block = z.blocks.Mut(b);
    if (block.buffered) {
      block.buffered = false;
      flushed++;
      stats_.flash_by_tag[static_cast<int>(block.oob.tag)]++;
    }
  }
  SimTime done = sim_->Now();
  if (flushed > 0) {
    stats_.flash_programmed_blocks += flushed;
    done = backend_->BackgroundProgram(z.channel, flushed * kBlockSize);
  }
  z.flush_ptr = to > z.flush_ptr ? to : z.flush_ptr;
  return done;
}

void ZnsDevice::MaybeTransitionFull(Zone& z) {
  if (z.flush_ptr >= z.blocks.size()) {
    if (z.state == ZoneState::kOpen) {
      open_zones_--;
    }
    z.state = ZoneState::kFull;
  }
}

void ZnsDevice::SubmitWrite(uint32_t zone, uint64_t offset,
                            std::vector<uint64_t> patterns,
                            std::vector<OobRecord> oobs, WriteCallback cb) {
  port_.AtArrival([this, zone, offset, patterns = std::move(patterns),
                   oobs = std::move(oobs), cb = std::move(cb)]() mutable {
    DoWrite(zone, offset, std::move(patterns), std::move(oobs), std::move(cb));
  });
}

void ZnsDevice::SubmitZoneWrite(uint32_t zone, uint64_t offset,
                                std::vector<uint64_t> patterns,
                                WriteCallback cb, WriteTag tag) {
  std::vector<OobRecord> oobs(patterns.size());
  for (auto& oob : oobs) {
    oob.tag = tag;
  }
  SubmitWrite(zone, offset, std::move(patterns), std::move(oobs),
              std::move(cb));
}

void ZnsDevice::DoWrite(uint32_t zone, uint64_t offset,
                        std::vector<uint64_t> patterns,
                        std::vector<OobRecord> oobs, WriteCallback cb) {
  Status status = port_.FaultCheck(IoKind::kWrite);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }
  status = ValidateZoneId(zone);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }
  const uint64_t n = patterns.size();
  if (n == 0 || (!oobs.empty() && oobs.size() != n)) {
    port_.Fail(cb, InvalidArgumentError("bad write payload"));
    return;
  }
  Zone& z = zones_[zone];
  const uint64_t end = offset + n;
  if (end > z.blocks.size()) {
    port_.Fail(cb, OutOfRangeError("write beyond zone capacity"));
    return;
  }
  status = EnsureOpenForWrite(z, zone);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }

  stats_.host_written_blocks += n;
  const uint64_t bytes = n * kBlockSize;

  if (z.with_zrwa) {
    if (offset < z.flush_ptr) {
      // The reorder hazard of §3.2: the window has shifted past this write.
      stats_.write_failures++;
      port_.Fail(cb, WriteFailureError("write at " + std::to_string(offset) +
                                       " behind ZRWA window start " +
                                       std::to_string(z.flush_ptr)));
      return;
    }
    const uint64_t window_end = z.flush_ptr + config_.zrwa_blocks;
    SimTime flush_done = 0;
    if (end > window_end) {
      // Implicit commit: shift the window right, programming the blocks that
      // leave it (Fig. 3b of the paper). The triggering write completes only
      // once the commit drains — buffer-admission backpressure. This is how
      // channel congestion (e.g. GC) becomes visible to ZRWA writes.
      flush_done = FlushRange(z, z.flush_ptr, end - config_.zrwa_blocks);
    }
    for (uint64_t i = 0; i < n; ++i) {
      Block& block = z.blocks.Mut(offset + i);
      if (block.written && block.buffered) {
        stats_.zrwa_absorbed_blocks++;  // in-place update absorbed in DRAM
      }
      block.pattern = patterns[i];
      block.oob = oobs.empty() ? OobRecord{} : oobs[i];
      block.written = true;
      block.buffered = true;
    }
    if (end > z.high_water) {
      z.high_water = end;
    }
    const SimTime buffered = backend_->BufferWrite(bytes);
    // Ack pacing: a zone acknowledges ZRWA writes at its channel's transfer
    // rate (pipelined), plus the fixed ack. This is what makes ONE in-flight
    // write per zone deliver only a fraction of the zone bandwidth (Fig. 5)
    // while 32-deep submission saturates it.
    const SimTime base = buffered > z.ack_free ? buffered : z.ack_free;
    z.ack_free = base + TransferNs(bytes, config_.timing.chan_write_mbps);
    SimTime done = z.ack_free + config_.timing.write_ack_ns;
    // Stall additionally for flush backlog beyond the buffer-drain
    // allowance (GC congestion surfaces here).
    if (flush_done > sim_->Now() + kZrwaFlushAllowanceNs) {
      const SimTime gated = flush_done - kZrwaFlushAllowanceNs;
      if (gated > done) {
        done = gated;
      }
    }
    MaybeTransitionFull(z);
    const SimTime fin = port_.Stretch(z.channel, done);
    ObserveIo(span_write_, h_write_, fin, zone, offset, n);
    port_.Complete(fin, [cb = std::move(cb)]() { cb(OkStatus()); });
    return;
  }

  // Sequential-write-required zone.
  if (offset != z.flush_ptr) {
    stats_.write_failures++;
    port_.Fail(cb, WriteFailureError("non-sequential write at " +
                                     std::to_string(offset) + ", wptr=" +
                                     std::to_string(z.flush_ptr)));
    return;
  }
  for (uint64_t i = 0; i < n; ++i) {
    Block& block = z.blocks.Mut(offset + i);
    block.pattern = patterns[i];
    block.oob = oobs.empty() ? OobRecord{} : oobs[i];
    block.written = true;
    block.buffered = false;
    stats_.flash_by_tag[static_cast<int>(block.oob.tag)]++;
  }
  z.flush_ptr = end;
  z.high_water = end;
  stats_.flash_programmed_blocks += n;
  const SimTime done = backend_->Write(z.channel, bytes);
  MaybeTransitionFull(z);
  const SimTime fin = port_.Stretch(z.channel, done);
  ObserveIo(span_write_, h_write_, fin, zone, offset, n);
  port_.Complete(fin, [cb = std::move(cb)]() { cb(OkStatus()); });
}

void ZnsDevice::SubmitAppend(uint32_t zone, std::vector<uint64_t> patterns,
                             std::vector<OobRecord> oobs, AppendCallback cb) {
  port_.AtArrival([this, zone, patterns = std::move(patterns),
                   oobs = std::move(oobs), cb = std::move(cb)]() mutable {
    DoAppend(zone, std::move(patterns), std::move(oobs), std::move(cb));
  });
}

void ZnsDevice::DoAppend(uint32_t zone, std::vector<uint64_t> patterns,
                         std::vector<OobRecord> oobs, AppendCallback cb) {
  Status status = port_.FaultCheck(IoKind::kWrite);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }
  status = ValidateZoneId(zone);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }
  Zone& z = zones_[zone];
  if (z.with_zrwa) {
    // NVMe ZNS 1.1a: zones opened with ZRWA abort APPEND commands.
    port_.Fail(cb, ZoneStateError("APPEND on a ZRWA zone"));
    return;
  }
  const uint64_t n = patterns.size();
  if (n == 0) {
    port_.Fail(cb, InvalidArgumentError("empty append"));
    return;
  }
  if (z.flush_ptr + n > z.blocks.size()) {
    port_.Fail(cb, OutOfRangeError("append beyond zone capacity"));
    return;
  }
  status = EnsureOpenForWrite(z, zone);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }
  const uint64_t offset = z.flush_ptr;
  for (uint64_t i = 0; i < n; ++i) {
    Block& block = z.blocks.Mut(offset + i);
    block.pattern = patterns[i];
    block.oob = oobs.empty() ? OobRecord{} : oobs[i];
    block.written = true;
    block.buffered = false;
    stats_.flash_by_tag[static_cast<int>(block.oob.tag)]++;
  }
  z.flush_ptr = offset + n;
  z.high_water = z.flush_ptr;
  stats_.host_written_blocks += n;
  stats_.flash_programmed_blocks += n;
  const SimTime done = backend_->Write(z.channel, n * kBlockSize);
  MaybeTransitionFull(z);
  const SimTime fin = port_.Stretch(z.channel, done);
  ObserveIo(span_append_, h_write_, fin, zone, offset, n);
  port_.Complete(fin,
                 [cb = std::move(cb), offset]() { cb(OkStatus(), offset); });
}

void ZnsDevice::SubmitRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                           ReadCallback cb) {
  // The block count rides as 32 bits beside the zone so the closure fits
  // an InlineCallback; a count past that saturates and still fails the
  // capacity check in DoRead.
  const auto n = static_cast<uint32_t>(
      std::min<uint64_t>(nblocks, std::numeric_limits<uint32_t>::max()));
  auto arrival = [this, zone, n, offset, cb = std::move(cb)]() mutable {
    DoRead(zone, offset, n, std::move(cb));
  };
  static_assert(InlineCallback::FitsInline<decltype(arrival)>(),
                "a device read's arrival must not allocate");
  port_.AtArrival(std::move(arrival));
}

void ZnsDevice::DoRead(uint32_t zone, uint64_t offset, uint64_t nblocks,
                       ReadCallback cb) {
  Status status = port_.FaultCheck(IoKind::kRead);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }
  status = ValidateZoneId(zone);
  if (!status.ok()) {
    port_.Fail(cb, std::move(status));
    return;
  }
  Zone& z = zones_[zone];
  if (nblocks == 0 || offset + nblocks > z.blocks.size()) {
    port_.Fail(cb, OutOfRangeError("read beyond zone capacity"));
    return;
  }
  if (z.state == ZoneState::kOffline) {
    port_.Fail(cb, ZoneStateError("zone offline"));
    return;
  }
  std::vector<uint64_t> patterns;
  patterns.reserve(nblocks);
  bool all_buffered = true;
  for (uint64_t i = 0; i < nblocks; ++i) {
    // Unwritten blocks read back as zero (deallocated-value semantics);
    // a never-allocated chunk stands in for a run of unwritten blocks.
    const Block* block = z.blocks.Peek(offset + i);
    const bool written = block != nullptr && block->written;
    patterns.push_back(written ? block->pattern : 0);
    if (!written || !block->buffered) {
      all_buffered = false;
    }
  }
  stats_.host_read_blocks += nblocks;
  const uint64_t bytes = nblocks * kBlockSize;
  SimTime done;
  if (all_buffered) {
    done = backend_->BufferRead(bytes);
  } else if (z.channel >= 0) {
    done = backend_->Read(z.channel, bytes);
  } else {
    // Never-written zone: instant zero-fill from the controller.
    done = backend_->BufferRead(bytes);
  }
  const SimTime fin = port_.Stretch(z.channel, done);
  ObserveIo(span_read_, h_read_, fin, zone, offset, nblocks);
  auto completion = [cb = std::move(cb),
                     patterns = std::move(patterns)]() mutable {
    cb(OkStatus(), std::move(patterns));
  };
  static_assert(InlineCallback::FitsInline<decltype(completion)>(),
                "a device read's completion must not allocate");
  port_.Complete(fin, std::move(completion));
}

Status ZnsDevice::OpenZone(uint32_t zone, bool with_zrwa) {
  BIZA_RETURN_IF_ERROR(port_.CheckAlive());
  BIZA_RETURN_IF_ERROR(ValidateZoneId(zone));
  Zone& z = zones_[zone];
  if (with_zrwa && config_.zrwa_blocks == 0) {
    return UnimplementedError("device has no ZRWA support");
  }
  switch (z.state) {
    case ZoneState::kOpen:
      if (z.with_zrwa != with_zrwa) {
        return ZoneStateError("zone already open with different ZRWA mode");
      }
      return OkStatus();
    case ZoneState::kEmpty:
      if (open_zones_ >= config_.max_open_zones) {
        return ResourceExhaustedError("open zone limit reached");
      }
      AssignChannel(z);
      z.state = ZoneState::kOpen;
      z.with_zrwa = with_zrwa;
      open_zones_++;
      return OkStatus();
    case ZoneState::kClosed:
      if (open_zones_ >= config_.max_open_zones) {
        return ResourceExhaustedError("open zone limit reached");
      }
      if (z.with_zrwa != with_zrwa) {
        return ZoneStateError("closed zone has different ZRWA mode");
      }
      z.state = ZoneState::kOpen;
      open_zones_++;
      return OkStatus();
    case ZoneState::kFull:
      return ZoneStateError("cannot open FULL zone");
    case ZoneState::kOffline:
      return ZoneStateError("cannot open OFFLINE zone");
  }
  return InternalError("bad zone state");
}

Status ZnsDevice::CloseZone(uint32_t zone) {
  BIZA_RETURN_IF_ERROR(port_.CheckAlive());
  BIZA_RETURN_IF_ERROR(ValidateZoneId(zone));
  Zone& z = zones_[zone];
  if (z.state != ZoneState::kOpen) {
    return ZoneStateError("close on non-open zone");
  }
  z.state = ZoneState::kClosed;
  open_zones_--;
  return OkStatus();
}

Status ZnsDevice::FinishZone(uint32_t zone) {
  BIZA_RETURN_IF_ERROR(port_.CheckAlive());
  BIZA_RETURN_IF_ERROR(ValidateZoneId(zone));
  Zone& z = zones_[zone];
  if (z.state == ZoneState::kFull) {
    return OkStatus();
  }
  if (z.state == ZoneState::kOffline) {
    return ZoneStateError("finish on offline zone");
  }
  if (z.state == ZoneState::kEmpty) {
    if (open_zones_ >= config_.max_open_zones) {
      return ResourceExhaustedError("open zone limit reached");
    }
    AssignChannel(z);
    open_zones_++;  // transient open; released below
    z.state = ZoneState::kOpen;
  } else if (z.state == ZoneState::kClosed) {
    open_zones_++;
    z.state = ZoneState::kOpen;
  }
  if (z.with_zrwa) {
    FlushRange(z, z.flush_ptr, z.high_water);
  }
  z.flush_ptr = z.blocks.size();
  MaybeTransitionFull(z);
  return OkStatus();
}

Status ZnsDevice::ResetZone(uint32_t zone) {
  BIZA_RETURN_IF_ERROR(port_.CheckAlive());
  BIZA_RETURN_IF_ERROR(ValidateZoneId(zone));
  Zone& z = zones_[zone];
  if (z.state == ZoneState::kOffline) {
    return ZoneStateError("reset on offline zone");
  }
  if (z.state == ZoneState::kOpen) {
    open_zones_--;
  }
  if (z.channel >= 0 && z.high_water > 0) {
    backend_->Erase(z.channel);
  }
  z.blocks.Clear();  // bulk-free the chunked block state with the erase
  z.state = ZoneState::kEmpty;
  z.with_zrwa = false;
  z.flush_ptr = 0;
  z.high_water = 0;
  z.channel = -1;
  z.ack_free = 0;
  stats_.zone_resets++;
  return OkStatus();
}

Status ZnsDevice::CommitZrwa(uint32_t zone, uint64_t upto) {
  BIZA_RETURN_IF_ERROR(port_.CheckAlive());
  BIZA_RETURN_IF_ERROR(ValidateZoneId(zone));
  Zone& z = zones_[zone];
  if (!z.with_zrwa) {
    return ZoneStateError("commit on non-ZRWA zone");
  }
  if (upto > z.blocks.size()) {
    return OutOfRangeError("commit beyond zone capacity");
  }
  if (upto <= z.flush_ptr) {
    return OkStatus();  // nothing to do
  }
  FlushRange(z, z.flush_ptr, upto);
  MaybeTransitionFull(z);
  return OkStatus();
}

ZoneInfo ZnsDevice::Report(uint32_t zone) const {
  ZoneInfo info;
  if (zone >= config_.num_zones) {
    return info;
  }
  const Zone& z = zones_[zone];
  info.state = z.state;
  info.with_zrwa = z.with_zrwa;
  info.write_pointer = z.flush_ptr;
  info.high_water = z.high_water;
  return info;
}

Result<OobRecord> ZnsDevice::ReadOobSync(uint32_t zone, uint64_t offset) const {
  BIZA_RETURN_IF_ERROR(port_.CheckAlive());
  if (zone >= config_.num_zones) {
    return OutOfRangeError("bad zone");
  }
  const Zone& z = zones_[zone];
  if (offset >= z.blocks.size()) {
    return OutOfRangeError("bad offset");
  }
  const Block* block = z.blocks.Peek(offset);
  if (block == nullptr || !block->written) {
    return NotFoundError("block not written");
  }
  return block->oob;
}

Result<uint64_t> ZnsDevice::ReadPatternSync(uint32_t zone,
                                            uint64_t offset) const {
  BIZA_RETURN_IF_ERROR(port_.CheckAlive());
  if (zone >= config_.num_zones) {
    return OutOfRangeError("bad zone");
  }
  const Zone& z = zones_[zone];
  if (offset >= z.blocks.size()) {
    return OutOfRangeError("bad offset");
  }
  const Block* block = z.blocks.Peek(offset);
  if (block == nullptr || !block->written) {
    return NotFoundError("block not written");
  }
  return block->pattern;
}

uint64_t ZnsDevice::NextWrittenCandidate(uint32_t zone, uint64_t from) const {
  if (zone >= config_.num_zones) {
    return 0;
  }
  const Zone& z = zones_[zone];
  if (from >= z.blocks.size()) {
    return z.blocks.size();
  }
  return z.blocks.SkipUnallocated(from);
}

uint64_t ZnsDevice::ResidentStateBytes() const {
  uint64_t bytes = 0;
  for (const Zone& z : zones_) {
    bytes += z.blocks.allocated_bytes();
  }
  return bytes;
}

int ZnsDevice::DebugChannelOf(uint32_t zone) const {
  if (zone >= config_.num_zones) {
    return -1;
  }
  return zones_[zone].channel;
}

int ZnsDevice::ChannelOf(uint32_t zone) const {
  if (!config_.expose_channel_on_open) {
    return -1;  // hidden behind the ZNS interface, as on today's devices
  }
  return DebugChannelOf(zone);
}

}  // namespace biza
