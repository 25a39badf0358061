#include "src/nand/nand_backend.h"

#include <cassert>

namespace biza {

namespace {

SimTime ServiceNs(uint64_t bytes, double mbps, SimTime fixed_ns) {
  return fixed_ns + TransferNs(bytes, mbps);
}

}  // namespace

NandBackend::NandBackend(Simulator* sim, const NandTimingConfig& config)
    : sim_(sim), config_(config) {
  assert(config_.num_channels > 0 && config_.dies_per_channel > 0);
  channels_.resize(static_cast<size_t>(config_.num_channels));
  dies_.resize(static_cast<size_t>(config_.num_channels));
  die_rr_.resize(static_cast<size_t>(config_.num_channels), 0);
  channel_stats_.resize(static_cast<size_t>(config_.num_channels));
  for (auto& channel_dies : dies_) {
    channel_dies.resize(static_cast<size_t>(config_.dies_per_channel));
  }
}

void NandBackend::SetTracer(Tracer* tracer, int device_id) {
  tracer_ = tracer;
  trace_device_id_ = device_id;
  if (tracer_ != nullptr) {
    span_chan_write_ = tracer_->Intern("nand.chan_write");
    span_chan_read_ = tracer_->Intern("nand.chan_read");
    span_die_program_ = tracer_->Intern("nand.die_program");
    span_die_read_ = tracer_->Intern("nand.die_read");
    key_channel_ = tracer_->Intern("channel");
    key_device_ = tracer_->Intern("device");
  }
}

FifoResource& NandBackend::NextDie(int channel) {
  auto& channel_dies = dies_[static_cast<size_t>(channel)];
  const size_t index = die_rr_[static_cast<size_t>(channel)]++ % channel_dies.size();
  return channel_dies[index];
}

SimTime NandBackend::Write(int channel, uint64_t bytes) {
  assert(channel >= 0 && channel < config_.num_channels);
  const SimTime now = sim_->Now();
  const SimTime ctrl_done = ctrl_write_.OccupyFor(
      now, ServiceNs(bytes, config_.ctrl_write_mbps, config_.ctrl_fixed_ns));

  FifoResource& die = NextDie(channel);
  // Buffer-credit backpressure: the channel transfer waits for the target
  // die to drain its previous program.
  const SimTime gate = ctrl_done > die.free_at() ? ctrl_done : die.free_at();
  FifoResource& bus = channels_[static_cast<size_t>(channel)];
  const bool traced = tracer_ != nullptr && tracer_->Armed(now);
  const SimTime bus_free = traced ? bus.free_at() : 0;
  const SimTime xfer_ns =
      ServiceNs(bytes, config_.chan_write_mbps, config_.chan_fixed_ns);
  const SimTime chan_done = bus.OccupyFor(gate, xfer_ns);

  const SimTime prog_ns =
      ServiceNs(bytes, config_.die_program_mbps, config_.die_program_fixed_ns);
  const SimTime prog_done = die.OccupyFor(chan_done, prog_ns);
  if (traced) {
    // gate >= die.free_at() by construction, so the die program starts
    // exactly when the transfer ends.
    tracer_->Record(Tracer::kLaneNand, span_chan_write_,
                    bus_free > gate ? bus_free : gate, chan_done,
                    key_channel_, channel, key_device_, trace_device_id_);
    tracer_->Record(Tracer::kLaneNand, span_die_program_, chan_done,
                    prog_done, key_channel_, channel, key_device_,
                    trace_device_id_);
  }

  auto& stats = channel_stats_[static_cast<size_t>(channel)];
  stats.bus_busy_ns += xfer_ns;
  stats.bytes_written += bytes;
  return chan_done + config_.write_ack_ns;
}

SimTime NandBackend::BackgroundProgram(int channel, uint64_t bytes) {
  assert(channel >= 0 && channel < config_.num_channels);
  const SimTime now = sim_->Now();
  FifoResource& die = NextDie(channel);
  const SimTime gate = now > die.free_at() ? now : die.free_at();
  FifoResource& bus = channels_[static_cast<size_t>(channel)];
  const bool traced = tracer_ != nullptr && tracer_->Armed(now);
  const SimTime bus_free = traced ? bus.free_at() : 0;
  const SimTime xfer_ns =
      ServiceNs(bytes, config_.chan_write_mbps, config_.chan_fixed_ns);
  const SimTime chan_done = bus.OccupyFor(gate, xfer_ns);
  const SimTime prog_ns =
      ServiceNs(bytes, config_.die_program_mbps, config_.die_program_fixed_ns);
  const SimTime done = die.OccupyFor(chan_done, prog_ns);
  if (traced) {
    tracer_->Record(Tracer::kLaneNand, span_chan_write_,
                    bus_free > gate ? bus_free : gate, chan_done,
                    key_channel_, channel, key_device_, trace_device_id_);
    tracer_->Record(Tracer::kLaneNand, span_die_program_, chan_done, done,
                    key_channel_, channel, key_device_, trace_device_id_);
  }
  auto& stats = channel_stats_[static_cast<size_t>(channel)];
  stats.bus_busy_ns += xfer_ns;
  stats.bytes_written += bytes;
  return done;
}

SimTime NandBackend::Read(int channel, uint64_t bytes) {
  assert(channel >= 0 && channel < config_.num_channels);
  const SimTime now = sim_->Now();
  FifoResource& die = NextDie(channel);
  const bool traced = tracer_ != nullptr && tracer_->Armed(now);
  const SimTime die_free = traced ? die.free_at() : 0;
  const SimTime sense_done = die.OccupyFor(
      now, ServiceNs(bytes, config_.die_read_mbps, config_.die_read_fixed_ns));
  FifoResource& bus = channels_[static_cast<size_t>(channel)];
  const SimTime bus_free = traced ? bus.free_at() : 0;
  const SimTime xfer_ns =
      ServiceNs(bytes, config_.chan_read_mbps, config_.chan_fixed_ns);
  const SimTime chan_done = bus.OccupyFor(sense_done, xfer_ns);
  const SimTime ctrl_done = ctrl_read_.OccupyFor(
      chan_done, ServiceNs(bytes, config_.ctrl_read_mbps, config_.ctrl_fixed_ns));
  if (traced) {
    tracer_->Record(Tracer::kLaneNand, span_die_read_,
                    die_free > now ? die_free : now, sense_done, key_channel_,
                    channel, key_device_, trace_device_id_);
    tracer_->Record(Tracer::kLaneNand, span_chan_read_,
                    bus_free > sense_done ? bus_free : sense_done, chan_done,
                    key_channel_, channel, key_device_, trace_device_id_);
  }
  auto& stats = channel_stats_[static_cast<size_t>(channel)];
  stats.bus_busy_ns += xfer_ns;
  stats.bytes_read += bytes;
  return ctrl_done + config_.read_done_ns;
}

SimTime NandBackend::BufferWrite(uint64_t bytes) {
  const SimTime ctrl_done = ctrl_write_.OccupyFor(
      sim_->Now(),
      ServiceNs(bytes, config_.ctrl_write_mbps, config_.ctrl_fixed_ns));
  return ctrl_done + config_.buffer_ack_ns;
}

SimTime NandBackend::BufferRead(uint64_t bytes) {
  const SimTime ctrl_done = ctrl_read_.OccupyFor(
      sim_->Now(),
      ServiceNs(bytes, config_.ctrl_read_mbps, config_.ctrl_fixed_ns));
  return ctrl_done + config_.read_done_ns;
}

SimTime NandBackend::ReadRun(int channel, uint64_t pages,
                             uint64_t page_bytes) {
  SimTime done = sim_->Now();
  for (uint64_t p = 0; p < pages; ++p) {
    done = Read(channel, page_bytes);
  }
  return done;
}

SimTime NandBackend::ProgramRun(int channel, uint64_t pages,
                                uint64_t page_bytes) {
  SimTime done = sim_->Now();
  for (uint64_t p = 0; p < pages; ++p) {
    done = BackgroundProgram(channel, page_bytes);
  }
  return done;
}

SimTime NandBackend::Erase(int channel) {
  assert(channel >= 0 && channel < config_.num_channels);
  const SimTime now = sim_->Now();
  SimTime done = now;
  for (auto& die : dies_[static_cast<size_t>(channel)]) {
    const SimTime die_done = die.OccupyFor(now, config_.die_erase_ns);
    done = die_done > done ? die_done : done;
  }
  return done;
}

}  // namespace biza
