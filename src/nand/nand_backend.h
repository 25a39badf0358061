// NAND flash resource model shared by the ZNS and conventional SSD devices.
//
// A device is modelled as a three-stage pipeline of FIFO resources:
//
//   host --> [controller port] --> [channel bus] --> [die]
//
// * The controller port caps device-wide throughput (ZN540: 2170 MB/s write,
//   3265 MB/s read). It models PCIe + controller DMA.
// * Each channel bus carries data to/from one group of dies. A zone is mapped
//   to exactly one channel ("I/O channel" in the paper, §2.2): the channel
//   rate is the sustained bandwidth of a single zone (ZN540: ~1092 MB/s,
//   Table 3 of the paper).
// * Dies hold the program/read latency. A write occupies its die *after* the
//   channel transfer, and — crucially — the transfer of a write cannot start
//   until its target die is free. This creates the buffer-credit backpressure
//   that makes sustained bandwidth flash-limited while individual writes
//   complete at DRAM-arrival time (real SSDs ack writes from the write
//   buffer).
//
// Why this reproduces the paper's observations:
// * One in-flight write pays controller + channel + ack latency serially and
//   reaches only ~35-45% of the channel rate (paper §3.2 / Fig. 5).
// * Two zones on the same channel share one bus: no throughput gain, ~2x
//   latency (Table 3, scenario 2). Two zones on different channels double
//   throughput (scenario 3).
// * GC reads/writes/erases occupy channel + dies and delay queued user
//   writes on the same channel: the tail-latency spikes of §2.3 / Fig. 15.
// * ZRWA in-place updates take the DRAM fast path (controller only) and
//   consume no flash resources until flushed (§3.1 / Fig. 14).
#ifndef BIZA_SRC_NAND_NAND_BACKEND_H_
#define BIZA_SRC_NAND_NAND_BACKEND_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/metrics/tracer.h"
#include "src/sim/simulator.h"

namespace biza {

struct NandTimingConfig {
  int num_channels = 8;
  int dies_per_channel = 4;

  // Controller (device-wide) rates.
  double ctrl_write_mbps = 2170.0;
  double ctrl_read_mbps = 3265.0;
  SimTime ctrl_fixed_ns = 700;  // per-command controller/DMA setup

  // Channel bus rates (per-channel).
  double chan_write_mbps = 1100.0;
  double chan_read_mbps = 1700.0;
  SimTime chan_fixed_ns = 1 * kMicrosecond;

  // Die program/read.
  double die_program_mbps = 700.0;
  SimTime die_program_fixed_ns = 25 * kMicrosecond;
  double die_read_mbps = 1400.0;
  SimTime die_read_fixed_ns = 25 * kMicrosecond;
  SimTime die_erase_ns = 3500 * kMicrosecond;

  // Completion overheads.
  SimTime write_ack_ns = 40 * kMicrosecond;   // flash-backed write ack
  SimTime buffer_ack_ns = 8 * kMicrosecond;   // DRAM write-buffer ack (ZRWA)
  SimTime read_done_ns = 5 * kMicrosecond;
};

// Per-channel busy-time accounting, for utilisation reports.
struct ChannelStats {
  SimTime bus_busy_ns = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

class NandBackend {
 public:
  NandBackend(Simulator* sim, const NandTimingConfig& config);

  // Schedules a flash-backed write of `bytes` on `channel` starting no
  // earlier than now. Returns the host-visible completion time (data landed
  // in the device buffer and was acked); the die program continues in the
  // background but its occupancy is reserved.
  SimTime Write(int channel, uint64_t bytes);

  // A background flush (e.g. ZRWA implicit commit): consumes channel + die
  // like a write but has no host-visible completion; returns when the die
  // program ends. Skips the controller stage (the data is already on-device).
  SimTime BackgroundProgram(int channel, uint64_t bytes);

  // Flash read: die sense, channel transfer, controller DMA. Returns
  // host-visible completion time.
  SimTime Read(int channel, uint64_t bytes);

  // DRAM-only write (ZRWA in-place update): controller stage + buffer ack.
  SimTime BufferWrite(uint64_t bytes);

  // DRAM-only read (data still in the write buffer).
  SimTime BufferRead(uint64_t bytes);

  // Erase: occupies every die of the channel once. Returns completion time.
  SimTime Erase(int channel);

  // Batched pipeline legs (ConvSSD's GC migration). A run is *defined* as
  // exactly `pages` back-to-back per-page operations: the FifoResource
  // arithmetic (including the per-page die rotation) and the state it leaves
  // behind are those of calling Read()/BackgroundProgram() `pages` times
  // with `page_bytes` each. Returns the completion time of the last page.
  SimTime ReadRun(int channel, uint64_t pages, uint64_t page_bytes);
  SimTime ProgramRun(int channel, uint64_t pages, uint64_t page_bytes);

  const NandTimingConfig& config() const { return config_; }
  int num_channels() const { return config_.num_channels; }
  const ChannelStats& channel_stats(int channel) const {
    return channel_stats_[static_cast<size_t>(channel)];
  }
  Simulator* sim() { return sim_; }

  // How far ahead of Now() the channel bus is already committed — the
  // "in-flight per channel" gauge of the time-series sampler.
  SimTime ChannelBacklogNs(int channel) const {
    const SimTime free_at =
        channels_[static_cast<size_t>(channel)].free_at();
    const SimTime now = sim_->Now();
    return free_at > now ? free_at - now : 0;
  }

  // Records nand.chan_* / nand.die_* spans for every bus transfer and die
  // program/sense this backend schedules. Pass nullptr to detach.
  void SetTracer(Tracer* tracer, int device_id);

 private:
  FifoResource& NextDie(int channel);

  Simulator* sim_;
  NandTimingConfig config_;
  Tracer* tracer_ = nullptr;
  int trace_device_id_ = 0;
  uint16_t span_chan_write_ = 0;
  uint16_t span_chan_read_ = 0;
  uint16_t span_die_program_ = 0;
  uint16_t span_die_read_ = 0;
  uint16_t key_channel_ = 0;
  uint16_t key_device_ = 0;
  FifoResource ctrl_write_;
  FifoResource ctrl_read_;
  std::vector<FifoResource> channels_;
  std::vector<std::vector<FifoResource>> dies_;
  std::vector<size_t> die_rr_;
  std::vector<ChannelStats> channel_stats_;
};

}  // namespace biza

#endif  // BIZA_SRC_NAND_NAND_BACKEND_H_
