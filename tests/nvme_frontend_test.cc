// NVMe queue-pair frontend (src/nvme/nvme_queue.h) and host write-buffer
// tier (src/nvme/host_buffer.h):
//   - the default config keeps every device on the legacy jittered dispatch
//     path, bit-identical run to run,
//   - frontend-enabled runs are byte-identical per seed,
//   - queue-depth backpressure, doorbell batching and interrupt coalescing
//     each do what the model claims (stalls counted, events collapsed),
//   - a bare queue pair delivers CQEs in (ready time, posting order) and
//     its delivery sequence is pinned across coalescing settings,
//   - a power cut leaves no command of the queue pair in flight, on both
//     device kinds,
//   - the write-back buffer absorbs hot updates, overlays reads with the
//     newest buffered data, and drains completely on FlushBuffers; the
//     write-through mode leaves the device-write stream unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/convssd/conv_ssd.h"
#include "src/nvme/host_buffer.h"
#include "src/nvme/nvme_queue.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"
#include "src/zns/zns_device.h"

namespace biza {
namespace {

struct FrontendOutcome {
  std::string fingerprint;
  uint64_t requests_completed = 0;
  NvmeQueueStats nvme;     // summed across member devices
  HostBufferStats hostbuf;  // zero when the buffer is off
};

NvmeQueueStats SumNvmeStats(Platform* platform) {
  NvmeQueueStats out;
  for (ZnsDevice* dev : platform->zns_devices()) {
    const NvmeQueueStats& s = dev->nvme_queue().stats();
    out.commands += s.commands;
    out.doorbells += s.doorbells;
    out.interrupts += s.interrupts;
    out.coalesced_commands += s.coalesced_commands;
    out.coalesced_cqes += s.coalesced_cqes;
    out.qd_stalls += s.qd_stalls;
    out.max_batch = std::max(out.max_batch, s.max_batch);
  }
  return out;
}

// One full driver run of the mixed CASA trace on a scaled BIZA platform,
// with the NVMe frontend and/or host buffer configured. The fingerprint
// folds in every externally visible result, so equal fingerprints mean the
// runs behaved identically.
FrontendOutcome RunCasa(uint64_t seed, const NvmeQueueConfig& nq,
                        const HostBufferConfig& hb = {},
                        uint64_t requests = 2000, int iodepth = 16) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/64, /*zone_capacity_blocks=*/1024);
  config.zns.nvme = nq;
  config.hostbuf = hb;
  config.MatchConvCapacity();
  config.seed = seed;
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);

  TraceProfile profile = TraceProfile::AllTable6()[0];
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 3);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, iodepth, /*verify=*/true);
  const DriverReport report = driver.Run(requests, 60 * kSecond);
  platform->Quiesce(&sim);

  FrontendOutcome out;
  out.requests_completed = report.requests_completed;
  out.nvme = SumNvmeStats(platform.get());
  if (platform->hostbuf() != nullptr) {
    out.hostbuf = platform->hostbuf()->stats();
  }
  EXPECT_EQ(report.verify_failures, 0u);
  std::ostringstream fp;
  fp << report.requests_completed << '|' << report.bytes_written << '|'
     << report.bytes_read << '|' << report.elapsed_ns << '|'
     << report.write_latency.Summary() << '|' << report.read_latency.Summary()
     << '|' << sim.Now() << '|' << sim.fired_events() << '|'
     << platform->FlashProgrammedBlocks() << '|' << out.nvme.commands << '|'
     << out.nvme.doorbells << '|' << out.nvme.interrupts << '|'
     << out.nvme.coalesced_commands << '|' << out.nvme.coalesced_cqes << '|'
     << out.nvme.qd_stalls << '|' << out.hostbuf.write_blocks << '|'
     << out.hostbuf.absorbed_blocks << '|' << out.hostbuf.flushed_blocks;
  out.fingerprint = fp.str();
  return out;
}

NvmeQueueConfig Frontend(uint32_t queues = 4, uint32_t qd = 32) {
  NvmeQueueConfig nq;
  nq.enabled = true;
  nq.num_queues = queues;
  nq.queue_depth = qd;
  return nq;
}

HostBufferConfig WriteBack(uint64_t capacity = 512) {
  HostBufferConfig hb;
  hb.enabled = true;
  hb.mode = HostBufferMode::kWriteBack;
  hb.capacity_blocks = capacity;
  return hb;
}

// ---------------------------------------------------------------------------
// Legacy-default identity and frontend determinism.

TEST(NvmeFrontend, DefaultConfigStaysOnLegacyPathAndIsBitIdentical) {
  // nvme.enabled defaults to false: the legacy jittered-dispatch code runs
  // verbatim (same RNG consumption), so two default runs are bit-identical
  // and no queue machinery ever fires.
  const FrontendOutcome a = RunCasa(/*seed=*/1, NvmeQueueConfig{});
  EXPECT_EQ(a.nvme.commands, 0u);
  EXPECT_EQ(a.nvme.doorbells, 0u);
  EXPECT_EQ(a.requests_completed, 2000u);
  const FrontendOutcome b = RunCasa(/*seed=*/1, NvmeQueueConfig{});
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NvmeFrontend, QueuedRunIsDeterministic) {
  const FrontendOutcome a = RunCasa(/*seed=*/2, Frontend());
  EXPECT_GT(a.nvme.commands, 0u);
  EXPECT_EQ(a.requests_completed, 2000u);
  const FrontendOutcome b = RunCasa(/*seed=*/2, Frontend());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NvmeFrontend, QueuedRunWithHostBufferIsDeterministic) {
  const FrontendOutcome a = RunCasa(/*seed=*/3, Frontend(), WriteBack());
  const FrontendOutcome b = RunCasa(/*seed=*/3, Frontend(), WriteBack());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_GT(a.hostbuf.write_blocks, 0u);
  EXPECT_EQ(a.requests_completed, 2000u);
}

// ---------------------------------------------------------------------------
// Queue mechanics: backpressure, batching, coalescing.

TEST(NvmeFrontend, QueueDepthBackpressureParksExcessCommands) {
  // One queue of depth 1 against iodepth 16: nearly every submission finds
  // the SQ full and waits in host software — and still everything completes.
  const FrontendOutcome a =
      RunCasa(/*seed=*/4, Frontend(/*queues=*/1, /*qd=*/1));
  EXPECT_EQ(a.requests_completed, 2000u);
  EXPECT_GT(a.nvme.qd_stalls, 0u);
}

TEST(NvmeFrontend, DoorbellBatchingCollapsesSubmissionEvents) {
  const FrontendOutcome a = RunCasa(/*seed=*/5, Frontend());
  // Commands posted while a ring event is pending ride it instead of
  // scheduling their own: strictly fewer doorbells than commands.
  EXPECT_GT(a.nvme.coalesced_commands, 0u);
  EXPECT_LT(a.nvme.doorbells, a.nvme.commands);
  EXPECT_EQ(a.nvme.doorbells + a.nvme.coalesced_commands, a.nvme.commands);
  EXPECT_GT(a.nvme.max_batch, 1u);
}

TEST(NvmeFrontend, InterruptCoalescingDrainsCompletionBatches) {
  NvmeQueueConfig nq = Frontend();
  nq.irq_threshold = 4;
  const FrontendOutcome a = RunCasa(/*seed=*/6, nq);
  EXPECT_GT(a.nvme.coalesced_cqes, 0u);
  EXPECT_LT(a.nvme.interrupts, a.nvme.commands);
}

// ---------------------------------------------------------------------------
// A bare queue pair: the CQ's delivery order and the interrupt rules.

NvmeQueueConfig Coalesced(uint32_t queues, uint32_t qd, uint32_t threshold,
                          SimTime timer) {
  NvmeQueueConfig nq = Frontend(queues, qd);
  nq.irq_threshold = threshold;
  nq.irq_timer_ns = timer;
  return nq;
}

// Commands whose device handler completes at a chosen time; each delivery
// records (Now(), id).
struct QueueRig {
  Simulator sim;
  NvmeQueuePair q;
  std::vector<std::pair<SimTime, int>> delivered;

  explicit QueueRig(const NvmeQueueConfig& nq)
      : q(&sim, nq, /*doorbell_ns=*/2 * kMicrosecond) {}

  // Completes at `done` (the queue adds the command's fetch skew).
  void SubmitUntil(int id, SimTime done) {
    q.Submit([this, id, done] {
      q.Complete(done, [this, id] { delivered.emplace_back(sim.Now(), id); });
    });
  }
  // Completes `latency` after the SQE is fetched.
  void Submit(int id, SimTime latency) {
    q.Submit([this, id, latency] {
      q.Complete(sim.Now() + latency,
                 [this, id] { delivered.emplace_back(sim.Now(), id); });
    });
  }
};

TEST(NvmeQueuePair, DeliverySequencePinned) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a
  auto mix = [&](uint64_t v) { hash = (hash ^ v) * 1099511628211ULL; };
  uint64_t total = 0;
  for (const uint32_t threshold : {1u, 8u, 64u}) {
    for (const SimTime timer :
         {SimTime{0}, 16 * kMicrosecond, 100 * kMicrosecond}) {
      for (const uint32_t queues : {1u, 4u}) {
        Simulator sim;
        NvmeQueuePair q(&sim, Coalesced(queues, /*qd=*/6, threshold, timer),
                        /*doorbell_ns=*/2 * kMicrosecond);
        Rng rng(threshold * 7919 + timer + queues);
        uint64_t submitted = 0;
        uint64_t delivered = 0;
        std::function<void()> submit = [&] {
          const uint64_t id = submitted++;
          // Error-like completions at fetch, completions on a 10 us grid
          // (equal ready times across rings), and uniform latencies (CQEs
          // posted out of ready order).
          const uint64_t kind = rng.Uniform(4);
          const SimTime latency = rng.UniformRange(1, 80 * kMicrosecond);
          q.Submit([&, id, kind, latency] {
            SimTime done = sim.Now();
            if (kind == 1) {
              const SimTime grid = 10 * kMicrosecond;
              done = (sim.Now() + latency + grid - 1) / grid * grid;
            } else if (kind >= 2) {
              done = sim.Now() + latency;
            }
            q.Complete(done, [&, id] {
              delivered++;
              mix(sim.Now());
              mix(id);
              if (rng.Uniform(8) == 0) {
                submit();  // a closed-loop resubmission from the interrupt
              }
            });
          });
        };
        for (int round = 0; round < 200; ++round) {
          // Mostly sparse single-SQE rings; every fourth round a burst that
          // overflows the queue depth and fills multi-SQE batches.
          const uint64_t burst =
              rng.Uniform(4) == 0 ? 1 + rng.Uniform(24) : rng.Uniform(2);
          for (uint64_t i = 0; i < burst; ++i) {
            submit();
          }
          sim.RunFor(rng.Uniform(30 * kMicrosecond));
        }
        sim.RunUntilIdle();
        EXPECT_EQ(delivered, submitted);
        EXPECT_EQ(q.inflight(), 0u);
        const NvmeQueueStats& s = q.stats();
        for (const uint64_t v :
             {s.commands, s.doorbells, s.interrupts, s.coalesced_commands,
              s.coalesced_cqes, s.qd_stalls, s.max_batch}) {
          mix(v);
        }
        total += submitted;
      }
    }
  }
  EXPECT_EQ(total, 14352u);
  EXPECT_EQ(hash, 0xdd398ff7f4a9f997ULL);
}

TEST(NvmeQueuePair, LaterCqeWithEarlierReadyTimeIsDeliveredFirst) {
  QueueRig rig(Coalesced(/*queues=*/1, /*qd=*/32, /*threshold=*/8,
                         /*timer=*/100 * kMicrosecond));
  rig.Submit(0, 50 * kMicrosecond);  // posted first, ready last
  rig.Submit(1, 10 * kMicrosecond);
  rig.sim.RunUntilIdle();
  // One interrupt, 100 us after command 1's CQE became ready (2 us doorbell
  // + its fetch slot at 400 ns + 10 us), drains both in ready order.
  const SimTime irq = 2 * kMicrosecond + 400 + 10 * kMicrosecond +
                      100 * kMicrosecond;
  const std::vector<std::pair<SimTime, int>> want = {{irq, 1}, {irq, 0}};
  EXPECT_EQ(rig.delivered, want);
  EXPECT_EQ(rig.q.stats().interrupts, 1u);
}

TEST(NvmeQueuePair, EqualReadyTimesAreDeliveredInPostingOrder) {
  QueueRig rig(Coalesced(/*queues=*/4, /*qd=*/32, /*threshold=*/8,
                         /*timer=*/16 * kMicrosecond));
  // Three single-SQE rings (one fetch slot each) that all complete at
  // 30 us: equal ready times, posted in the order 2, 0, 1.
  rig.SubmitUntil(2, 30 * kMicrosecond);
  rig.sim.RunFor(5 * kMicrosecond);
  rig.SubmitUntil(0, 30 * kMicrosecond);
  rig.sim.RunFor(5 * kMicrosecond);
  rig.SubmitUntil(1, 30 * kMicrosecond);
  rig.sim.RunUntilIdle();
  const SimTime irq = 30 * kMicrosecond + 200 + 16 * kMicrosecond;
  const std::vector<std::pair<SimTime, int>> want = {
      {irq, 2}, {irq, 0}, {irq, 1}};
  EXPECT_EQ(rig.delivered, want);
}

TEST(NvmeQueuePair, SupersededInterruptDeliversNothing) {
  QueueRig rig(Coalesced(/*queues=*/1, /*qd=*/32, /*threshold=*/2,
                         /*timer=*/100 * kMicrosecond));
  // Command 0 arms a timer interrupt at 12.2 + 100 us; command 1 reaches
  // the threshold and re-arms at its own ready time, which drains both.
  rig.Submit(0, 10 * kMicrosecond);
  rig.Submit(1, 20 * kMicrosecond);
  // Command 2 is ready at 62.2 us but alone under the threshold: its timer
  // interrupt is armed for 162.2 us, so the superseded event at 112.2 us
  // must not deliver it.
  rig.sim.RunUntil(50 * kMicrosecond);
  rig.Submit(2, 10 * kMicrosecond);
  rig.sim.RunUntilIdle();
  const SimTime first = 2 * kMicrosecond + 400 + 20 * kMicrosecond;
  const SimTime third =
      50 * kMicrosecond + 2 * kMicrosecond + 200 + 10 * kMicrosecond +
      100 * kMicrosecond;
  const std::vector<std::pair<SimTime, int>> want = {
      {first, 0}, {first, 1}, {third, 2}};
  EXPECT_EQ(rig.delivered, want);
  EXPECT_EQ(rig.q.stats().interrupts, 2u);
  EXPECT_EQ(rig.sim.Now(), third);
}

// Block 0 of either device kind: zone 0 of a ZNS SSD, LBN 0 of a
// conventional one.
void WriteBlock0(ZnsDevice& dev, std::vector<uint64_t> patterns,
                 ZnsDevice::WriteCallback cb) {
  dev.SubmitWrite(0, 0, std::move(patterns), {}, std::move(cb));
}
void WriteBlock0(ConvSsd& dev, std::vector<uint64_t> patterns,
                 ConvSsd::WriteCallback cb) {
  dev.SubmitWrite(0, std::move(patterns), std::move(cb));
}
void ReadBlock0(ZnsDevice& dev, uint64_t nblocks, ZnsDevice::ReadCallback cb) {
  dev.SubmitRead(0, 0, nblocks, std::move(cb));
}
void ReadBlock0(ConvSsd& dev, uint64_t nblocks, ConvSsd::ReadCallback cb) {
  dev.SubmitRead(0, nblocks, std::move(cb));
}

// A power cut (Simulator::DropPending) destroys the ring and interrupt
// events of every command in flight. The queue pair must forget those
// commands too: none of their callbacks may run after the cut, and the
// next command must not wait behind their SQ slots or a dead interrupt.
// `dev` sits behind one queue pair of depth 5.
template <typename Device>
void ExpectPowerCutForgetsInFlightCommands(Simulator& sim, Device& dev) {
  bool written = false;
  WriteBlock0(dev, {41, 42}, [&written](const Status& s) {
    EXPECT_TRUE(s.ok());
    written = true;
  });
  sim.RunUntilIdle();
  ASSERT_TRUE(written);

  int pre_cut = 0;
  auto count = [&pre_cut](const Status&, std::vector<uint64_t>) { pre_cut++; };
  // Four reads fetched by the first ring (CQEs pending at the cut), one in
  // a second batch whose ring has not fired, one parked for a free slot.
  for (int i = 0; i < 4; ++i) {
    ReadBlock0(dev, 2, count);
  }
  sim.RunUntil(sim.Now() + 3 * kMicrosecond);
  ReadBlock0(dev, 2, count);
  ReadBlock0(dev, 2, count);
  EXPECT_EQ(dev.nvme_queue().inflight(), 6u);
  EXPECT_EQ(dev.nvme_queue().stats().qd_stalls, 1u);
  sim.DropPending();
  EXPECT_EQ(dev.nvme_queue().inflight(), 0u);

  std::vector<uint64_t> got;
  ReadBlock0(dev, 2, [&got](const Status& s, std::vector<uint64_t> p) {
    EXPECT_TRUE(s.ok());
    got = std::move(p);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<uint64_t>{41, 42}));
  EXPECT_EQ(pre_cut, 0);
  EXPECT_EQ(dev.nvme_queue().inflight(), 0u);
}

TEST(NvmeFrontend, PowerCutForgetsInFlightCommands) {
  {
    SCOPED_TRACE("ZnsDevice");
    Simulator sim;
    ZnsConfig zc =
        ZnsConfig::Zn540(/*num_zones=*/8, /*zone_capacity_blocks=*/1024);
    zc.nvme = Frontend(/*queues=*/1, /*qd=*/5);
    ZnsDevice dev(&sim, zc);
    ExpectPowerCutForgetsInFlightCommands(sim, dev);
  }
  {
    SCOPED_TRACE("ConvSsd");
    Simulator sim;
    ConvSsdConfig cc;
    cc.capacity_blocks = 8 * 1024;
    cc.nvme = Frontend(/*queues=*/1, /*qd=*/5);
    ConvSsd dev(&sim, cc);
    ExpectPowerCutForgetsInFlightCommands(sim, dev);
  }
}

// ---------------------------------------------------------------------------
// Host write buffer against a single ConvSSD: absorption, overlay, flush.

struct BufferRig {
  Simulator sim;
  std::unique_ptr<ConvSsd> ssd;
  std::unique_ptr<HostWriteBuffer> buffer;

  explicit BufferRig(const HostBufferConfig& hb) {
    ConvSsdConfig cc;
    cc.capacity_blocks = 64 * 1024;
    ssd = std::make_unique<ConvSsd>(&sim, cc);
    buffer = std::make_unique<HostWriteBuffer>(&sim, ssd.get(), hb);
  }

  void Write(uint64_t lbn, std::vector<uint64_t> patterns) {
    bool done = false;
    buffer->SubmitWrite(lbn, std::move(patterns),
                        [&done](const Status& s) {
                          EXPECT_TRUE(s.ok());
                          done = true;
                        });
    sim.RunUntilIdle();
    EXPECT_TRUE(done);
  }

  std::vector<uint64_t> Read(uint64_t lbn, uint64_t nblocks) {
    std::vector<uint64_t> got;
    bool done = false;
    buffer->SubmitRead(lbn, nblocks,
                       [&done, &got](const Status& s,
                                     std::vector<uint64_t> patterns) {
                         EXPECT_TRUE(s.ok());
                         got = std::move(patterns);
                         done = true;
                       });
    sim.RunUntilIdle();
    EXPECT_TRUE(done);
    return got;
  }

  void Flush() {
    bool done = false;
    buffer->FlushBuffers([&done] { done = true; });
    sim.RunUntilIdle();
    EXPECT_TRUE(done);
  }
};

TEST(HostWriteBuffer, WriteBackAbsorbsHotUpdates) {
  BufferRig rig(WriteBack(/*capacity=*/512));
  // 32 rewrites of the same 8 blocks; the pool holds them all, so only the
  // final version should ever reach the device.
  for (uint64_t round = 1; round <= 32; ++round) {
    rig.Write(100, std::vector<uint64_t>(8, round));
  }
  EXPECT_EQ(rig.buffer->stats().absorbed_blocks, 31u * 8u);
  rig.Flush();
  EXPECT_EQ(rig.buffer->occupancy_blocks(), 0u);
  // Device saw one 8-block flush run, not 32 writes.
  EXPECT_EQ(rig.ssd->stats().host_written_blocks, 8u);
  EXPECT_EQ(rig.Read(100, 8), std::vector<uint64_t>(8, 32u));
}

TEST(HostWriteBuffer, ReadsOverlayNewestBufferedData) {
  BufferRig rig(WriteBack(/*capacity=*/512));
  rig.Write(10, {1, 2, 3, 4});
  rig.Flush();
  rig.Write(11, {20, 30});  // dirty, not yet flushed
  // Mixed read: blocks 10 and 13 come from the device, 11-12 from the pool.
  EXPECT_EQ(rig.Read(10, 4), (std::vector<uint64_t>{1, 20, 30, 4}));
  // Fully-buffered read never touches the device.
  const uint64_t device_reads = rig.ssd->stats().host_read_blocks;
  EXPECT_EQ(rig.Read(11, 2), (std::vector<uint64_t>{20, 30}));
  EXPECT_EQ(rig.ssd->stats().host_read_blocks, device_reads);
  EXPECT_GT(rig.buffer->stats().read_hit_blocks, 0u);
}

TEST(HostWriteBuffer, WriteThroughLeavesDeviceWriteStreamUnchanged) {
  HostBufferConfig hb;
  hb.enabled = true;
  hb.mode = HostBufferMode::kWriteThrough;
  BufferRig rig(hb);
  for (uint64_t round = 1; round <= 8; ++round) {
    rig.Write(100, std::vector<uint64_t>(4, round));
  }
  // Every write went straight down: no absorption, no pool occupancy.
  EXPECT_EQ(rig.ssd->stats().host_written_blocks, 8u * 4u);
  EXPECT_EQ(rig.buffer->stats().absorbed_blocks, 0u);
  EXPECT_EQ(rig.buffer->occupancy_blocks(), 0u);
  EXPECT_EQ(rig.Read(100, 4), std::vector<uint64_t>(4, 8u));
}

TEST(HostWriteBuffer, AdmissionStallsWhenPoolIsFullAndStillCompletes) {
  BufferRig rig(WriteBack(/*capacity=*/16));
  // 16 disjoint 8-block writes posted back-to-back against a 16-block pool:
  // admission must stall repeatedly on flush completions (FIFO order kept),
  // and every write must still ack.
  int acked = 0;
  for (uint64_t i = 0; i < 16; ++i) {
    rig.buffer->SubmitWrite(i * 8, std::vector<uint64_t>(8, i + 1),
                            [&acked](const Status& s) {
                              EXPECT_TRUE(s.ok());
                              acked++;
                            });
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(acked, 16);
  EXPECT_GT(rig.buffer->stats().admission_stalls, 0u);
  rig.Flush();
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rig.Read(i * 8, 8), std::vector<uint64_t>(8, i + 1));
  }
}

TEST(HostWriteBuffer, OversizeWritesBypassThePoolAndStayCoherent) {
  BufferRig rig(WriteBack(/*capacity=*/16));
  rig.Write(0, {7, 7});  // buffered, dirty
  // 32 blocks >= the 16-block pool: written straight through, overlapping
  // buffered blocks bumped to the new data (still dirty, see host_buffer.cc).
  rig.Write(0, std::vector<uint64_t>(32, 9));
  EXPECT_EQ(rig.buffer->stats().bypass_writes, 1u);
  EXPECT_EQ(rig.Read(0, 32), std::vector<uint64_t>(32, 9));
  rig.Flush();
  EXPECT_EQ(rig.Read(0, 32), std::vector<uint64_t>(32, 9));
}

TEST(HostWriteBuffer, DirtyContentsExposeNewestVersions) {
  BufferRig rig(WriteBack(/*capacity=*/512));
  rig.Write(5, {1});
  rig.Write(5, {2});
  rig.Write(9, {3});
  const auto dirty = rig.buffer->DirtyContents();
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0].lbn, 5u);
  EXPECT_EQ(dirty[0].pattern, 2u);  // newest version, not the first
  EXPECT_EQ(dirty[1].lbn, 9u);
  EXPECT_EQ(dirty[1].pattern, 3u);
  rig.Flush();
  EXPECT_TRUE(rig.buffer->DirtyContents().empty());
}

}  // namespace
}  // namespace biza
