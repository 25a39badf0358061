#include "src/zapraid/zapraid.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/engines/join.h"
#include "src/engines/retry.h"
#include "src/raid/reed_solomon.h"

namespace biza {

namespace {
inline uint16_t Bit(int device) {
  return static_cast<uint16_t>(1u << device);
}
}  // namespace

ZapRaid::ZapRaid(Simulator* sim, std::vector<ZnsDevice*> devices,
                 const ZapRaidConfig& config)
    : sim_(sim),
      devices_(std::move(devices)),
      config_(config),
      rebuild_(sim, "zapraid", &device_failed_, this),
      front_(sim, this, "zapraid", &stats_.user_written_blocks,
             &stats_.user_read_blocks) {
  n_ = static_cast<int>(devices_.size());
  assert(n_ >= 2 && n_ <= 16 && "ZapRaid supports 2..16 members");
  k_ = n_ - 1;
  zone_cap_ = devices_[0]->config().zone_capacity_blocks;
  num_zones_ = devices_[0]->config().num_zones;
  for (ZnsDevice* dev : devices_) {
    assert(dev->config().zone_capacity_blocks == zone_cap_);
    assert(dev->config().num_zones == num_zones_);
    (void)dev;
  }
  exposed_blocks_ = static_cast<uint64_t>(
      config_.exposed_capacity_ratio * static_cast<double>(num_zones_) *
      static_cast<double>(zone_cap_) * static_cast<double>(k_));
  groups_.resize(num_zones_);
  free_groups_ = num_zones_;
  device_failed_.assign(static_cast<size_t>(n_), false);
}

void ZapRaid::SetGroupUse(Group& grp, GroupUse use) {
  if (grp.use == GroupUse::kFree) {
    --free_groups_;
  }
  if (use == GroupUse::kFree) {
    ++free_groups_;
  }
  grp.use = use;
}

bool ZapRaid::EnsureBuilderOpen(int b) {
  Builder& bd = builders_[b];
  if (bd.open) {
    return true;
  }
  // User appends stall rather than dip into the GC reserve; the GC/rebuild
  // frontier only needs one free group to make forward progress.
  const uint64_t reserve = (b == kUserBuilder) ? kReservedGroups : 0;
  if (free_groups_ <= reserve) {
    return false;
  }
  std::vector<int> members;
  for (int d = 0; d < n_; ++d) {
    if (DeviceWritable(d)) {
      members.push_back(d);
    }
  }
  if (members.size() < 2) {
    return false;  // cannot form a stripe (need >= 1 data + 1 parity)
  }
  uint32_t group = num_zones_;
  for (uint32_t g = 0; g < num_zones_; ++g) {
    if (groups_[g].use == GroupUse::kFree) {
      group = g;
      break;
    }
  }
  if (group == num_zones_) {
    return false;
  }
  Group& grp = groups_[group];
  SetGroupUse(grp, GroupUse::kOpen);
  grp.valid = 0;
  grp.data_chunks = 0;
  grp.members = 0;
  for (int d : members) {
    grp.members |= Bit(d);
  }
  grp.rows.assign(zone_cap_, RowMeta{});
  grp.live.assign(zone_cap_, 0);

  auto io = std::make_shared<GroupIo>();
  io->group = group;
  io->queues.resize(static_cast<size_t>(n_));
  active_io_[group] = io;

  bd.open = true;
  bd.group = group;
  bd.row = 0;
  bd.members = std::move(members);
  bd.io = io;
  bd.row_open = false;
  return true;
}

void ZapRaid::EnsureRowOpen(int b) {
  Builder& bd = builders_[b];
  if (bd.row_open) {
    return;
  }
  const int m = static_cast<int>(bd.members.size());
  // Left-asymmetric parity rotation over the group's live members.
  int parity_dev = bd.members[static_cast<size_t>(m - 1 - (bd.row % m))];
  // Parity steering: land the row's parity on a gray member so its
  // stretched completions stay off the foreground read path.
  if (health_ != nullptr) {
    for (int d : bd.members) {
      if (health_->IsGray(d)) {
        if (d != parity_dev) {
          parity_dev = d;
          ++stats_.steered_parity_rows;
        }
        break;
      }
    }
  }
  bd.parity_dev = parity_dev;
  bd.data_devs.clear();
  for (int d : bd.members) {
    if (d != parity_dev) {
      bd.data_devs.push_back(d);
    }
  }
  bd.next_slot = 0;
  bd.row_patterns.assign(bd.data_devs.size(), 0);
  bd.row_open = true;
  groups_[bd.group].rows[bd.row].parity_dev = static_cast<int8_t>(parity_dev);
}

bool ZapRaid::AppendChunk(int b, uint64_t pattern, OobRecord oob, WriteTag tag,
                          std::function<void(const Status&)> done,
                          uint64_t repoint_from) {
  if (!EnsureBuilderOpen(b)) {
    return false;
  }
  Builder& bd = builders_[b];
  EnsureRowOpen(b);
  const int device = bd.data_devs[bd.next_slot];
  const uint32_t group = bd.group;
  const uint64_t row = bd.row;
  Group& grp = groups_[group];

  // `oob.sn` == 0 means "assign a fresh write sequence number"; requeues off
  // a dead member and GC migrations preserve the original so the recovery
  // total order (highest wsn wins) is unaffected.
  const uint32_t requeue_wsn = oob.sn;
  if (oob.sn == 0) {
    oob.sn = next_wsn_++;
  }

  const bool is_data = (tag == WriteTag::kData || tag == WriteTag::kGcData);
  if (is_data) {
    cpu_.Charge(kCpuCosts.map_update_ns);
    const uint64_t pa = MakePa(device, group, row);
    L2pEntry& cur = l2p_.Mut(oob.lbn);
    bool mapped = false;
    if (repoint_from != kInvalidPa) {
      // Relocation (requeue / GC / rebuild): re-point the L2P only if it
      // still references the source location — a concurrent overwrite wins
      // and this chunk is garbage on arrival (still written so the original
      // ack stays backed by a durable copy).
      if (cur.pa == repoint_from &&
          (requeue_wsn == 0 || cur.wsn == requeue_wsn)) {
        InvalidatePa(repoint_from);
        cur = L2pEntry{pa, oob.sn};
        ++grp.valid;
        mapped = true;
      }
    } else {
      if (cur.pa != kInvalidPa) {
        InvalidatePa(cur.pa);
      }
      cur = L2pEntry{pa, oob.sn};
      ++grp.valid;
      mapped = true;
    }
    if (mapped) {
      grp.live[row] |= Bit(device);
      // Serve reads of the in-flight block from the host copy until the
      // program lands. This covers relocations too: the L2P already points
      // at the new home, whose block is unwritten until the device acks.
      // Monotonic wsn keeps an old requeue from clobbering a newer pending
      // overwrite; a superseded chunk (mapped == false) must never land
      // here — its payload is stale.
      PendingWrite& pw = pending_.Upsert(oob.lbn);
      if (pw.wsn <= oob.sn) {
        pw = PendingWrite{pattern, oob.sn};
      }
    }
  }
  ++grp.data_chunks;
  grp.rows[row].present |= Bit(device);
  bd.row_patterns[bd.next_slot] = pattern;
  ++bd.next_slot;

  ChunkOp op;
  op.offset = row;
  op.pattern = pattern;
  op.oob = oob;
  op.tag = tag;
  op.done = std::move(done);
  ++stats_.appended_chunks;
  Enqueue(bd.io, device, std::move(op));

  if (bd.next_slot == bd.data_devs.size()) {
    CloseRow(b, b == kGcBuilder ? WriteTag::kGcParity : WriteTag::kParity);
  }
  return true;
}

void ZapRaid::CloseRow(int b, WriteTag parity_tag) {
  Builder& bd = builders_[b];
  if (!bd.row_open) {
    return;
  }
  const uint32_t group = bd.group;
  const uint64_t row = bd.row;
  cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / 1024));
  const uint64_t parity = XorParity(std::span<const uint64_t>(
      bd.row_patterns.data(), bd.row_patterns.size()));
  if (bd.parity_dev >= 0 && DeviceWritable(bd.parity_dev)) {
    ChunkOp op;
    op.offset = row;
    op.pattern = parity;
    // The parity chunk's stripe header is its global row id — recovery
    // cross-checks it against the chunk's geometric position — plus the
    // mask of members whose chunks the XOR covers, so recovery can tell a
    // complete row from a torn one (parity persisted, a data program lost).
    groups_[group].rows[row].parity_cover = groups_[group].rows[row].present;
    op.oob = OobRecord{kParityLbnBase + (static_cast<uint64_t>(group) *
                                         zone_cap_ + row),
                       groups_[group].rows[row].present, parity_tag};
    op.tag = parity_tag;
    ++stats_.parity_writes;
    Enqueue(bd.io, bd.parity_dev, std::move(op));
  } else {
    groups_[group].rows[row].parity_dev = -1;
  }
  bd.row_open = false;
  ++bd.row;
  if (bd.row == zone_cap_) {
    SealGroup(b);
  }
}

void ZapRaid::CloseRowEarly(int b) {
  Builder& bd = builders_[b];
  if (!bd.open || !bd.row_open) {
    return;
  }
  if (bd.next_slot == 0) {
    // Nothing appended to this row yet: simply retract it.
    groups_[bd.group].rows[bd.row].parity_dev = -1;
    bd.row_open = false;
    return;
  }
  ++stats_.rows_closed_early;
  Group& grp = groups_[bd.group];
  // Pad the unfilled data slots so every live member's zone frontier stays
  // in lockstep (per-zone offset == row invariant). Pads are instant
  // garbage: they count in data_chunks but never in valid.
  while (bd.next_slot < bd.data_devs.size()) {
    const int device = bd.data_devs[bd.next_slot];
    bd.row_patterns[bd.next_slot] = 0;
    if (DeviceWritable(device)) {
      grp.rows[bd.row].present |= Bit(device);
      ++grp.data_chunks;
      ChunkOp op;
      op.offset = bd.row;
      op.pattern = 0;
      op.oob = OobRecord{kPadLbn, 0, WriteTag::kMeta};
      op.tag = WriteTag::kMeta;
      ++stats_.pad_writes;
      Enqueue(bd.io, device, std::move(op));
    }
    ++bd.next_slot;
  }
  CloseRow(b, b == kGcBuilder ? WriteTag::kGcParity : WriteTag::kParity);
}

void ZapRaid::SealGroup(int b) {
  Builder& bd = builders_[b];
  if (!bd.open) {
    return;
  }
  CloseRowEarly(b);
  Group& grp = groups_[bd.group];
  SetGroupUse(grp, GroupUse::kSealed);
  // Trailing sentinel per member zone: FINISH the zone once its queue
  // drains, releasing the device's open-zone resources.
  for (int d : bd.members) {
    ChunkOp op;
    op.finish_sentinel = true;
    Enqueue(bd.io, d, std::move(op));
  }
  bd.open = false;
  bd.io.reset();
  CheckGroupDrained(active_io_[bd.group]);
}

void ZapRaid::Enqueue(const std::shared_ptr<GroupIo>& io, int device,
                      ChunkOp op) {
  cpu_.Charge(kCpuCosts.scheduler_op_ns);
  io->queues[static_cast<size_t>(device)].q.push_back(std::move(op));
  ++queued_ops_;
  Dispatch(io, device);
}

void ZapRaid::Dispatch(const std::shared_ptr<GroupIo>& io, int device) {
  ZoneQueue& zq = io->queues[static_cast<size_t>(device)];
  if (zq.busy) {
    return;
  }
  while (!zq.q.empty() && zq.q.front().finish_sentinel) {
    zq.q.pop_front();
    --queued_ops_;
    FinishZoneIfOpen(device, io->group);
  }
  if (zq.q.empty()) {
    CheckGroupDrained(io);
    MaybeFlushDone();
    return;
  }
  if (!DeviceWritable(device)) {
    return;  // PurgeQueue re-homes these when the death is processed
  }
  // One batch in flight per zone (the RAIZN discipline): sequential zones
  // require offset == write pointer at *arrival*, so overlapping batches
  // would race through dispatch jitter.
  std::vector<ChunkOp> ops;
  uint64_t expect = zq.q.front().offset;
  while (!zq.q.empty() && ops.size() < kDispatchBatchBlocks &&
         !zq.q.front().finish_sentinel && zq.q.front().offset == expect) {
    ops.push_back(std::move(zq.q.front()));
    zq.q.pop_front();
    --queued_ops_;
    ++expect;
  }
  zq.busy = true;
  ++inflight_;
  DeviceWriteBatch(io, device, std::move(ops));
}

void ZapRaid::FinishZoneIfOpen(int device, uint32_t zone) {
  const ZoneInfo info = devices_[static_cast<size_t>(device)]->Report(zone);
  if (info.state == ZoneState::kOpen || info.state == ZoneState::kClosed) {
    const Status st = devices_[static_cast<size_t>(device)]->FinishZone(zone);
    if (!st.ok()) {
      BIZA_LOG_WARN("zapraid: finish dev %d zone %u: %s", device, zone,
                    st.ToString().c_str());
    }
  }
}

void ZapRaid::DeviceWriteBatch(const std::shared_ptr<GroupIo>& io, int device,
                               std::vector<ChunkOp> ops) {
  const uint64_t offset = ops.front().offset;
  auto shared_ops = std::make_shared<std::vector<ChunkOp>>(std::move(ops));
  IssueWithRetry(
      sim_, &stats_.write_retries,
      [this, group = io->group, device, offset,
       shared_ops](auto on_complete) {
        std::vector<uint64_t> patterns;
        std::vector<OobRecord> oobs;
        patterns.reserve(shared_ops->size());
        oobs.reserve(shared_ops->size());
        for (const ChunkOp& op : *shared_ops) {
          patterns.push_back(op.pattern);
          oobs.push_back(op.oob);
        }
        devices_[static_cast<size_t>(device)]->SubmitWrite(
            group, offset, std::move(patterns), std::move(oobs),
            std::move(on_complete));
      },
      // Only successful writes feed the health monitor.
      [this, io, device, shared_ops, start = sim_->Now()](const Status& status) {
        ZoneQueue& zq = io->queues[static_cast<size_t>(device)];
        if (status.ok()) {
          if (health_ != nullptr) {
            health_->RecordLatency(device, DeviceHealthMonitor::Kind::kWrite,
                                   -1, sim_->Now() - start, sim_->Now());
          }
          zq.busy = false;
          --inflight_;
          for (ChunkOp& op : *shared_ops) {
            MarkDurable(io->group, device, op);
          }
          Dispatch(io, device);
          CheckGroupDrained(io);
          MaybeFlushDone();
          return;
        }
        --inflight_;
        if (status.code() == ErrorCode::kUnavailable) {
          // The member died with this batch in flight: enter degraded mode
          // and re-append the batch's chunks onto live members.
          zq.busy = false;
          OnDeviceUnavailable(device);
          for (ChunkOp& op : *shared_ops) {
            RequeueOp(TagBuilder(op.tag), std::move(op), io->group, device);
          }
        } else {
          BIZA_LOG_ERROR("zapraid: write dev %d zone %u failed: %s", device,
                         io->group, status.ToString().c_str());
          // Terminal zone failure: nothing programmed, so the zone's write
          // pointer no longer matches the queued offsets and later batches
          // could never land either. Re-home the batch and everything
          // queued behind it — the member-death discipline scoped to this
          // one zone. The repoint machinery rolls the L2P forward and the
          // host copy backs reads until the new home programs, so no ack
          // breaks and no pending_ entry leaks. `zq.busy` stays held until
          // the purge so nothing re-dispatches into the broken zone.
          for (int b = 0; b < kNumBuilders; ++b) {
            if (builders_[b].open && builders_[b].group == io->group) {
              DropBuilderMember(b, device);
            }
          }
          for (ChunkOp& op : *shared_ops) {
            RequeueOp(TagBuilder(op.tag), std::move(op), io->group, device);
          }
          zq.busy = false;
          PurgeQueue(io, device);
        }
        CheckGroupDrained(io);
        MaybeFlushDone();
      });
}

void ZapRaid::MarkDurable(uint32_t group, int device, const ChunkOp& op) {
  Group& grp = groups_[group];
  RowMeta& row = grp.rows[op.offset];
  if (op.tag == WriteTag::kParity || op.tag == WriteTag::kGcParity) {
    // A mid-flight requeue may have invalidated this row's parity (the XOR
    // no longer matches the surviving chunk set); a completion that raced
    // with the invalidation must not resurrect it.
    if (row.parity_dev == device) {
      row.parity_durable = true;
    }
  } else {
    row.durable |= Bit(device);
    if (op.tag == WriteTag::kData || op.tag == WriteTag::kGcData) {
      const PendingWrite* pw = pending_.Find(op.oob.lbn);
      if (pw != nullptr && pw->wsn == op.oob.sn) {
        pending_.Erase(op.oob.lbn);
      }
    }
  }
  if (op.done) {
    op.done(OkStatus());
  }
}

void ZapRaid::PurgeQueue(const std::shared_ptr<GroupIo>& io, int device) {
  ZoneQueue& zq = io->queues[static_cast<size_t>(device)];
  std::deque<ChunkOp> drained;
  drained.swap(zq.q);
  queued_ops_ -= drained.size();
  for (ChunkOp& op : drained) {
    if (op.finish_sentinel) {
      // A dead member's zones are beyond help, but a live member whose
      // zone was abandoned mid-group (terminal write failure) still holds
      // open-zone resources worth releasing.
      if (DeviceWritable(device)) {
        FinishZoneIfOpen(device, io->group);
      }
      continue;
    }
    RequeueOp(TagBuilder(op.tag), std::move(op), io->group, device);
  }
  CheckGroupDrained(io);
  MaybeFlushDone();
}

void ZapRaid::CheckGroupDrained(const std::shared_ptr<GroupIo>& io) {
  for (int b = 0; b < kNumBuilders; ++b) {
    if (builders_[b].open && builders_[b].group == io->group) {
      return;
    }
  }
  for (const ZoneQueue& zq : io->queues) {
    if (zq.busy || !zq.q.empty()) {
      return;
    }
  }
  active_io_.erase(io->group);
}

void ZapRaid::RequeueOp(int builder, ChunkOp op, uint32_t from_group,
                        int from_dev) {
  Group& grp = groups_[from_group];
  RowMeta& row = grp.rows[op.offset];
  if (op.tag == WriteTag::kParity || op.tag == WriteTag::kGcParity) {
    // Parity lost with the member: the row stays unprotected until GC
    // rewrites it (open-stripe window).
    row.parity_dev = -1;
    row.parity_durable = false;
    return;
  }
  row.present &= static_cast<uint16_t>(~Bit(from_dev));
  if (grp.data_chunks > 0) {
    --grp.data_chunks;
  }
  if (op.tag == WriteTag::kMeta) {
    return;  // pads are not re-homed (all-zero: a XOR no-op in the parity)
  }
  // The row's parity — durable or still queued — XORs in this chunk's
  // pattern. With the chunk re-homed, that XOR no longer matches the
  // surviving chunk set, so reconstructing a sibling through it would
  // silently fabricate data. Drop the row to open-stripe (unprotected);
  // the rebuild sweep re-homes its survivors into protected stripes.
  row.parity_dev = -1;
  row.parity_durable = false;
  ++stats_.requeued_chunks;
  const uint64_t from_pa = MakePa(from_dev, from_group, op.offset);
  auto retry = std::make_shared<std::function<void()>>();
  auto op_holder = std::make_shared<ChunkOp>(std::move(op));
  *retry = [this, builder, op_holder, from_pa,
            weak = std::weak_ptr<std::function<void()>>(retry)] {
    if (!AppendChunk(builder, op_holder->pattern, op_holder->oob,
                     op_holder->tag, op_holder->done, from_pa)) {
      ++stats_.write_stalls;
      stalled_writes_.push_back([self = weak.lock()] { (*self)(); });
    }
  };
  (*retry)();
}

void ZapRaid::InvalidatePa(uint64_t pa) {
  if (pa == kInvalidPa) {
    return;
  }
  Group& grp = groups_[PaGroup(pa)];
  const uint64_t row = PaRow(pa);
  const uint16_t bit = Bit(PaDevice(pa));
  assert(row < grp.live.size() && (grp.live[row] & bit) != 0 &&
         "unmapping a chunk that is not live");
  grp.live[row] &= static_cast<uint16_t>(~bit);
  --grp.valid;
}

void ZapRaid::RetryStalled() {
  if (stalled_writes_.empty()) {
    return;
  }
  std::vector<std::function<void()>> runnable;
  runnable.swap(stalled_writes_);
  for (auto& fn : runnable) {
    fn();
  }
}

void ZapRaid::MaybeFlushDone() {
  if (flush_waiters_.empty() || !AllIdle()) {
    return;
  }
  std::vector<std::function<void()>> waiters;
  waiters.swap(flush_waiters_);
  for (auto& fn : waiters) {
    fn();
  }
}

void ZapRaid::SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                          WriteCallback cb, WriteTag tag) {
  if (!front_.AdmitWrite(lbn, patterns.size(), tag, cb)) {
    return;
  }
  cpu_.Charge(kCpuCosts.request_overhead_ns);

  // Acked once every chunk of the request is durable.
  auto join = MakeJoin(std::move(cb));

  auto pats = std::make_shared<std::vector<uint64_t>>(std::move(patterns));
  auto submit_from = std::make_shared<std::function<void(size_t)>>();
  // Captured weakly: a self-owning closure would never be freed. Whoever
  // runs it (this frame, or stalled_writes_) holds the strong reference.
  // Each run holds one count on the join, the dispatch guard or a parked
  // remainder's leg, and releases it when it stops.
  *submit_from = [this, join, lbn, pats, tag,
                  weak = std::weak_ptr<std::function<void(size_t)>>(
                      submit_from)](size_t i) {
    for (; i < pats->size(); ++i) {
      OobRecord oob{lbn + i, 0, tag};
      join->Add();
      if (!AppendChunk(TagBuilder(tag), (*pats)[i], oob, tag, Leg(join))) {
        // No free group: park the rest of the request until GC frees one.
        // The count just taken is the parked remainder's leg, so the ack
        // waits for the tail.
        ++stats_.write_stalls;
        stalled_writes_.push_back([self = weak.lock(), i] { (*self)(i); });
        MaybeStartGc();
        break;
      }
    }
    join->Done();
  };
  (*submit_from)(0);
  MaybeStartGc();
}

void ZapRaid::FlushBuffers(std::function<void()> done) {
  CloseRowEarly(kUserBuilder);
  CloseRowEarly(kGcBuilder);
  if (AllIdle()) {
    done();
    return;
  }
  flush_waiters_.push_back(std::move(done));
}

// --------------------------------------------------------------------------
// Read path.
// --------------------------------------------------------------------------

void ZapRaid::DeviceRead(
    int device, uint32_t zone, uint64_t offset, uint64_t nblocks,
    std::function<void(const Status&, std::vector<uint64_t>)> cb) {
  IssueWithRetry(
      sim_, &stats_.read_retries,
      [this, device, zone, offset, nblocks](auto on_complete) {
        devices_[static_cast<size_t>(device)]->SubmitRead(
            zone, offset, nblocks, std::move(on_complete));
      },
      // Only successful reads feed the health monitor.
      [this, device, start = sim_->Now(), cb = std::move(cb)](
          const Status& status, std::vector<uint64_t> patterns) {
        if (status.ok() && health_ != nullptr) {
          health_->RecordLatency(device, DeviceHealthMonitor::Kind::kRead, -1,
                                 sim_->Now() - start, sim_->Now());
        }
        cb(status, std::move(patterns));
      });
}

bool ZapRaid::CanReconstructRow(const Group& grp, const RowMeta& meta,
                                int target) const {
  if (grp.use == GroupUse::kFree || grp.rows.empty()) {
    return false;
  }
  if ((meta.present & Bit(target)) == 0) {
    return false;
  }
  if (meta.parity_dev < 0 || !meta.parity_durable) {
    return false;  // open-stripe window: the row never got its parity
  }
  if ((meta.durable & meta.present) != meta.present) {
    return false;  // a sibling chunk is still in flight
  }
  if (device_failed_[static_cast<size_t>(meta.parity_dev)] &&
      meta.parity_dev != target) {
    return false;
  }
  for (int d = 0; d < n_; ++d) {
    if (d == target || (meta.present & Bit(d)) == 0) {
      continue;
    }
    if (device_failed_[static_cast<size_t>(d)]) {
      return false;  // double fault on this row
    }
  }
  return true;
}

void ZapRaid::ReconstructChunk(
    uint64_t pa, std::function<void(const Status&, uint64_t)> cb) {
  const int target = PaDevice(pa);
  const uint32_t group = PaGroup(pa);
  const uint64_t row = PaRow(pa);
  const Group& grp = groups_[group];
  const RowMeta meta =
      grp.rows.size() > row ? grp.rows[row] : RowMeta{};
  if (!CanReconstructRow(grp, meta, target)) {
    cb(FailedPreconditionError("zapraid: row not reconstructable"), 0);
    return;
  }
  std::vector<int> sources;
  for (int d = 0; d < n_; ++d) {
    if (d != target && (meta.present & Bit(d)) != 0) {
      sources.push_back(d);
    }
  }
  if (meta.parity_dev != target) {
    sources.push_back(meta.parity_dev);
  }
  cpu_.Charge(kCpuCosts.parity_xor_ns_per_kib * (kBlockSize / 1024));

  auto recon = MakeJoin(uint64_t{0}, [this, group, epoch = grp.epoch,
                                      cb = std::move(cb)](const Status& status,
                                                          uint64_t acc) {
    // A GC reset recycled the group mid-reconstruction: the XOR mixes two
    // generations. Fail; callers fall back.
    if (groups_[group].epoch != epoch) {
      cb(FailedPreconditionError("zapraid: group recycled during recon"), 0);
      return;
    }
    cb(status, acc);
  });
  for (int src : sources) {
    recon->Add();
    DeviceRead(src, group, row, 1,
               [recon](const Status& status, std::vector<uint64_t> patterns) {
                 if (status.ok()) {
                   recon->data ^= patterns[0];
                 }
                 recon->Done(status);
               });
  }
  recon->Done();  // the dispatch guard
}

void ZapRaid::SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  if (!front_.AdmitRead(lbn, nblocks, cb)) {
    return;
  }
  cpu_.Charge(kCpuCosts.request_overhead_ns);

  // Blocks land independently (some from the pending map, some direct, some
  // reconstructed); the callback fires when the last one resolves.
  auto join = MakeReadJoin(nblocks, std::move(cb));

  for (uint64_t i = 0; i < nblocks; ++i) {
    cpu_.Charge(kCpuCosts.map_lookup_ns);
    const uint64_t cur = lbn + i;
    if (const PendingWrite* pw = pending_.Find(cur)) {
      join->data[i] = pw->pattern;
      continue;
    }
    const L2pEntry entry = l2p_.Get(cur);
    if (entry.pa == kInvalidPa) {
      continue;  // never written: reads as zero
    }
    join->Add();
    ReadBlock(cur, entry, BlockLeg(join, i));
  }
  join->Done();  // the dispatch guard
}

void ZapRaid::RedriveRead(uint64_t lbn, ReadLegs::Done land) {
  // Re-drive one block after its home member died mid-read. The requeue
  // machinery may already have re-pointed the L2P at a new, not-yet-
  // programmed home, so the host copy in pending_ must be consulted first
  // (exactly as SubmitRead does) before chasing the fresh mapping.
  if (const PendingWrite* pw = pending_.Find(lbn)) {
    land(OkStatus(), pw->pattern);
    return;
  }
  const L2pEntry now = l2p_.Get(lbn);
  if (now.pa == kInvalidPa) {
    land(OkStatus(), 0);
    return;
  }
  ReadBlock(lbn, now, std::move(land));
}

void ZapRaid::ReadBlock(uint64_t lbn, L2pEntry entry, ReadLegs::Done land) {
  const int device = PaDevice(entry.pa);
  const uint32_t group = PaGroup(entry.pa);
  const uint64_t row = PaRow(entry.pa);

  const bool on_replacement =
      rebuild_.Rebuilding(device) && entry.wsn >= rebuild_start_wsn_;
  if (device_failed_[static_cast<size_t>(device)] && !on_replacement) {
    // Degraded read: the chunk's home member is dead (or the chunk predates
    // the replacement swap and still lives only in parity space).
    ++stats_.degraded_reads;
    ReconstructChunk(entry.pa, std::move(land));
    return;
  }

  // Gray-failure mitigation (DESIGN.md §6): a suspect or gray member's
  // chunk is raced against, or rebuilt from, its row's siblings.
  if (MitigateRead(sim_, health_, device, &stats_.mitigation, [&] {
        auto direct = [this, device, group, row](ReadLegs::Done done) {
          DeviceRead(device, group, row, 1,
                     [done = std::move(done)](const Status& status,
                                              std::vector<uint64_t> patterns) {
                       done(status, status.ok() ? patterns[0] : 0);
                     });
        };
        return ReadLegs{
            .can_reconstruct =
                [this, device, group, row] {
                  const Group& grp = groups_[group];
                  const RowMeta meta =
                      grp.rows.size() > row ? grp.rows[row] : RowMeta{};
                  return CanReconstructRow(grp, meta, device);
                },
            .direct = direct,
            .reconstruct =
                [this, pa = entry.pa](ReadLegs::Done done) {
                  ReconstructChunk(pa, std::move(done));
                },
            .deliver = land,
            .fallback = [direct, land] { direct(land); },
            .redrive =
                [this, device, lbn, land] {
                  OnDeviceUnavailable(device);
                  RedriveRead(lbn, land);
                },
        };
      })) {
    return;
  }

  DeviceRead(device, group, row, 1,
             [this, lbn, device, land = std::move(land)](
                 const Status& status, std::vector<uint64_t> patterns) {
               if (status.code() == ErrorCode::kUnavailable) {
                 // Death detected on the read path: degrade and re-drive
                 // this block through the host copy or a fresh lookup (its
                 // home may have moved under the requeue machinery).
                 OnDeviceUnavailable(device);
                 RedriveRead(lbn, land);
                 return;
               }
               land(status, status.ok() ? patterns[0] : 0);
             });
}

void ZapRaid::DropBuilderMember(int b, int device) {
  // Removes `device` from builder `b`'s open group: closes the in-progress
  // row (pads out, parity out) so the surviving zones stay row-aligned,
  // then shrinks the builder's member list; too few members to form
  // stripes seals the group. The group's `members` mask keeps the device:
  // its zone still holds the rows written before the drop, so GC must not
  // treat the group as collectable while the device is dead. No-op when
  // the builder is closed or the device not a member.
  Builder& bd = builders_[b];
  if (!bd.open) {
    return;
  }
  if (std::find(bd.members.begin(), bd.members.end(), device) ==
      bd.members.end()) {
    return;
  }
  CloseRowEarly(b);
  bd.members.erase(std::find(bd.members.begin(), bd.members.end(), device));
  if (bd.members.size() < 2) {
    SealGroup(b);
  }
}

void ZapRaid::OnDeviceUnavailable(int device) {
  // A replacement that dies mid-rebuild ends its sweep, whose end (RebuildEnd)
  // degrades the member.
  if (device >= 0 && device < n_ && rebuild_.MemberLost(device)) {
    DegradeMember(device);
  }
}

void ZapRaid::DegradeMember(int device) {
  for (int b = 0; b < kNumBuilders; ++b) {
    DropBuilderMember(b, device);
  }
  // RequeueOp may open fresh groups (mutating active_io_), so purge from a
  // snapshot.
  std::vector<std::shared_ptr<GroupIo>> ios;
  ios.reserve(active_io_.size());
  for (auto& [g, io] : active_io_) {
    ios.push_back(io);
  }
  for (auto& io : ios) {
    PurgeQueue(io, device);
  }
}

void ZapRaid::SetDeviceFailed(int device, bool failed) {
  if (failed) {
    OnDeviceUnavailable(device);
  } else {
    device_failed_[static_cast<size_t>(device)] = false;
  }
}

// --------------------------------------------------------------------------
// Group-granular GC.
// --------------------------------------------------------------------------

void ZapRaid::MaybeStartGc() {
  if (gc_active_) {
    return;
  }
  const double free_ratio =
      static_cast<double>(free_groups_) / static_cast<double>(num_zones_);
  if (free_ratio >= kGcTriggerFreeRatio && stalled_writes_.empty()) {
    return;
  }
  int victim = PickGcVictim();
  if (victim < 0 && !stalled_writes_.empty() &&
      builders_[kUserBuilder].open) {
    // Writes are parked and no sealed group has garbage: force-seal the
    // user frontier so its garbage becomes collectable.
    SealGroup(kUserBuilder);
    if (gc_active_) {
      return;  // the seal's drain already kicked a GC cycle off
    }
    victim = PickGcVictim();
  }
  if (victim < 0) {
    return;
  }
  gc_active_ = true;
  gc_victim_ = static_cast<uint32_t>(victim);
  gc_row_ = 0;
  gc_passes_ = 0;
  gc_pass_valid_ = ~0ULL;
  gc_victim_pending_ = 0;
  gc_scan_done_ = false;
  sim_->Schedule(0, [this] { GcStep(); });
}

int ZapRaid::PickGcVictim() const {
  int best = -1;
  bool best_garbage = false;
  uint64_t best_valid = 0;
  for (uint32_t g = 0; g < num_zones_; ++g) {
    const Group& grp = groups_[g];
    if (grp.use != GroupUse::kSealed) {
      continue;
    }
    if (active_io_.count(g) != 0) {
      continue;  // still draining its zone queues
    }
    // GcStep cannot read a dead member's chunks, so a group one of whose
    // chunk holders is down could never be emptied.
    bool member_failed = false;
    for (int d = 0; d < n_; ++d) {
      if ((grp.members & Bit(d)) != 0 &&
          device_failed_[static_cast<size_t>(d)]) {
        member_failed = true;
      }
    }
    if (member_failed) {
      continue;
    }
    const int members = std::popcount(static_cast<unsigned>(grp.members));
    const uint64_t data_cap =
        zone_cap_ * static_cast<uint64_t>(members > 1 ? members - 1 : 0);
    const bool garbage = grp.data_chunks > grp.valid;
    // Garbage-bearing groups beat pure space-compaction candidates
    // (part-written groups recovered after a crash); min valid wins ties.
    if (!garbage && grp.valid >= data_cap) {
      continue;
    }
    if (best < 0 || (garbage && !best_garbage) ||
        (garbage == best_garbage && grp.valid < best_valid)) {
      best = static_cast<int>(g);
      best_garbage = garbage;
      best_valid = grp.valid;
    }
  }
  return best;
}

void ZapRaid::GcStep() {
  if (!gc_active_) {
    return;
  }
  const SimTime step_start = sim_->Now();
  const uint32_t victim = gc_victim_;
  Group& grp = groups_[victim];
  struct Cand {
    int dev;
    uint64_t row;
    uint64_t lbn;
    uint32_t wsn;
  };
  unsigned readable = 0;
  for (int d = 0; d < n_; ++d) {
    if (!device_failed_[static_cast<size_t>(d)]) {
      readable |= Bit(d);
    }
  }
  std::vector<Cand> cands;
  uint64_t row = gc_row_;
  for (; row < zone_cap_ && cands.size() < kGcBatchChunks; ++row) {
    if (grp.rows.empty() || grp.rows[row].present == 0) {
      row = zone_cap_;  // rows fill in order: first empty row == frontier
      break;
    }
    // Only a chunk that is some LBN's L2P home can be a candidate, so the
    // live mask skips garbage, pads and parity without reading their OOB.
    // Live chunks still pass the OOB/L2P test, which keeps the candidates
    // and their order exactly those of a scan over every present chunk.
    const unsigned scan = grp.rows[row].present & readable;
    assert(LiveMaskCovers(victim, row, scan) && "live mask missed a chunk");
    for (unsigned m = scan & grp.live[row]; m != 0; m &= m - 1) {
      const int d = std::countr_zero(m);
      const std::optional<OobRecord> oob = LiveChunkHeader(d, victim, row);
      if (oob) {
        cands.push_back(Cand{d, row, oob->lbn, oob->sn});
      }
    }
  }
  gc_row_ = row;
  if (row >= zone_cap_) {
    gc_scan_done_ = true;
  }
  if (obs_ != nullptr && obs_->tracer.Armed(step_start)) {
    obs_->tracer.Record(Tracer::kLaneEngine, span_gc_step_, step_start,
                        sim_->Now(), key_group_, victim, key_blocks_,
                        static_cast<int64_t>(cands.size()));
  }
  if (cands.empty()) {
    if (!gc_scan_done_) {
      sim_->Schedule(0, [this] { GcStep(); });
    } else if (gc_victim_pending_ == 0) {
      FinishGcVictim();
    }
    // else: the last migration's durability callback finishes the victim
    return;
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    return a.dev != b.dev ? a.dev < b.dev : a.row < b.row;
  });
  // Shared batch token: when the last victim read lands, either the scan
  // continues or the victim finishes (migration callbacks handle the rest).
  const uint64_t epoch = grp.epoch;
  auto batch = std::shared_ptr<void>(nullptr, [this](void*) {
    if (!gc_active_) {
      return;
    }
    if (!gc_scan_done_) {
      sim_->Schedule(0, [this] { GcStep(); });
    } else if (gc_victim_pending_ == 0) {
      FinishGcVictim();
    }
  });
  size_t i = 0;
  while (i < cands.size()) {
    size_t j = i + 1;
    while (j < cands.size() && cands[j].dev == cands[i].dev &&
           cands[j].row == cands[j - 1].row + 1) {
      ++j;
    }
    const int dev = cands[i].dev;
    const uint64_t start_row = cands[i].row;
    std::vector<Cand> run(cands.begin() + static_cast<long>(i),
                          cands.begin() + static_cast<long>(j));
    i = j;
    // `run.size()` must be read before the capture below moves `run` out
    // (argument evaluation order is unspecified).
    const uint64_t run_blocks = run.size();
    DeviceRead(
        dev, victim, start_row, run_blocks,
        [this, dev, victim, epoch, run = std::move(run), batch](
            const Status& status, std::vector<uint64_t> patterns) {
          if (!status.ok() || groups_[victim].epoch != epoch) {
            return;  // re-found by the next scan pass if still valid
          }
          for (size_t x = 0; x < run.size(); ++x) {
            const Cand& c = run[x];
            const uint64_t pa = MakePa(dev, victim, c.row);
            const L2pEntry e = l2p_.Get(c.lbn);
            if (e.pa != pa || e.wsn != c.wsn) {
              continue;  // overwritten while the read was in flight
            }
            ++gc_victim_pending_;
            // The original wsn keeps the recovery total order intact: the
            // migrated copy is the *same* version, not a newer one.
            Relocate(c.lbn, c.wsn, patterns[x], pa, [this](const Status&) {
              --gc_victim_pending_;
              ++stats_.gc_migrated_data;
              if (gc_active_ && gc_scan_done_ && gc_victim_pending_ == 0) {
                FinishGcVictim();
              }
            });
          }
        });
  }
}

std::optional<OobRecord> ZapRaid::LiveChunkHeader(int device, uint32_t group,
                                                  uint64_t row) const {
  const auto oob =
      devices_[static_cast<size_t>(device)]->ReadOobSync(group, row);
  if (!oob.ok() || !oob->set() || oob->lbn == kPadLbn ||
      IsParityOobLbn(oob->lbn)) {
    return std::nullopt;
  }
  const L2pEntry e = l2p_.Get(oob->lbn);
  if (e.pa != MakePa(device, group, row) || e.wsn != oob->sn) {
    return std::nullopt;  // superseded: garbage, reclaimed with the reset
  }
  return *oob;
}

bool ZapRaid::LiveMaskCovers(uint32_t group, uint64_t row,
                             unsigned devs) const {
  for (unsigned m = devs & ~groups_[group].live[row]; m != 0; m &= m - 1) {
    if (LiveChunkHeader(std::countr_zero(m), group, row)) {
      return false;
    }
  }
  return true;
}

void ZapRaid::Relocate(uint64_t lbn, uint32_t wsn, uint64_t pattern,
                       uint64_t from_pa,
                       std::function<void(const Status&)> done) {
  auto retry = std::make_shared<std::function<void()>>();
  *retry = [this, lbn, wsn, pattern, from_pa, done = std::move(done),
            weak = std::weak_ptr<std::function<void()>>(retry)] {
    if (!AppendChunk(kGcBuilder, pattern, OobRecord{lbn, wsn, WriteTag::kGcData},
                     WriteTag::kGcData, done, from_pa)) {
      stalled_writes_.push_back([self = weak.lock()] { (*self)(); });
    }
  };
  (*retry)();
}

void ZapRaid::FinishGcVictim() {
  if (!gc_active_ || !gc_scan_done_ || gc_victim_pending_ != 0) {
    return;
  }
  Group& grp = groups_[gc_victim_];
  if (grp.valid > 0) {
    // A rescan pass only counts against the cap when it made no progress;
    // migrations racing with overwrites can legitimately need several laps.
    if (grp.valid < gc_pass_valid_) {
      gc_passes_ = 0;
    }
    if (++gc_passes_ < 3) {
      gc_pass_valid_ = grp.valid;
      gc_row_ = 0;
      gc_scan_done_ = false;
      sim_->Schedule(0, [this] { GcStep(); });
      return;
    }
    // Three consecutive zero-progress passes: something is pinning the
    // victim's chunks. Abandon the cycle (rather than rescanning in a
    // zero-time loop) and let the next allocation re-trigger GC. That
    // trigger may pick the same victim again; the known cause, a member
    // that died holding live chunks, is kept out by PickGcVictim.
    BIZA_LOG_WARN("zapraid: gc abandoning group %u with %llu valid chunks",
                  gc_victim_, static_cast<unsigned long long>(grp.valid));
    ++stats_.gc_abandoned;
    RetryStalled();
    gc_active_ = false;
    return;
  }
  {
    for (int d = 0; d < n_; ++d) {
      if ((grp.members & Bit(d)) == 0 ||
          device_failed_[static_cast<size_t>(d)]) {
        continue;
      }
      const Status st = devices_[static_cast<size_t>(d)]->ResetZone(gc_victim_);
      if (st.ok()) {
        ++stats_.gc_zone_resets;
      }
    }
    SetGroupUse(grp, GroupUse::kFree);
    grp.valid = 0;
    grp.data_chunks = 0;
    grp.members = 0;
    grp.rows.clear();
    grp.rows.shrink_to_fit();
    grp.live.clear();
    grp.live.shrink_to_fit();
    ++grp.epoch;
    ++stats_.gc_runs;
  }
  RetryStalled();
  const double free_ratio =
      static_cast<double>(free_groups_) / static_cast<double>(num_zones_);
  if (free_ratio < kGcStopFreeRatio) {
    const int victim = PickGcVictim();
    if (victim >= 0) {
      gc_victim_ = static_cast<uint32_t>(victim);
      gc_row_ = 0;
      gc_passes_ = 0;
      gc_pass_valid_ = ~0ULL;
      gc_victim_pending_ = 0;
      gc_scan_done_ = false;
      sim_->Schedule(0, [this] { GcStep(); });
      return;
    }
  }
  gc_active_ = false;
}

// --------------------------------------------------------------------------
// Online rebuild.
// --------------------------------------------------------------------------

Status ZapRaid::ReplaceDevice(int device, ZnsDevice* replacement) {
  if (Status status = rebuild_.CanStart(device); !status.ok()) {
    return status;
  }
  if (replacement->config().zone_capacity_blocks != zone_cap_ ||
      replacement->config().num_zones != num_zones_) {
    return InvalidArgumentError("zapraid: replacement geometry mismatch");
  }
  devices_[static_cast<size_t>(device)] = replacement;
  // Everything appended from here on lands on groups whose rows are fully
  // populated across live members and needs no re-homing; the sweep targets
  // strictly older chunks.
  rebuild_start_wsn_ = next_wsn_;
  rebuild_.Start(device, health_);
  return OkStatus();
}

bool ZapRaid::RebuildCovers(const L2pEntry& e) const {
  if (e.pa == kInvalidPa || e.wsn >= rebuild_start_wsn_) {
    return false;
  }
  // Row-granular test: the dead member took either a chunk (data, garbage
  // or pad — all of them feed reconstruction XOR) or this row's parity with
  // it. A group-level members test would be wrong both ways: a death
  // mid-open-group removes the member from the mask while earlier rows
  // still span it, and rows written degraded afterwards never touched it.
  const Group& grp = groups_[PaGroup(e.pa)];
  const uint64_t row = PaRow(e.pa);
  if (grp.use == GroupUse::kFree || grp.rows.size() <= row) {
    return false;
  }
  const RowMeta& meta = grp.rows[row];
  const int device = rebuild_.stats().device;
  if ((meta.present & Bit(device)) != 0 || meta.parity_dev == device) {
    return true;
  }
  // Also sweep unprotected rows — parity invalidated when a chunk was
  // re-homed off the dead member, or never written (open-stripe window).
  // Their requeue left no trace of the dead member in the row metadata,
  // yet re-homing their survivors into fresh, fully protected stripes is
  // exactly what restores array-wide redundancy.
  return meta.parity_dev < 0 || !meta.parity_durable;
}

// Evacuate every valid chunk out of every row the dead member contributed
// to, not just its own chunks: those rows would otherwise stay one sibling
// (or their parity) short, and a second member failure would lose them.
// Later passes pick up stragglers (failed migration reads, chunks GC moved
// into another affected group); rows that never got parity keep the sweep
// rescanning until it gives up with the member still failed.
void ZapRaid::RebuildRescan(std::function<void(RebuildSweep::Keys)> next) {
  std::vector<uint64_t> lbns;
  l2p_.ForEach([&](uint64_t lbn, const L2pEntry& e) {
    if (RebuildCovers(e)) {
      lbns.push_back(lbn);
    }
  });
  std::sort(lbns.begin(), lbns.end());
  next(std::move(lbns));
}

bool ZapRaid::RebuildTake(uint64_t lbn) {
  // Overwritten or already re-homed chunks need no more work.
  return RebuildCovers(l2p_.Get(lbn));
}

void ZapRaid::RebuildEnd(bool restored) {
  if (restored) {
    RetryStalled();
  } else {
    DegradeMember(rebuild_.stats().device);
  }
}

void ZapRaid::RebuildMigrate(RebuildSweep::Keys lbns,
                             const RebuildSweep::Token& token) {
  const int replaced = rebuild_.stats().device;
  for (uint64_t lbn : lbns) {
    const L2pEntry e = l2p_.Get(lbn);
    // Migration completion: re-append at the GC frontier with a fresh wsn
    // so reads treat the copy as post-replacement data and the straggler
    // rescan never re-picks it. AppendChunk's repoint guard discards the
    // copy if a foreground overwrite won the race meanwhile.
    auto migrate = [this, lbn, e, token](const Status& status,
                                         uint64_t pattern) {
      if (!status.ok()) {
        return;  // straggler pass retries
      }
      const L2pEntry now = l2p_.Get(lbn);
      if (now.pa != e.pa || now.wsn != e.wsn) {
        return;  // foreground overwrite re-homed it for us
      }
      rebuild_.CountMigrated(1);
      Relocate(lbn, /*wsn=*/0, pattern, e.pa, nullptr);
    };
    if (PaDevice(e.pa) == replaced) {
      // Chunk died with the member: XOR it back from the row's siblings.
      ReconstructChunk(e.pa, migrate);
    } else {
      // Live-sibling chunk in an affected group: copy it off directly.
      DeviceRead(PaDevice(e.pa), PaGroup(e.pa), PaRow(e.pa), 1,
                 [migrate](const Status& status, std::vector<uint64_t> data) {
                   migrate(status, status.ok() ? data[0] : 0);
                 });
    }
  }
}

// --------------------------------------------------------------------------
// Crash recovery.
// --------------------------------------------------------------------------

Status ZapRaid::Recover() {
  if (inflight_ != 0 || queued_ops_ != 0 || builders_[kUserBuilder].open ||
      builders_[kGcBuilder].open || gc_active_ || rebuild_.stats().active) {
    return FailedPreconditionError("zapraid: recover on an active array");
  }
  l2p_.Clear();
  pending_.Clear();
  active_io_.clear();
  for (Group& g : groups_) {
    SetGroupUse(g, GroupUse::kFree);
    g = Group{};
  }
  // Quiesce zone state: crash-interrupted zones are finished so their
  // frontier is stable; empty open zones (opened but never written) are
  // reset instead — finishing them would leave useless FULL-empty zones.
  for (int d = 0; d < n_; ++d) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;
    }
    ZnsDevice* dev = devices_[static_cast<size_t>(d)];
    for (uint32_t z = 0; z < num_zones_; ++z) {
      const ZoneInfo info = dev->Report(z);
      if (info.state == ZoneState::kOpen || info.state == ZoneState::kClosed) {
        if (info.high_water == 0) {
          (void)dev->ResetZone(z);
        } else {
          BIZA_RETURN_IF_ERROR(dev->FinishZone(z));
        }
      }
    }
  }
  // Pass 1: the OOB stripe headers ARE the journal. Highest wsn wins —
  // the per-block sequence numbers give a total order over every data
  // chunk ever written, so concurrent user/GC frontiers at crash time
  // cannot resurrect stale copies.
  uint32_t max_wsn = 0;
  for (int d = 0; d < n_; ++d) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;
    }
    ZnsDevice* dev = devices_[static_cast<size_t>(d)];
    for (uint32_t z = 0; z < num_zones_; ++z) {
      uint64_t off = dev->NextWrittenCandidate(z, 0);
      while (off < zone_cap_) {
        const auto oob = dev->ReadOobSync(z, off);
        if (!oob.ok() || !oob->set()) {
          off = dev->NextWrittenCandidate(z, off + 1);
          continue;
        }
        Group& grp = groups_[z];
        if (grp.rows.empty()) {
          grp.rows.assign(zone_cap_, RowMeta{});
          grp.live.assign(zone_cap_, 0);
        }
        SetGroupUse(grp, GroupUse::kSealed);
        grp.members |= Bit(d);
        RowMeta& row = grp.rows[off];
        if (oob->lbn == kPadLbn) {
          row.present |= Bit(d);
          row.durable |= Bit(d);
          ++grp.data_chunks;
        } else if (IsParityOobLbn(oob->lbn)) {
          const uint64_t sid = oob->lbn - kParityLbnBase;
          if (sid == static_cast<uint64_t>(z) * zone_cap_ + off) {
            row.parity_dev = static_cast<int8_t>(d);
            row.parity_cover = static_cast<uint16_t>(oob->sn);
            row.parity_durable = true;  // provisional: validated post-scan
          } else {
            BIZA_LOG_WARN(
                "zapraid: parity header mismatch dev %d zone %u off %llu", d,
                z, static_cast<unsigned long long>(off));
          }
        } else {
          row.present |= Bit(d);
          row.durable |= Bit(d);
          ++grp.data_chunks;
          max_wsn = std::max(max_wsn, oob->sn);
          L2pEntry& cur = l2p_.Mut(oob->lbn);
          if (cur.pa == kInvalidPa || oob->sn > cur.wsn) {
            cur = L2pEntry{MakePa(d, z, off), oob->sn};
          }
        }
        off = dev->NextWrittenCandidate(z, off + 1);
      }
    }
  }
  next_wsn_ = max_wsn + 1;
  // A persisted parity chunk only protects its row if every data chunk its
  // XOR covers also persisted: a crash can tear a row — parity programmed,
  // one member's program lost — and reconstructing through such parity
  // would fabricate data. The cover mask stamped into the parity header at
  // row close must match the recovered present set exactly; otherwise the
  // row is demoted to open-stripe (readable, unprotected until rewritten).
  for (Group& grp : groups_) {
    for (RowMeta& row : grp.rows) {
      if (row.parity_durable && row.present != row.parity_cover) {
        row.parity_dev = -1;
        row.parity_durable = false;
      }
    }
  }
  // Pass 2: per-group valid counts and live masks from the final L2P.
  uint64_t mapped = 0;
  l2p_.ForEach([&](uint64_t, const L2pEntry& e) {
    Group& grp = groups_[PaGroup(e.pa)];
    ++grp.valid;
    grp.live[PaRow(e.pa)] |= Bit(PaDevice(e.pa));
    ++mapped;
  });
  config_.recover_mode = false;
  BIZA_LOG_INFO("zapraid: recovered %llu mapped blocks, next wsn %u",
                static_cast<unsigned long long>(mapped), next_wsn_);
  return OkStatus();
}

// --------------------------------------------------------------------------
// Observability and accessors.
// --------------------------------------------------------------------------

void ZapRaid::AttachObservability(Observability* obs) {
  obs_ = obs;
  rebuild_.AttachObservability(obs_);
  front_.AttachObservability(obs_);
  if (obs_ == nullptr) {
    return;
  }
  StatRegistry& reg = obs_->registry;
  reg.RegisterCounter("zapraid.appended_chunks",
                      [this] { return stats_.appended_chunks; });
  reg.RegisterCounter("zapraid.parity_writes",
                      [this] { return stats_.parity_writes; });
  reg.RegisterCounter("zapraid.pad_writes",
                      [this] { return stats_.pad_writes; });
  reg.RegisterCounter("zapraid.rows_closed_early",
                      [this] { return stats_.rows_closed_early; });
  reg.RegisterCounter("zapraid.requeued_chunks",
                      [this] { return stats_.requeued_chunks; });
  reg.RegisterCounter("zapraid.gc_runs", [this] { return stats_.gc_runs; });
  reg.RegisterCounter("zapraid.gc_abandoned",
                      [this] { return stats_.gc_abandoned; });
  reg.RegisterCounter("zapraid.gc_migrated_data",
                      [this] { return stats_.gc_migrated_data; });
  reg.RegisterCounter("zapraid.gc_zone_resets",
                      [this] { return stats_.gc_zone_resets; });
  reg.RegisterCounter("zapraid.degraded_reads",
                      [this] { return stats_.degraded_reads; });
  reg.RegisterCounter("zapraid.write_retries",
                      [this] { return stats_.write_retries; });
  reg.RegisterCounter("zapraid.read_retries",
                      [this] { return stats_.read_retries; });
  reg.RegisterCounter("zapraid.write_stalls",
                      [this] { return stats_.write_stalls; });
  stats_.mitigation.Register(reg, "zapraid");
  reg.RegisterCounter("zapraid.health.steered_parity_rows",
                      [this] { return stats_.steered_parity_rows; });
  reg.RegisterGauge("zapraid.gc_active", [this] { return gc_active_ ? 1 : 0; });
  reg.RegisterGauge("zapraid.free_groups",
                    [this] { return static_cast<int64_t>(free_groups_); });
  span_gc_step_ = obs_->tracer.Intern("zapraid.gc_step");
  key_blocks_ = obs_->tracer.Intern("blocks");
  key_device_ = obs_->tracer.Intern("device");
  key_group_ = obs_->tracer.Intern("group");
}

uint64_t ZapRaid::ResidentStateBytes() const {
  uint64_t bytes = l2p_.allocated_bytes() + pending_.allocated_bytes();
  for (const Group& g : groups_) {
    bytes += g.rows.capacity() * sizeof(RowMeta) +
             g.live.capacity() * sizeof(uint16_t);
  }
  return bytes;
}

Status ZapRaid::CheckInvariants() const {
  // The live masks the L2P implies, rebuilt from scratch.
  std::vector<std::vector<uint16_t>> homes(groups_.size());
  uint64_t shared_pa = kInvalidPa;
  l2p_.ForEach([&](uint64_t, const L2pEntry& e) {
    std::vector<uint16_t>& rows = homes[PaGroup(e.pa)];
    rows.resize(zone_cap_, 0);
    uint16_t& mask = rows[PaRow(e.pa)];
    if ((mask & Bit(PaDevice(e.pa))) != 0) {
      shared_pa = e.pa;
    }
    mask |= Bit(PaDevice(e.pa));
  });
  if (shared_pa != kInvalidPa) {
    return InternalError("zapraid: two LBNs homed at pa " +
                         std::to_string(shared_pa));
  }
  uint64_t free_groups = 0;
  for (uint32_t g = 0; g < num_zones_; ++g) {
    const Group& grp = groups_[g];
    const auto fail = [g](const std::string& what) {
      return InternalError("zapraid: group " + std::to_string(g) + ": " +
                           what);
    };
    free_groups += grp.use == GroupUse::kFree ? 1 : 0;
    if (grp.live.size() != grp.rows.size() ||
        (!homes[g].empty() && grp.live.empty())) {
      return fail("live masks not sized with rows");
    }
    uint64_t live_bits = 0;
    for (uint64_t row = 0; row < grp.live.size(); ++row) {
      const uint16_t want = homes[g].empty() ? 0 : homes[g][row];
      if (grp.live[row] != want) {
        return fail("row " + std::to_string(row) + " live mask " +
                    std::to_string(grp.live[row]) + ", L2P homes " +
                    std::to_string(want));
      }
      live_bits += static_cast<uint64_t>(std::popcount(grp.live[row]));
    }
    if (live_bits != grp.valid) {
      return fail(std::to_string(live_bits) + " live bits, valid " +
                  std::to_string(grp.valid));
    }
  }
  if (free_groups != free_groups_) {
    return InternalError("zapraid: " + std::to_string(free_groups) +
                         " free groups, counter " +
                         std::to_string(free_groups_));
  }
  return OkStatus();
}

}  // namespace biza
