#include "ccp/recorder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rdtgc::ccp {

DvArena::DvArena(std::size_t width)
    : width_(width),
      // ~16 KiB chunks, at least 8 rows: big enough that chunk allocation
      // vanishes in the churn, small enough that a short run wastes little.
      rows_per_chunk_(
          std::max<std::size_t>(8, 16384 / (sizeof(IntervalIndex) *
                                            std::max<std::size_t>(1, width)))) {
  RDTGC_EXPECTS(width >= 1);
}

void DvArena::push(std::span<const IntervalIndex> row) {
  RDTGC_EXPECTS(row.size() == width_);
  const std::size_t chunk = rows_ / rows_per_chunk_;
  if (chunk == chunks_.size())
    chunks_.push_back(
        std::make_unique<IntervalIndex[]>(rows_per_chunk_ * width_));
  // else: a chunk retained by truncate() is refilled in place.
  IntervalIndex* dst =
      chunks_[chunk].get() + (rows_ % rows_per_chunk_) * width_;
  std::copy(row.begin(), row.end(), dst);
  ++rows_;
}

causality::DvView DvArena::row(std::size_t r) const {
  RDTGC_EXPECTS(r < rows_);
  return causality::DvView(
      chunks_[r / rows_per_chunk_].get() + (r % rows_per_chunk_) * width_,
      width_);
}

void DvArena::truncate(std::size_t rows) {
  RDTGC_EXPECTS(rows <= rows_);
  rows_ = rows;  // chunks stay allocated for the re-execution to refill
}

void DvArena::reserve(std::size_t rows) {
  const std::size_t chunks = (rows + rows_per_chunk_ - 1) / rows_per_chunk_;
  while (chunks_.size() < chunks)
    chunks_.push_back(
        std::make_unique<IntervalIndex[]>(rows_per_chunk_ * width_));
}

CcpRecorder::CcpRecorder(std::size_t n)
    : checkpoints_(n),
      volatile_dv_(n, causality::DependencyVector(n)),
      attached_dv_(n, nullptr),
      next_serial_(n, 1) {
  RDTGC_EXPECTS(n >= 1);
  dv_arena_.reserve(n);  // DvArena is move-only: emplace, don't fill-copy
  for (std::size_t p = 0; p < n; ++p) dv_arena_.emplace_back(n);
}

void CcpRecorder::reserve(std::size_t checkpoints) {
  const std::size_t n = process_count();
  for (std::size_t p = 0; p < n; ++p) {
    checkpoints_[p].reserve(checkpoints);
    dv_arena_[p].reserve(checkpoints);
  }
}

sim::MessageId CcpRecorder::new_message_id() {
  messages_.emplace_back();
  messages_.back().id = messages_.size();
  return messages_.back().id;
}

void CcpRecorder::record_start(ProcessId p,
                               const causality::DependencyVector& live) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < attached_dv_.size());
  RDTGC_EXPECTS(live.size() == attached_dv_.size());
  RDTGC_EXPECTS(attached_dv_[static_cast<std::size_t>(p)] == nullptr);
  attached_dv_[static_cast<std::size_t>(p)] = &live;
}

void CcpRecorder::record_checkpoint(ProcessId p, CheckpointIndex idx,
                                    const causality::DependencyVector& dv,
                                    CheckpointKind kind) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < checkpoints_.size());
  auto& list = checkpoints_[static_cast<std::size_t>(p)];
  RDTGC_EXPECTS(idx == static_cast<CheckpointIndex>(list.size()));
  RDTGC_EXPECTS(dv.size() == process_count());
  RDTGC_EXPECTS(dv[p] == idx);
  // The DV is appended as one row of p's history arena: no per-record heap
  // vector, so steady-state recording is O(1)-allocation (one chunk per
  // rows_per_chunk records, exactly zero after reserve()).
  dv_arena_[static_cast<std::size_t>(p)].push(dv.entries());
  CheckpointInfo& info = list.emplace_back();
  info.process = p;
  info.index = idx;
  info.kind = kind;
  info.serial = next_serial_[static_cast<std::size_t>(p)]++;
  info.gseq = next_gseq_++;
  ++stats_.checkpoints_recorded;
}

void CcpRecorder::record_send(sim::Message& m) {
  if (m.id == 0) m.id = new_message_id();
  RDTGC_EXPECTS(m.id <= messages_.size());
  MessageInfo& info = messages_[m.id - 1];
  RDTGC_EXPECTS(info.send_serial == 0);  // each id used once
  info.src = m.src;
  info.dst = m.dst;
  info.send_interval = m.send_interval;
  info.send_serial = next_serial_[static_cast<std::size_t>(m.src)]++;
  info.send_gseq = next_gseq_++;
  m.send_serial = info.send_serial;
}

void CcpRecorder::record_receive(const sim::Message& m,
                                 IntervalIndex recv_interval) {
  RDTGC_EXPECTS(m.id >= 1 && m.id <= messages_.size());
  MessageInfo& info = messages_[m.id - 1];
  RDTGC_EXPECTS(!info.delivered);
  RDTGC_EXPECTS(info.send_serial != 0);  // must have been sent
  info.delivered = true;
  info.recv_interval = recv_interval;
  info.recv_serial = next_serial_[static_cast<std::size_t>(m.dst)]++;
  info.recv_gseq = next_gseq_++;
}

void CcpRecorder::set_volatile_dv(ProcessId p,
                                  const causality::DependencyVector& dv) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < volatile_dv_.size());
  RDTGC_EXPECTS(dv.size() == volatile_dv_.size());
  RDTGC_EXPECTS(attached_dv_[static_cast<std::size_t>(p)] == nullptr);
  volatile_dv_[static_cast<std::size_t>(p)] = dv;
}

void CcpRecorder::undo_after(ProcessId p, CheckpointIndex ri) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < checkpoints_.size());
  auto& list = checkpoints_[static_cast<std::size_t>(p)];
  RDTGC_EXPECTS(ri >= 0 && ri < static_cast<CheckpointIndex>(list.size()));
  const std::uint64_t cutoff = list[static_cast<std::size_t>(ri)].serial;

  stats_.checkpoints_rolled_back += list.size() - (ri + 1);
  list.resize(static_cast<std::size_t>(ri) + 1);
  // The arena rows above ri die with their checkpoints; the chunks keep
  // their storage, so the re-execution's records refill them allocation-free.
  dv_arena_[static_cast<std::size_t>(p)].truncate(static_cast<std::size_t>(ri) +
                                                  1);

  for (MessageInfo& m : messages_) {
    if (m.src == p && m.send_alive && m.send_serial > cutoff) {
      m.send_alive = false;
      ++stats_.messages_rolled_back;
    }
    if (m.dst == p && m.delivered && m.recv_alive && m.recv_serial > cutoff)
      m.recv_alive = false;
  }
}

void CcpRecorder::record_rollback(ProcessId p, CheckpointIndex ri) {
  undo_after(p, ri);
  ++stats_.rollbacks;
}

void CcpRecorder::record_restart(
    ProcessId p, CheckpointIndex ri, const causality::DependencyVector& live,
    std::span<const RecoveredCheckpoint> recovered) {
  // A process death undoes exactly what a rollback to the last surviving
  // stored checkpoint undoes: the volatile interval's events.  In the usual
  // case ri == last_stable(p) (every checkpoint is persisted when taken and
  // the last one is never collected), so no checkpoint rows die — only the
  // dead process's volatile-interval message endpoints.  A recorder that
  // never saw p's lineage has no c_p^ri, and undo_after rejects the call.
  undo_after(p, ri);
  ++stats_.restarts;
  RDTGC_EXPECTS(live.size() == process_count());
  attached_dv_[static_cast<std::size_t>(p)] = &live;
  // Theorem 1 keeps holding across the restart only if the recovered DVs
  // are exactly the recorded ones.
  for (const RecoveredCheckpoint& c : recovered)
    RDTGC_ASSERT(c.dv == checkpoint_dv(p, c.index));
}

const std::vector<CheckpointInfo>& CcpRecorder::checkpoints(
    ProcessId p) const {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < checkpoints_.size());
  return checkpoints_[static_cast<std::size_t>(p)];
}

const CheckpointInfo& CcpRecorder::checkpoint(ProcessId p,
                                              CheckpointIndex idx) const {
  const auto& list = checkpoints(p);
  RDTGC_EXPECTS(idx >= 0 && idx < static_cast<CheckpointIndex>(list.size()));
  return list[static_cast<std::size_t>(idx)];
}

CheckpointIndex CcpRecorder::last_stable(ProcessId p) const {
  const auto& list = checkpoints(p);
  RDTGC_EXPECTS(!list.empty());  // every process starts with s^0
  return static_cast<CheckpointIndex>(list.size()) - 1;
}

const causality::DependencyVector& CcpRecorder::volatile_dv(
    ProcessId p) const {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < volatile_dv_.size());
  if (const auto* live = attached_dv_[static_cast<std::size_t>(p)])
    return *live;
  return volatile_dv_[static_cast<std::size_t>(p)];
}

causality::DvView CcpRecorder::checkpoint_dv(ProcessId p,
                                             CheckpointIndex idx) const {
  const auto& list = checkpoints(p);
  RDTGC_EXPECTS(idx >= 0 && idx < static_cast<CheckpointIndex>(list.size()));
  return dv_arena_[static_cast<std::size_t>(p)].row(
      static_cast<std::size_t>(idx));
}

causality::DvView CcpRecorder::general_checkpoint_dv(
    ProcessId p, CheckpointIndex gamma) const {
  const CheckpointIndex last = last_stable(p);
  RDTGC_EXPECTS(gamma >= 0 && gamma <= last + 1);
  if (gamma <= last) return checkpoint_dv(p, gamma);
  return volatile_dv(p).view();
}

bool CcpRecorder::audit_no_orphans() const {
  for (const MessageInfo& m : messages_)
    if (m.delivered && m.recv_alive && !m.send_alive) return false;
  return true;
}

}  // namespace rdtgc::ccp
