#include "transport/fleet_mirror.hpp"

#include <algorithm>

#include "recovery/recovery_line.hpp"
#include "util/check.hpp"

namespace rdtgc::transport {

FleetMirror::FleetMirror(std::size_t process_count) : procs_(process_count) {
  RDTGC_EXPECTS(process_count >= 1);
  for (Process& m : procs_) m.current.assign(process_count, 0);
}

std::size_t FleetMirror::slot(ProcessId p) const {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < procs_.size());
  return static_cast<std::size_t>(p);
}

CheckpointIndex FleetMirror::last_stable(ProcessId p) const {
  return procs_[slot(p)].last();
}

causality::DvView FleetMirror::general_checkpoint_dv(ProcessId p,
                                                     CheckpointIndex k) const {
  const Process& m = procs_[slot(p)];
  RDTGC_EXPECTS(k >= 0 && k <= m.last() + 1);
  const std::vector<IntervalIndex>& dv =
      k <= m.last() ? m.rows[static_cast<std::size_t>(k)] : m.current;
  return {dv.data(), dv.size()};
}

bool FleetMirror::refuse(const char* kind, ProcessId p, const char* claim,
                         std::int64_t got, const char* against,
                         std::int64_t want, const char* tail) {
  error_ = std::string(kind) + " frame from p" + std::to_string(p) + " " +
           claim + " " + std::to_string(got) + against + " " +
           std::to_string(want) + tail;
  return false;
}

bool FleetMirror::check_width(const char* kind, ProcessId p,
                              std::span<const IntervalIndex> dv) {
  if (dv.size() == procs_.size()) return true;
  return refuse(kind, p, "carries a DV of width",
                static_cast<std::int64_t>(dv.size()), ", expected",
                static_cast<std::int64_t>(procs_.size()));
}

bool FleetMirror::check_own_entry(const char* kind, ProcessId p,
                                  std::span<const IntervalIndex> dv,
                                  IntervalIndex interval) {
  const IntervalIndex own = dv[slot(p)];
  if (own == interval) return true;
  return refuse(kind, p, "has own DV entry", own, ", Equation 3 requires",
                interval);
}

bool FleetMirror::attach(ProcessId p, std::uint32_t incarnation,
                         CheckpointIndex last_index,
                         std::span<const IntervalIndex> dv) {
  Process& m = procs_[slot(p)];
  if (!check_width("Hello", p, dv)) return false;
  const std::int64_t max_last =
      incarnation == 0 ? 0 : m.last() + static_cast<std::int64_t>(m.unlogged);
  if (last_index < 0 || last_index > max_last) {
    return refuse("Hello", p, "claims last checkpoint index", last_index,
                  ", at most", max_last, " is possible");
  }
  if (!check_own_entry("Hello", p, dv, last_index + 1)) return false;
  m.unlogged = 0;
  // Rows above the recovered position die with the volatile interval, as
  // the recorder's do.  Rows can be missing only after an unclean kill
  // (liveness-only runs) hid checkpoints: pad them from the Hello DV.
  const auto rows = static_cast<std::size_t>(last_index) + 1;
  while (m.rows.size() < rows) {
    std::vector<IntervalIndex>& row = m.rows.emplace_back(dv.begin(), dv.end());
    row[slot(p)] = static_cast<IntervalIndex>(m.rows.size()) - 1;
  }
  m.rows.resize(rows);
  m.current.assign(dv.begin(), dv.end());
  return true;
}

bool FleetMirror::send(ProcessId p, IntervalIndex send_interval,
                       std::span<const IntervalIndex> dv) {
  if (!check_width("Data", p, dv)) return false;
  const IntervalIndex interval = procs_[slot(p)].current[slot(p)];
  if (send_interval != interval) {
    return refuse("Data", p, "puts its send in interval", send_interval,
                  ", its lineage in", interval);
  }
  return check_own_entry("Data", p, dv, send_interval);
}

bool FleetMirror::deliver(const Delivery& d, bool forced,
                          std::span<const IntervalIndex> dv_after) {
  Process& m = procs_[slot(d.dst)];
  RDTGC_EXPECTS(d.src >= 0 && static_cast<std::size_t>(d.src) < procs_.size());
  if (!check_width("RecvAck", d.dst, dv_after)) return false;
  // The receive stays in the current interval — or, forced, follows the
  // checkpoint that closes it, in the next one.
  const auto lineage =
      static_cast<std::int64_t>(m.rows.size()) + (forced ? 1 : 0);
  if (d.recv_interval != lineage) {
    return refuse("RecvAck", d.dst, "puts its receive in interval",
                  d.recv_interval, ", its lineage in", lineage);
  }
  if (!check_own_entry("RecvAck", d.dst, dv_after, d.recv_interval))
    return false;
  delivered_.push_back(d);
  if (forced) {
    // The forced checkpoint stored the receiver's pre-event DV (the
    // mirror's current) at the pre-event interval.
    m.rows.push_back(m.current);
    prune_below_checkpoint(d.dst);
  }
  m.current.assign(dv_after.begin(), dv_after.end());
  return true;
}

bool FleetMirror::checkpoint(ProcessId p, CheckpointIndex index,
                             std::span<const IntervalIndex> dv) {
  Process& m = procs_[slot(p)];
  if (!check_width("Checkpoint", p, dv)) return false;
  const auto lineage = static_cast<std::int64_t>(m.rows.size());
  if (index != lineage) {
    return refuse("Checkpoint", p, "has index", index, ", its lineage",
                  lineage);
  }
  if (!check_own_entry("Checkpoint", p, dv, index)) return false;
  m.rows.emplace_back(dv.begin(), dv.end());
  m.current.assign(dv.begin(), dv.end());
  m.current[slot(p)] += 1;
  prune_below_checkpoint(p);
  return true;
}

bool FleetMirror::rolled_back(ProcessId p, CheckpointIndex last_index,
                              std::span<const IntervalIndex> dv) {
  Process& m = procs_[slot(p)];
  if (!check_width("RolledBack", p, dv)) return false;
  if (last_index < 0 || last_index > m.last()) {
    return refuse("RolledBack", p, "restores index", last_index,
                  ", its lineage ends at", m.last());
  }
  if (!check_own_entry("RolledBack", p, dv, last_index + 1)) return false;
  m.rows.resize(static_cast<std::size_t>(last_index) + 1);
  m.current.assign(dv.begin(), dv.end());
  return true;
}

void FleetMirror::unclean_kill(ProcessId p, std::uint64_t dropped) {
  procs_[slot(p)].unlogged = dropped;
}

void FleetMirror::prune_below_checkpoint(ProcessId p) {
  const CheckpointIndex last = procs_[slot(p)].last();
  std::erase_if(delivered_, [&](const Delivery& r) {
    return r.src == p && r.send_interval <= last;
  });
}

std::uint64_t FleetMirror::orphans(ProcessId p,
                                   std::uint32_t killed_incarnation) const {
  const CheckpointIndex last = last_stable(p);
  return static_cast<std::uint64_t>(
      std::count_if(delivered_.begin(), delivered_.end(),
                    [&](const Delivery& r) {
                      return r.src == p &&
                             r.src_incarnation == killed_incarnation &&
                             r.send_interval > last;
                    }));
}

void FleetMirror::forget_after_attach(ProcessId p) {
  const CheckpointIndex last = last_stable(p);
  std::erase_if(delivered_, [&](const Delivery& r) {
    return (r.dst == p && r.recv_interval > last) ||
           (r.src == p && r.send_interval > last);
  });
}

void FleetMirror::end_session(std::span<const CheckpointIndex> line) {
  RDTGC_EXPECTS(line.size() == procs_.size());
  std::erase_if(delivered_, [&](const Delivery& r) {
    return r.send_interval > line[static_cast<std::size_t>(r.src)] ||
           r.recv_interval > line[static_cast<std::size_t>(r.dst)];
  });
}

void FleetMirror::plan(const std::vector<ProcessId>& faulty,
                       std::vector<CheckpointIndex>& line,
                       std::vector<IntervalIndex>& li) const {
  const std::size_t n = procs_.size();
  std::vector<bool> faulty_mask(n, false);
  for (const ProcessId f : faulty) faulty_mask[slot(f)] = true;
  std::vector<CheckpointIndex> last(n);
  for (std::size_t i = 0; i < n; ++i) last[i] = procs_[i].last();
  line.assign(n, 0);
  li.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // Candidates newest first: the volatile state, then s^last down to
    // s^1.  s^0 is never preceded (its DV is all zeros), so it is the line
    // member when every candidate is.
    const auto p = static_cast<ProcessId>(i);
    const auto candidates = static_cast<std::size_t>(last[i] + 1);
    const std::size_t k = recovery::first_unpreceded(
        candidates,
        [&](std::size_t c) {
          return general_checkpoint_dv(
              p, static_cast<CheckpointIndex>(candidates - c));
        },
        last, faulty_mask);
    line[i] = static_cast<CheckpointIndex>(candidates - k);
    // LI[j] = last_s(j)+1 in the cut defined by the line: rolled-back
    // processes restore s^{line[j]}, survivors keep their volatile state.
    li[i] = line[i] <= last[i] ? line[i] + 1 : line[i];
  }
}

}  // namespace rdtgc::transport
