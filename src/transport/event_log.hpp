// Merged event log of a multi-process transport run.
//
// The fleet parent (transport/proc_fleet.hpp) routes every frame of every
// worker, so the order in which frames reach it is a valid linearization of
// the distributed execution: each worker's socket is FIFO (SOCK_SEQPACKET),
// and a worker writes the frames an event produces before it reads the next
// command, so parent-arrival order respects every per-process order and
// every send-before-deliver edge.  The parent appends one Event per frame
// (plus kill markers of its own), streaming the log to disk as it runs; the
// replay oracle (transport/replay.hpp) then re-executes the log through the
// deterministic simulator and asserts bit-identical protocol state at every
// step.
//
// The format is one human-readable line per event — `kind key=value ...`
// with dependency vectors as comma-joined entries — so a failing chaos run
// leaves a log a person can read next to the test output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causality/types.hpp"

namespace rdtgc::transport {

enum class EventKind : std::uint8_t {
  kAttach,      ///< worker (re)joined; digest of its recovered state
  kSend,        ///< application message left its sender
  kDeliver,     ///< application message processed by its destination
  kCheckpoint,  ///< basic checkpoint stored (forced ones ride on kDeliver)
  kKill,        ///< quiesced SIGKILL: worker drained, then killed
  kUncleanKill, ///< immediate SIGKILL, no drain (liveness runs only)
  kDrop,        ///< parent dropped a message routed to a dead/draining worker
  kState,       ///< final state digest at shutdown
  kRecoveryStart,  ///< recovery session broadcast: faulty set, line, LI
  kRolledBack,     ///< one worker acked the session; post-state digest
};

const char* event_kind_name(EventKind kind);

/// One log record.  Fields are a union-by-convention over the kinds — the
/// per-kind line formats in event_log.cpp document exactly which fields
/// each kind carries.
struct Event {
  EventKind kind = EventKind::kAttach;
  ProcessId p = -1;                  ///< acting process (attach/ckpt/kill/state)
  std::uint32_t incarnation = 0;     ///< acting process's incarnation
  ProcessId src = -1;                ///< message source (send/deliver/drop)
  std::uint32_t src_incarnation = 0;
  std::uint64_t seq = 0;             ///< sender's Data frame sequence
  ProcessId dst = -1;                ///< message destination
  IntervalIndex interval = 0;        ///< send_interval / recv_interval
  std::uint64_t bytes = 0;           ///< payload size (send)
  std::uint8_t forced = 0;           ///< deliver: forced checkpoint preceded
  CheckpointIndex index = 0;         ///< checkpoint index / last index
  std::uint8_t ckpt_kind = 0;        ///< ccp::CheckpointKind as u8
  std::uint64_t basic = 0, forced_count = 0, sent = 0, received = 0,
                rollbacks = 0;       ///< state counters
  std::vector<IntervalIndex> dv;     ///< DV payload of the event
  std::vector<CheckpointIndex> stored;  ///< state: stored-index set
  // Recovery sessions (kRecoveryStart / kRolledBack):
  std::uint64_t session = 0;         ///< fleet-unique session id
  std::uint32_t attempt = 0;         ///< restart counter within the session
  std::vector<ProcessId> faulty;     ///< rstart: accumulated faulty set
  std::vector<IntervalIndex> li;     ///< rstart: Algorithm-3 LI vector
  std::vector<IntervalIndex> line;   ///< rstart: Lemma-1 recovery line
};

std::string event_to_line(const Event& e);

/// Strict parse of one line; false on any malformed token.
bool event_from_line(const std::string& line, Event& out);

/// Append-mode line writer, flushed per event so the log survives a parent
/// crash up to the last completed line.  Each line is formatted into a
/// buffer reused across appends and leaves in one write(2).  A log that
/// cannot be opened or written throws util::IoError naming the path.
class EventLogWriter {
 public:
  explicit EventLogWriter(const std::string& path);
  ~EventLogWriter();
  EventLogWriter(const EventLogWriter&) = delete;
  EventLogWriter& operator=(const EventLogWriter&) = delete;

  void append(const Event& e);
  std::size_t events_written() const { return events_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t events_ = 0;
  std::string line_;
};

/// Read a whole log back; throws util::ContractViolation on a malformed
/// line (a transport bug, not an input condition).
std::vector<Event> read_event_log(const std::string& path);

}  // namespace rdtgc::transport
