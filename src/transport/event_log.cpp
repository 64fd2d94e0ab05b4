#include "transport/event_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <concepts>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/check.hpp"
#include "util/mapped_file.hpp"  // util::IoError

namespace rdtgc::transport {

namespace {

// Per-kind line formats (strict token order; `dv`/`stored` comma-joined):
//   attach p=2 inc=1 last=4 dv=0,0,5,1
//   send src=1 sinc=0 seq=3 dst=2 si=4 bytes=1 dv=0,4,2,1
//   deliver dst=2 dinc=0 src=1 sinc=0 seq=3 ri=5 forced=1 dv=1,4,5,2
//   ckpt p=0 inc=0 idx=3 kind=1 dv=3,1,0,0
//   kill p=2
//   ukill p=2 at=17
//   drop src=1 sinc=0 seq=7 dst=2
//   state p=0 inc=0 last=6 basic=3 forced=2 sent=9 recv=8 rb=0 dv=... stored=0,2,6
//   rstart session=1 attempt=0 faulty=2 li=0,3,2 line=0,2,2
//   rback p=1 inc=0 session=1 attempt=0 rolled=1 last=2 dv=1,2,0 stored=0,1,2

template <std::integral T>
void put_int(std::string& out, T v) {
  char digits[24];  // a u64 needs 20, an i32 11
  const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
  out.append(digits, end);
}

/// Append " key=value".
template <std::integral T>
void field(std::string& out, std::string_view key, T v) {
  out += ' ';
  out += key;
  out += '=';
  put_int(out, v);
}

/// Append " key=a,b,c" (" key=" for an empty vector).
template <std::integral T>
void field(std::string& out, std::string_view key, const std::vector<T>& v) {
  out += ' ';
  out += key;
  out += '=';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    put_int(out, v[i]);
  }
}

/// Append the line of `e`, without the newline.
void append_line(std::string& out, const Event& e) {
  out += event_kind_name(e.kind);
  switch (e.kind) {
    case EventKind::kAttach:
      field(out, "p", e.p);
      field(out, "inc", e.incarnation);
      field(out, "last", e.index);
      field(out, "dv", e.dv);
      break;
    case EventKind::kSend:
      field(out, "src", e.src);
      field(out, "sinc", e.src_incarnation);
      field(out, "seq", e.seq);
      field(out, "dst", e.dst);
      field(out, "si", e.interval);
      field(out, "bytes", e.bytes);
      field(out, "dv", e.dv);
      break;
    case EventKind::kDeliver:
      field(out, "dst", e.dst);
      field(out, "dinc", e.incarnation);
      field(out, "src", e.src);
      field(out, "sinc", e.src_incarnation);
      field(out, "seq", e.seq);
      field(out, "ri", e.interval);
      field(out, "forced", unsigned{e.forced});
      field(out, "dv", e.dv);
      break;
    case EventKind::kCheckpoint:
      field(out, "p", e.p);
      field(out, "inc", e.incarnation);
      field(out, "idx", e.index);
      field(out, "kind", unsigned{e.ckpt_kind});
      field(out, "dv", e.dv);
      break;
    case EventKind::kKill:
      field(out, "p", e.p);
      break;
    case EventKind::kUncleanKill:
      // `at` is this event's own index: the first position replay cannot
      // certify (frames may have died in the victim's buffers unlogged).
      field(out, "p", e.p);
      field(out, "at", e.seq);
      break;
    case EventKind::kDrop:
      field(out, "src", e.src);
      field(out, "sinc", e.src_incarnation);
      field(out, "seq", e.seq);
      field(out, "dst", e.dst);
      break;
    case EventKind::kState:
      field(out, "p", e.p);
      field(out, "inc", e.incarnation);
      field(out, "last", e.index);
      field(out, "basic", e.basic);
      field(out, "forced", e.forced_count);
      field(out, "sent", e.sent);
      field(out, "recv", e.received);
      field(out, "rb", e.rollbacks);
      field(out, "dv", e.dv);
      field(out, "stored", e.stored);
      break;
    case EventKind::kRecoveryStart:
      field(out, "session", e.session);
      field(out, "attempt", e.attempt);
      field(out, "faulty", e.faulty);
      field(out, "li", e.li);
      field(out, "line", e.line);
      break;
    case EventKind::kRolledBack:
      field(out, "p", e.p);
      field(out, "inc", e.incarnation);
      field(out, "session", e.session);
      field(out, "attempt", e.attempt);
      field(out, "rolled", unsigned{e.forced});
      field(out, "last", e.index);
      field(out, "dv", e.dv);
      field(out, "stored", e.stored);
      break;
  }
}

/// Pull the next "key=value" token off `in`; false unless the key matches.
bool token(std::istringstream& in, const char* key, std::string& value) {
  std::string tok;
  if (!(in >> tok)) return false;
  const std::string prefix = std::string(key) + "=";
  if (tok.rfind(prefix, 0) != 0) return false;
  value = tok.substr(prefix.size());
  return true;
}

/// Parse all of `text` as a T: decimal digits, a leading '-' only on a
/// signed T.  False on an empty field, a stray character, or a value
/// outside T's range.
template <std::integral T>
bool parse_number(std::string_view text, T& out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

template <std::integral T>
bool parse_int(std::istringstream& in, const char* key, T& out) {
  std::string value;
  return token(in, key, value) && parse_number(value, out);
}

template <std::integral T>
bool parse_vec(std::istringstream& in, const char* key, std::vector<T>& out) {
  std::string value;
  if (!token(in, key, value)) return false;
  out.clear();
  if (value.empty()) return true;  // empty vector encodes as "dv="
  std::string_view rest = value;
  for (;;) {
    const std::size_t comma = rest.find(',');
    T item{};
    if (!parse_number(rest.substr(0, comma), item)) return false;
    out.push_back(item);
    if (comma == std::string_view::npos) return true;
    rest.remove_prefix(comma + 1);
  }
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kAttach:      return "attach";
    case EventKind::kSend:        return "send";
    case EventKind::kDeliver:     return "deliver";
    case EventKind::kCheckpoint:  return "ckpt";
    case EventKind::kKill:        return "kill";
    case EventKind::kUncleanKill: return "ukill";
    case EventKind::kDrop:        return "drop";
    case EventKind::kState:       return "state";
    case EventKind::kRecoveryStart: return "rstart";
    case EventKind::kRolledBack:    return "rback";
  }
  return "unknown";
}

std::string event_to_line(const Event& e) {
  std::string line;
  append_line(line, e);
  return line;
}

bool event_from_line(const std::string& line, Event& out) {
  std::istringstream in(line);
  std::string kind;
  if (!(in >> kind)) return false;
  out = Event{};

  const auto done = [&in] {
    std::string rest;
    return !(in >> rest);  // no trailing tokens allowed
  };

  if (kind == "attach") {
    out.kind = EventKind::kAttach;
    return parse_int(in, "p", out.p) && parse_int(in, "inc", out.incarnation) &&
           parse_int(in, "last", out.index) && parse_vec(in, "dv", out.dv) &&
           done();
  }
  if (kind == "send") {
    out.kind = EventKind::kSend;
    return parse_int(in, "src", out.src) &&
           parse_int(in, "sinc", out.src_incarnation) &&
           parse_int(in, "seq", out.seq) && parse_int(in, "dst", out.dst) &&
           parse_int(in, "si", out.interval) &&
           parse_int(in, "bytes", out.bytes) && parse_vec(in, "dv", out.dv) &&
           done();
  }
  if (kind == "deliver") {
    out.kind = EventKind::kDeliver;
    return parse_int(in, "dst", out.dst) &&
           parse_int(in, "dinc", out.incarnation) &&
           parse_int(in, "src", out.src) &&
           parse_int(in, "sinc", out.src_incarnation) &&
           parse_int(in, "seq", out.seq) && parse_int(in, "ri", out.interval) &&
           parse_int(in, "forced", out.forced) &&
           parse_vec(in, "dv", out.dv) && done();
  }
  if (kind == "ckpt") {
    out.kind = EventKind::kCheckpoint;
    return parse_int(in, "p", out.p) && parse_int(in, "inc", out.incarnation) &&
           parse_int(in, "idx", out.index) &&
           parse_int(in, "kind", out.ckpt_kind) &&
           parse_vec(in, "dv", out.dv) && done();
  }
  if (kind == "kill") {
    out.kind = EventKind::kKill;
    return parse_int(in, "p", out.p) && done();
  }
  if (kind == "ukill") {
    out.kind = EventKind::kUncleanKill;
    return parse_int(in, "p", out.p) && parse_int(in, "at", out.seq) && done();
  }
  if (kind == "drop") {
    out.kind = EventKind::kDrop;
    return parse_int(in, "src", out.src) &&
           parse_int(in, "sinc", out.src_incarnation) &&
           parse_int(in, "seq", out.seq) && parse_int(in, "dst", out.dst) &&
           done();
  }
  if (kind == "state") {
    out.kind = EventKind::kState;
    return parse_int(in, "p", out.p) && parse_int(in, "inc", out.incarnation) &&
           parse_int(in, "last", out.index) &&
           parse_int(in, "basic", out.basic) &&
           parse_int(in, "forced", out.forced_count) &&
           parse_int(in, "sent", out.sent) &&
           parse_int(in, "recv", out.received) &&
           parse_int(in, "rb", out.rollbacks) && parse_vec(in, "dv", out.dv) &&
           parse_vec(in, "stored", out.stored) && done();
  }
  if (kind == "rstart") {
    out.kind = EventKind::kRecoveryStart;
    return parse_int(in, "session", out.session) &&
           parse_int(in, "attempt", out.attempt) &&
           parse_vec(in, "faulty", out.faulty) &&
           parse_vec(in, "li", out.li) && parse_vec(in, "line", out.line) &&
           done();
  }
  if (kind == "rback") {
    out.kind = EventKind::kRolledBack;
    return parse_int(in, "p", out.p) && parse_int(in, "inc", out.incarnation) &&
           parse_int(in, "session", out.session) &&
           parse_int(in, "attempt", out.attempt) &&
           parse_int(in, "rolled", out.forced) &&
           parse_int(in, "last", out.index) && parse_vec(in, "dv", out.dv) &&
           parse_vec(in, "stored", out.stored) && done();
  }
  return false;
}

EventLogWriter::EventLogWriter(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw util::IoError("cannot open event log '" + path +
                        "': " + std::strerror(errno));
  }
}

EventLogWriter::~EventLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void EventLogWriter::append(const Event& e) {
  line_.clear();
  append_line(line_, e);
  line_.push_back('\n');
  std::size_t off = 0;
  while (off < line_.size()) {
    const ssize_t n = ::write(fd_, line_.data() + off, line_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::IoError("cannot write event log '" + path_ +
                          "': " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  ++events_;
}

std::vector<Event> read_event_log(const std::string& path) {
  std::ifstream in(path);
  RDTGC_EXPECTS(in.good());
  std::vector<Event> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Event e;
    if (!event_from_line(line, e))
      throw util::ContractViolation("malformed event-log line: " + line);
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace rdtgc::transport
