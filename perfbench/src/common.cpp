#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double latency_percentile(std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto lo = static_cast<std::size_t>(std::max(0.0, (q - 0.005) * n));
  const std::size_t hi = std::min(
      v.size(), std::max(lo + 1, static_cast<std::size_t>((q + 0.005) * n)));
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double median_of(std::vector<double> v) { return quantile(v, 0.5); }

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double iqr_share(std::vector<double> v) {
  if (v.size() < 2) return 0;
  const double q1 = quantile(v, 0.25);
  const double q3 = quantile(v, 0.75);
  return (q3 - q1) / quantile(v, 0.5);
}

namespace {

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// High-water RSS of this process's current image (VmHWM).  ru_maxrss is
/// not used for it: Linux carries the pre-exec image's peak across exec,
/// so it would report the launching interpreter's footprint.
long image_peak_rss_kb(long fallback) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return fallback;
  char line[256];
  long kb = fallback;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace

bool settle_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::syncfs(fd) == 0;
  ::close(fd);
  return ok;
}

Usage Usage::now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.self_cpu_s = cpu_seconds(self);
  u.children_cpu_s = cpu_seconds(children);
  u.self_maxrss_kb = image_peak_rss_kb(self.ru_maxrss);
  u.children_maxrss_kb = children.ru_maxrss;
  u.self_ctx_switches = self.ru_nvcsw + self.ru_nivcsw;
  return u;
}

void Results::metric(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) {
    fail(0, "metric " + name + " is not a finite number");
    return;
  }
  metrics_[name] = Value{value, unit};
}

void Results::report(const std::string& name, double value,
                     const std::string& unit) {
  if (std::isfinite(value)) report_[name] = Value{value, unit};
}

void Results::fail(std::uint64_t ops, const std::string& why) {
  failed_ += ops;
  if (errors_.size() < 8) errors_.push_back(why);
}

std::string Results::to_json() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    os << (i ? ", " : "") << '"' << escape(errors_[i]) << '"';
  os << "]";
  const auto values = [&os](const char* key,
                            const std::map<std::string, Value>& m) {
    os << ", \"" << key << "\": {";
    bool first = true;
    for (const auto& [name, v] : m) {
      os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << number(v.value) << ", \"unit\": \"" << v.unit << "\"}";
      first = false;
    }
    os << "}";
  };
  values("metrics", metrics_);
  values("report", report_);
  os << "}";
  return os.str();
}

Tracer::Tracer() { stack_.reserve(16); }

void Tracer::begin(SpanId id) { stack_.push_back(Open{id, now_ns(), 0}); }

void Tracer::end() {
  const std::uint64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = t - open.start_ns;
  Slot& s = slots_[static_cast<std::size_t>(open.id)];
  ++s.count;
  s.total_ns += duration;
  s.self_ns += duration - std::min(duration, open.child_ns);
  if (stack_.empty()) {
    root_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

double mean_total_ns(const Tracer& t, SpanId id) {
  const Tracer::Slot& s = t.slot(id);
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.total_ns) /
                            static_cast<double>(s.count);
}

double mean_self_ns(const Tracer& t, SpanId id) {
  const Tracer::Slot& s = t.slot(id);
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.self_ns) /
                            static_cast<double>(s.count);
}

}  // namespace perfbench
