// Worker-process binary of the socket transport: a thin argv wrapper around
// transport::run_worker.  Spawned by transport::ProcFleet, one OS process
// per checkpointing process — never run by hand (the argv contract below is
// the fleet's, not a user interface).
//
//   rdtgc_proc <socket> <self> <n> <incarnation> <protocol> <backend>
//              <storage_dir> <checkpoint_bytes> <idle_timeout_ms>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ckpt/protocol.hpp"
#include "ckpt/storage_backend.hpp"
#include "transport/worker.hpp"

namespace {

long long parse_ll(const char* s, bool& ok) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') ok = false;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 10) {
    std::fprintf(stderr,
                 "usage: %s <socket> <self> <n> <incarnation> <protocol> "
                 "<backend> <storage_dir> <checkpoint_bytes> "
                 "<idle_timeout_ms>\n",
                 argc > 0 ? argv[0] : "rdtgc_proc");
    return 64;  // EX_USAGE
  }
  bool ok = true;
  rdtgc::transport::WorkerConfig config;
  config.socket_path = argv[1];
  config.self = static_cast<rdtgc::ProcessId>(parse_ll(argv[2], ok));
  config.process_count = static_cast<std::size_t>(parse_ll(argv[3], ok));
  config.incarnation = static_cast<std::uint32_t>(parse_ll(argv[4], ok));
  config.protocol =
      static_cast<rdtgc::ckpt::ProtocolKind>(parse_ll(argv[5], ok));
  config.backend =
      static_cast<rdtgc::ckpt::StorageBackendKind>(parse_ll(argv[6], ok));
  config.storage_dir = argv[7];
  config.checkpoint_bytes = static_cast<std::uint64_t>(parse_ll(argv[8], ok));
  config.idle_timeout_ms = static_cast<int>(parse_ll(argv[9], ok));
  if (!ok || config.self < 0 || config.process_count < 2 ||
      static_cast<std::size_t>(config.self) >= config.process_count ||
      config.idle_timeout_ms <= 0) {
    std::fprintf(stderr, "rdtgc_proc: malformed argv\n");
    return 64;
  }
  return rdtgc::transport::run_worker(config);
}
