#include "ckpt/storage_backend.hpp"

#include <memory>

#include "ckpt/log_backend.hpp"
#include "ckpt/mmap_backend.hpp"
#include "util/check.hpp"

namespace rdtgc::ckpt {

const char* backend_kind_name(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kInMemory:
      return "memory";
    case StorageBackendKind::kMmapFile:
      return "mmap";
    case StorageBackendKind::kLogStructured:
      return "log";
  }
  RDTGC_ASSERT(false);
  return "?";
}

std::string StorageConfig::stripe_file(ProcessId owner,
                                       std::size_t stripe) const {
  const char* ext = kind == StorageBackendKind::kMmapFile ? ".seg" : ".log";
  return directory + "/p" + std::to_string(owner) + "_s" +
         std::to_string(stripe) + ext;
}

std::string StorageConfig::meta_file(ProcessId owner) const {
  return directory + "/p" + std::to_string(owner) + ".meta";
}

std::unique_ptr<StorageBackend> make_backend(const StorageConfig& config,
                                             ProcessId owner) {
  switch (config.kind) {
    case StorageBackendKind::kInMemory:
      return nullptr;
    case StorageBackendKind::kMmapFile:
      RDTGC_EXPECTS(!config.directory.empty());
      return std::make_unique<MmapFileBackend>(
          owner, config.stripe_file(owner, 0), config.open_mode,
          config.initial_slots);
    case StorageBackendKind::kLogStructured:
      RDTGC_EXPECTS(!config.directory.empty());
      return std::make_unique<LogStructuredBackend>(
          owner, config.stripe_file(owner, 0), config.open_mode,
          config.compact_min_records, config.compact_dead_ratio);
  }
  RDTGC_ASSERT(false);
  return nullptr;
}

}  // namespace rdtgc::ckpt
