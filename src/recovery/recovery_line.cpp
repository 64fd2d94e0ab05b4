#include "recovery/recovery_line.hpp"

#include "ckpt/sharded_checkpoint_store.hpp"
#include "util/check.hpp"

namespace rdtgc::recovery {

std::vector<CheckpointIndex> recovery_line_from_storage(
    const std::vector<const ckpt::ShardedCheckpointStore*>& stores) {
  const std::size_t n = stores.size();
  RDTGC_EXPECTS(n >= 1);
  std::vector<CheckpointIndex> last(n);
  for (std::size_t p = 0; p < n; ++p) {
    RDTGC_EXPECTS(stores[p] != nullptr);
    RDTGC_EXPECTS(stores[p]->count() > 0);
    last[p] = stores[p]->last_index();
  }
  // Lemma 1 with F = all processes, over stored DVs only: no volatile state
  // survives a full restart, so against the recorder oracle the line is
  // min(recovery_line_lemma1(all faulty), last).
  const std::vector<bool> all_faulty(n, true);
  std::vector<CheckpointIndex> line(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<CheckpointIndex>& stored = stores[i]->stored_indices();
    const std::size_t pos = first_unpreceded(
        stored.size(),
        [&](std::size_t k) {
          return stores[i]->dv_view(stored[stored.size() - 1 - k]);
        },
        last, all_faulty);
    // Theorem 1: the recovery-line member is non-obsolete, so it was never
    // collected and the scan cannot come up empty.
    RDTGC_ENSURES(pos < stored.size());
    line[i] = stored[stored.size() - 1 - pos];
  }
  return line;
}

}  // namespace rdtgc::recovery
