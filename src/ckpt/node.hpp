// The checkpointing middleware of one process: dependency-vector
// bookkeeping, protocol-driven forced checkpoints, garbage-collection hooks,
// stable storage, and recovery entry points.
//
// Event handling follows the merged implementation of the paper's
// Algorithm 4 exactly:
//   before sending m : sent <- true;  m.DV <- DV
//   on receiving m   : (protocol decides) take forced checkpoint BEFORE the
//                      receipt is processed; then for every j with
//                      m.DV[j] > DV[j]: DV[j] <- m.DV[j]; GC hook(j) — the
//                      hooks are delivered as one batched call
//                      (GarbageCollector::on_new_dependencies),
//                      allocation-free in steady state
//   on checkpoint    : store DV with the checkpoint; GC hook(DV[self]);
//                      DV[self] <- DV[self]+1; sent <- false
// The ordering matters: a forced checkpoint is "supposed to have been taken
// before the receipt" (§4.5), so the stored DV must not include the incoming
// message's dependencies, and the GC must see the store before the merge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ccp/observer.hpp"
#include "ckpt/garbage_collector.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "ckpt/protocol.hpp"
#include "sim/clock.hpp"
#include "transport/transport.hpp"

namespace rdtgc::ckpt {

class Node {
 public:
  struct Config {
    std::uint64_t checkpoint_bytes;  ///< synthetic size per checkpoint
    /// Stable-storage backend of this process's checkpoint store (default:
    /// in-memory).  The open mode selects the construction path:
    ///  * OpenMode::kFresh — cold start: a fresh lineage, s^0 stored at
    ///    construction (§2.2);
    ///  * OpenMode::kAttach — warm restart over a persistent kind: the node
    ///    reopens its medium (ShardedCheckpointStore::recover()), restores
    ///    its dependency vector from the last surviving checkpoint, resumes
    ///    interval numbering past the highest persisted index, and rebuilds
    ///    the collector's state from the recovered DVs
    ///    (GarbageCollector::on_attach).  A cluster-wide restart couples
    ///    this with recovery::recovery_line_from_storage: attach every
    ///    process, compute the Lemma-1 line over the recovered stores, then
    ///    rollback_to() the line members.
    StorageConfig storage;
    Config() : checkpoint_bytes(1) {}
  };

  struct Counters {
    std::uint64_t basic_checkpoints = 0;   ///< excludes the initial one
    std::uint64_t forced_checkpoints = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t rollbacks = 0;
  };

  /// Constructs the process and registers its delivery sink with the
  /// transport (sim::Network for simulated systems, transport::UdsTransport
  /// inside a real worker process).  With OpenMode::kFresh the node then
  /// stores the initial stable checkpoint s^0 (§2.2); with OpenMode::kAttach
  /// it instead recovers the store from its media and resumes the persisted
  /// lineage (see Config::storage).  Attaching requires a persistent storage
  /// kind and at least one surviving checkpoint.
  ///
  /// `clock` stamps each stored checkpoint (StoredCheckpoint::stored_at);
  /// `observer` sees every event (ccp/observer.hpp).  The node owns
  /// neither.  A simulated system passes its sim::Simulator and its
  /// ccp::CcpRecorder, which re-certifies the recovered DVs at an attach; a
  /// fleet worker passes a plain sim::Clock and a plain ccp::NodeObserver.
  Node(ProcessId self, std::size_t process_count, const sim::Clock& clock,
       transport::Transport& transport, ccp::NodeObserver& observer,
       std::unique_ptr<CheckpointingProtocol> protocol,
       std::unique_ptr<GarbageCollector> gc, Config config = Config());

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ---- Application-facing API ----

  /// Send an application message to `dst` (timestamp piggybacked).
  /// Returns the message id (useful with the network's manual mode).
  sim::MessageId send_app_message(ProcessId dst, std::uint64_t bytes = 1);

  /// Take a basic (autonomous) checkpoint.
  void take_basic_checkpoint();

  // ---- Recovery API (driven by recovery::RecoveryManager) ----

  /// Roll back to stored checkpoint `ri` (Algorithm 3).  `li` carries the
  /// recovery line's last-interval vector when global information is
  /// available; std::nullopt selects the causal-only variant.
  void rollback_to(CheckpointIndex ri,
                   const std::optional<std::vector<IntervalIndex>>& li);

  /// Recovery session where this process keeps its volatile state.
  void peer_recovery(const std::vector<IntervalIndex>& li);

  // ---- Introspection ----

  ProcessId id() const { return self_; }
  const causality::DependencyVector& dv() const { return dv_; }
  /// Current checkpoint interval (== dv()[id()]).
  IntervalIndex current_interval() const { return dv_[self_]; }
  /// Index of the last stable checkpoint taken (not necessarily stored:
  /// collection never removes it, but see store() for ground truth).
  CheckpointIndex last_checkpoint_index() const { return dv_[self_] - 1; }
  bool sent_since_checkpoint() const { return sent_since_checkpoint_; }

  ShardedCheckpointStore& store() { return store_; }
  const ShardedCheckpointStore& store() const { return store_; }
  GarbageCollector& gc() { return *gc_; }
  const GarbageCollector& gc() const { return *gc_; }
  const CheckpointingProtocol& protocol() const { return *protocol_; }
  const Counters& counters() const { return counters_; }

 private:
  void on_receive(const sim::Message& m);
  void take_checkpoint(ccp::CheckpointKind kind);
  /// Cold-start tail of construction: fresh lineage, store s^0.
  void start_fresh(std::size_t process_count);
  /// Warm-start tail of construction: recover the store, restore DV past
  /// the highest persisted index, report the recovered DVs to the observer,
  /// rebuild the collector (on_attach).
  void attach_from_storage(std::size_t process_count);

  ProcessId self_;
  const sim::Clock& clock_;
  transport::Transport& transport_;
  ccp::NodeObserver& observer_;
  std::unique_ptr<CheckpointingProtocol> protocol_;
  std::unique_ptr<GarbageCollector> gc_;
  Config config_;
  ShardedCheckpointStore store_;
  causality::DependencyVector dv_;
  /// Reusable merge output; pre-sized at construction so the steady-state
  /// delivery handler never allocates.
  causality::ChangedSet gc_scratch_;
  bool sent_since_checkpoint_ = false;
  Counters counters_;
};

}  // namespace rdtgc::ckpt
