// T-D: micro-benchmarks for the complexity claims of §4.5.
//
//  * all Algorithm-1 procedures are O(1); the receive/checkpoint handlers
//    are O(n) dominated by dependency-vector propagation;
//  * the Algorithm-3 rollback rebuild is O(n log n) with binary search over
//    the stored checkpoints, versus O(n^2) for the linear scan;
//  * the offline analyses (R-graph construction, Lemma-1 lines, Theorem-1
//    characterization) scale with the recorded history;
//  * a real fleet's start-up and one worker's restart, the per-spawn cost
//    the recovery model charges every failed process.
#include <benchmark/benchmark.h>
#include <sys/socket.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

#include "causality/dependency_vector.hpp"
#include "ccp/analysis.hpp"
#include "ccp/observer.hpp"
#include "ccp/precedence.hpp"
#include "ccp/zigzag.hpp"
#include "ckpt/log_backend.hpp"
#include "ckpt/node.hpp"
#include "ckpt/protocol.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"
#include "core/rdt_lgc.hpp"
#include "core/uc_table.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "metrics/durability_lag.hpp"
#include "metrics/storage_probe.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/proc_fleet.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"
#include "workload/workload.hpp"

using namespace rdtgc;

namespace {

void BM_DvMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  causality::DependencyVector mine(n), msg(n);
  for (std::size_t j = 0; j < n; ++j) msg.at(static_cast<ProcessId>(j)) = 1;
  for (auto _ : state) {
    causality::DependencyVector dv = mine;
    benchmark::DoNotOptimize(dv.merge(msg));
  }
}
BENCHMARK(BM_DvMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_DvMergeInto(benchmark::State& state) {
  // The zero-allocation variant: same worst case (every entry raised), the
  // changed set written into a reusable scratch buffer.
  const auto n = static_cast<std::size_t>(state.range(0));
  causality::DependencyVector mine(n), msg(n);
  for (std::size_t j = 0; j < n; ++j) msg.at(static_cast<ProcessId>(j)) = 1;
  causality::ChangedSet changed(n);
  causality::DependencyVector dv = mine;
  for (auto _ : state) {
    dv = mine;  // same-size copy assignment: reuses the buffer
    dv.merge_into(msg, changed);
    benchmark::DoNotOptimize(changed.size());
  }
}
BENCHMARK(BM_DvMergeInto)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_UcTableReleaseLink(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::UcTable table(n, [](CheckpointIndex) {});
  table.new_ccb(0, 0);
  for (auto _ : state) {
    // Algorithm 2's receive pair on a rotating peer: O(1) each (§4.5).
    for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j) {
      table.release(j);
      table.link(j, 0);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_UcTableReleaseLink)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_UcTableRebind(benchmark::State& state) {
  // The same n-1 peer rebinding as BM_UcTableReleaseLink, coalesced into one
  // rebind_to pass (single ±k CCB refcount adjustment).  The self CCB is
  // swapped every iteration so each rebind really moves every peer (without
  // the swap, rebind_to's already-bound fast path would measure a no-op);
  // the swap's release+new_ccb cost is charged to the batched side.
  const auto n = static_cast<std::size_t>(state.range(0));
  core::UcTable table(n, [](CheckpointIndex) {});
  table.new_ccb(0, 0);
  std::vector<ProcessId> peers;
  for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j) peers.push_back(j);
  table.rebind_to({peers.data(), peers.size()}, 0);
  CheckpointIndex next = 1;
  for (auto _ : state) {
    table.release(0);
    table.new_ccb(0, next);  // the old CCB dies when the last peer leaves it
    next = next == 0 ? 1 : 0;
    table.rebind_to({peers.data(), peers.size()}, 0);
    benchmark::DoNotOptimize(&table);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_UcTableRebind)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_CheckpointPath(benchmark::State& state) {
  // Full middleware checkpoint operation (store + GC hook + DV increment).
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = n;
  config.network.manual = true;
  config.gc = harness::GcChoice::kRdtLgc;
  harness::System system(config);
  for (auto _ : state) system.node(0).take_basic_checkpoint();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointPath)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ReceivePath(benchmark::State& state) {
  // Checkpoint at the sender + send + delivery at the receiver: the
  // receiver-side work is the paper's O(n) receive handler with a fresh
  // dependency every time.
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = n;
  config.network.manual = true;
  config.gc = harness::GcChoice::kRdtLgc;
  harness::System system(config);
  for (auto _ : state) {
    system.node(1).take_basic_checkpoint();
    const auto id = system.node(1).send_app_message(0);
    system.network().deliver_now(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReceivePath)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ReceivePathUnobserved(benchmark::State& state) {
  // BM_ReceivePath with the oracle off: the same nodes, protocol, collector
  // and loop, but each node reports to the default (no-op) observer instead
  // of a ccp::CcpRecorder, as a fleet worker's node does.  The gap to
  // BM_ReceivePath is the recorder's price per delivery.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  sim::Network::Config manual;
  manual.manual = true;
  sim::Network network(simulator, util::Rng(1 ^ 0x6e6574ULL), manual);
  ccp::NodeObserver observer;
  std::vector<std::unique_ptr<ckpt::Node>> nodes;
  nodes.reserve(n);
  for (std::size_t p = 0; p < n; ++p)
    nodes.push_back(std::make_unique<ckpt::Node>(
        static_cast<ProcessId>(p), n, simulator, network, observer,
        ckpt::make_protocol(ckpt::ProtocolKind::kFdas),
        std::make_unique<core::RdtLgc>(core::RdtLgc::RollbackSearch::kBinary)));
  for (auto _ : state) {
    nodes[1]->take_basic_checkpoint();
    const auto id = nodes[1]->send_app_message(0);
    network.deliver_now(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReceivePathUnobserved)
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SimDeliveryLoop(benchmark::State& state) {
  // The simulated network's event loop alone: a non-manual sim::Network
  // over a Simulator, one send of an Arg-wide DV and its delivery event
  // per iteration, into a sink that only counts.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  sim::Network network(simulator, util::Rng(3), sim::Network::Config{});
  std::uint64_t delivered = 0;
  for (std::size_t p = 0; p < n; ++p)
    network.connect(static_cast<ProcessId>(p),
                    [&delivered](const sim::Message&) { ++delivered; });
  const causality::DependencyVector dv(n);
  for (auto _ : state) {
    sim::Message m = network.make_message();
    m.src = 1;
    m.dst = 0;
    m.dv = dv;
    m.bytes = 1;
    network.send(std::move(m));
    simulator.step();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimDeliveryLoop)->Arg(4)->Arg(16);

// Worst-case receive at the GC layer — every delivery raises all n-1 peer
// entries right after a local checkpoint, so every UC entry rebinds and the
// abandoned checkpoint is eliminated through the store.  The Batched/PerPeer
// pair makes the old-vs-new delta of the coalesced entry point visible.
void BM_ReceiveBatch(benchmark::State& state, bool batched) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ckpt::ShardedCheckpointStore store(0);
  core::RdtLgc lgc;
  lgc.initialize(0, n, store);
  causality::DependencyVector dv(n), msg(n);
  causality::ChangedSet changed(n);
  CheckpointIndex index = 0;
  IntervalIndex tick = 0;
  store.put(ckpt::StoredCheckpoint{index, dv, 0, 1});
  lgc.on_checkpoint_stored(index);
  dv.at(0) += 1;
  for (auto _ : state) {
    ++index;
    store.put(ckpt::StoredCheckpoint{index, dv, 0, 1});
    lgc.on_checkpoint_stored(index);
    dv.at(0) += 1;
    ++tick;
    for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
      msg.at(j) = tick;
    if (batched) {
      dv.merge_into(msg, changed);
      lgc.on_new_dependencies(changed.span());
    } else {
      const std::vector<ProcessId> per_peer = dv.merge(msg);
      for (const ProcessId j : per_peer) lgc.on_new_dependency(j);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1));
}
void BM_ReceivePathBatched(benchmark::State& state) {
  BM_ReceiveBatch(state, true);
}
void BM_ReceivePathPerPeer(benchmark::State& state) {
  BM_ReceiveBatch(state, false);
}
BENCHMARK(BM_ReceivePathBatched)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_ReceivePathPerPeer)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// ---- Protocol seam cost ---------------------------------------------------
//
// One checkpoint + send + delivery per iteration through each protocol
// behind the piggyback seam: the delta against Uncoordinated is the price
// of that protocol's on_send control fill, must_force query, and
// on_deliver merge.  FINE is the widest (n+1 control words per message);
// the scalar-clock protocols should be indistinguishable from the DV-only
// family at any n.
void BM_ProtocolSeam(benchmark::State& state, ckpt::ProtocolKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = n;
  config.network.manual = true;
  config.protocol = kind;
  config.gc = harness::GcChoice::kRdtLgc;
  harness::System system(config);
  for (auto _ : state) {
    system.node(1).take_basic_checkpoint();
    const auto id = system.node(1).send_app_message(0);
    system.network().deliver_now(id);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_ProtocolUncoordinated(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kUncoordinated);
}
void BM_ProtocolFdas(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kFdas);
}
void BM_ProtocolBcs(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kBcs);
}
void BM_ProtocolFine(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kFine);
}
BENCHMARK(BM_ProtocolUncoordinated)->Arg(4)->Arg(64)->Arg(256);
BENCHMARK(BM_ProtocolFdas)->Arg(4)->Arg(64)->Arg(256);
BENCHMARK(BM_ProtocolBcs)->Arg(4)->Arg(64)->Arg(256);
BENCHMARK(BM_ProtocolFine)->Arg(4)->Arg(64)->Arg(256);

// ---- Wire codec and socket hop -------------------------------------------
//
// The transport layers one fleet delivery crosses.  Arg is the DV width;
// every Data frame also carries n+1 control words, the FINE width (the
// widest protocol).  BM_UdsHop moves one such frame through send_frame +
// recv_frame on a SOCK_SEQPACKET socketpair: its cost must follow the
// frame's bytes, so a receive path that touches kMaxFrameBytes per datagram
// shows up as a width-independent floor (~30 us for a 1 MiB zero-fill on
// a 4-vCPU Xeon KVM guest, against ~1.2 us for the whole hop at width 4).

transport::DataBody fine_width_data(std::size_t n) {
  transport::DataBody body;
  body.send_interval = 7;
  body.bytes = 1;
  for (std::size_t j = 0; j < n; ++j)
    body.dv.push_back(static_cast<IntervalIndex>(j * 3 + 1));
  for (std::size_t j = 0; j <= n; ++j)
    body.control.push_back(static_cast<std::uint32_t>(j * 5 + 2));
  return body;
}

constexpr transport::FrameMeta kDataMeta{0, 1, 0, 1};

void BM_WireDataEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const transport::DataBody body = fine_width_data(n);
  transport::WireBuffer frame;
  for (auto _ : state) {
    transport::encode_data(frame, kDataMeta, body);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_WireDataEncode)->Arg(4)->Arg(64)->Arg(1024);

void BM_WireDataDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  transport::WireBuffer frame;
  transport::encode_data(frame, kDataMeta, fine_width_data(n));
  transport::DecodedFrame decoded;
  for (auto _ : state) {
    if (transport::decode_frame(frame, decoded) != transport::WireError::kOk) {
      state.SkipWithError("Data frame failed to decode");
      break;
    }
    benchmark::DoNotOptimize(decoded.data.dv.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_WireDataDecode)->Arg(4)->Arg(64)->Arg(1024);

void BM_UdsHop(benchmark::State& state) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds) != 0) {
    state.SkipWithError("socketpair(SOCK_SEQPACKET) failed");
    return;
  }
  const transport::Fd tx(fds[0]);
  const transport::Fd rx(fds[1]);
  const auto n = static_cast<std::size_t>(state.range(0));
  transport::WireBuffer frame;
  transport::encode_data(frame, kDataMeta, fine_width_data(n));
  transport::WireBuffer in;
  for (auto _ : state) {
    if (!transport::send_frame(tx.get(), frame, 1000) ||
        transport::recv_frame(rx.get(), in, 1000) !=
            transport::RecvStatus::kFrame) {
      state.SkipWithError("the socket hop failed");
      break;
    }
    benchmark::DoNotOptimize(in.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_UdsHop)->Arg(4)->Arg(64)->Arg(1024);

// The RecvAck record every delivery sends back to the parent: the
// receiver's post-merge DV at width Arg.
transport::RecvAckBody recv_ack_at_width(std::size_t n) {
  transport::RecvAckBody body;
  body.msg_src = 0;
  body.msg_incarnation = 0;
  body.msg_seq = 42;
  body.recv_interval = 9;
  body.forced = 1;
  for (std::size_t j = 0; j < n; ++j)
    body.dv_after.push_back(static_cast<IntervalIndex>(j * 3 + 1));
  return body;
}

constexpr transport::FrameMeta kAckMeta{1, -1, 0, 7};

void BM_WireRecvAckEncode(benchmark::State& state) {
  const transport::RecvAckBody body =
      recv_ack_at_width(static_cast<std::size_t>(state.range(0)));
  transport::WireBuffer frame;
  for (auto _ : state) {
    transport::encode_recv_ack(frame, kAckMeta, body);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_WireRecvAckEncode)->Arg(4)->Arg(64)->Arg(1024);

void BM_WireRecvAckDecode(benchmark::State& state) {
  transport::WireBuffer frame;
  transport::encode_recv_ack(
      frame, kAckMeta,
      recv_ack_at_width(static_cast<std::size_t>(state.range(0))));
  transport::DecodedFrame decoded;
  for (auto _ : state) {
    if (transport::decode_frame(frame, decoded) != transport::WireError::kOk) {
      state.SkipWithError("RecvAck frame failed to decode");
      break;
    }
    benchmark::DoNotOptimize(decoded.recv_ack.dv_after.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_WireRecvAckDecode)->Arg(4)->Arg(64)->Arg(1024);

/// Checkpoints per timed iteration of the store churn families.
constexpr int kChurnBatch = 64;

// ---- Storage-medium families ---------------------------------------------
//
// A sliding-window put/collect churn (8 checkpoints live, Arg the DV
// width), and the reopen+recover cycle of a restart, per medium
// (ckpt/storage_backend.hpp): the deltas against the in-memory family price
// what durability costs on the hot path, and the recover families price the
// recovery path itself — the figure the rollback analyses care about.
// Media live under TMPDIR (point it at a tmpfs to bench the store, not the
// disk).

ckpt::StorageConfig backend_config(ckpt::StorageBackendKind kind) {
  ckpt::StorageConfig config;
  config.kind = kind;
  if (kind != ckpt::StorageBackendKind::kInMemory)
    config.directory = bench::scratch_dir("run");
  return config;
}

void BM_BackendChurn(benchmark::State& state, ckpt::StorageBackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ckpt::ShardedCheckpointStore store(
      0, ckpt::ShardedCheckpointStore::kDefaultShardCount,
      ckpt::StoreConcurrency::kUnsynchronized, backend_config(kind));
  causality::DependencyVector dv(n);
  CheckpointIndex next = 0;
  constexpr CheckpointIndex window = 16;
  for (; next < window; ++next) store.put(next, dv, 0, 1);
  for (CheckpointIndex g = 0; g < window / 2; ++g) store.collect(g);
  for (auto _ : state) {
    for (int k = 0; k < kChurnBatch; ++k) {
      store.put(next, dv, 0, 1);
      store.collect(next - window / 2);
      ++next;
    }
  }
  state.SetItemsProcessed(state.iterations() * kChurnBatch);
}
void BM_BackendChurnMemory(benchmark::State& state) {
  BM_BackendChurn(state, ckpt::StorageBackendKind::kInMemory);
}
void BM_BackendChurnMmap(benchmark::State& state) {
  BM_BackendChurn(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_BackendChurnLog(benchmark::State& state) {
  BM_BackendChurn(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_BackendChurnMemory)->Arg(4)->Arg(64);
BENCHMARK(BM_BackendChurnMmap)->Arg(4)->Arg(64);
BENCHMARK(BM_BackendChurnLog)->Arg(4)->Arg(64);

// One log medium (ckpt/log_backend.hpp) without a store over it: a put,
// then the collect of the oldest of 8 live checkpoints, with compaction out
// of reach — the record mix RDT-LGC's steady state appends through the
// mapped tail.  Arg is the DV width; an iteration appends one record, so
// the time is per record.  Every 64Ki records the log restarts fresh
// (timing paused), which keeps the file small.
void BM_LogTailAppend(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const std::string path = bench::scratch_dir("tail") + "/p0_s0.log";
  constexpr CheckpointIndex kLive = 8;
  constexpr std::int64_t kRecordsPerLog = std::int64_t{1} << 16;
  const causality::DependencyVector dv(width);
  std::unique_ptr<ckpt::LogStructuredBackend> log;
  CheckpointIndex next = 0;
  CheckpointIndex oldest = 0;
  std::int64_t appended = kRecordsPerLog;
  for (auto _ : state) {
    if (appended == kRecordsPerLog) {
      state.PauseTiming();
      log.reset();
      log = std::make_unique<ckpt::LogStructuredBackend>(
          0, path, ckpt::OpenMode::kFresh, std::size_t{1} << 30, 0.5);
      next = oldest = 0;
      appended = 0;
      state.ResumeTiming();
    }
    if (next - oldest < kLive) {
      log->put(next++, dv, 0, 1);
    } else {
      log->collect(oldest++);
    }
    ++appended;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogTailAppend)->Arg(16)->Arg(64);

// ---- Durability-pipeline families ----------------------------------------
//
// What group commit buys on the persistent hot path.  The same sliding-
// window churn shape as BM_BackendChurn at DV width 64, with a live window
// of 128.  The durability policy is the swept dimension:
//  * BM_GroupCommit{Log,Mmap} — Arg is every_k: 0 is the synchronous
//    baseline the pipeline replaces — kSync write-through plus a
//    durability point (flush: fsync/msync) after EVERY op, i.e. "durable
//    when acknowledged" paid inline; k >= 1 batches k ops into one
//    durability point.  The /0 vs /16
//    ratio is the headline per-op saving of the pipeline.  These families
//    block on media, so wall clock (UseRealTime) is the figure of merit —
//    cpu_time would hide exactly the wait the pipeline removes;
//  * BM_DurabilityLag — one probe sweep (metrics/durability_lag.hpp) over a
//    fleet of Arg pipelined nodes: the observability tax per sample.

ckpt::StorageConfig durability_config(ckpt::StorageBackendKind kind,
                                      ckpt::DurabilityPolicy policy) {
  ckpt::StorageConfig config = backend_config(kind);
  config.durability = policy;
  return config;
}

void BM_DurabilityChurn(benchmark::State& state,
                        ckpt::StorageBackendKind kind,
                        ckpt::DurabilityPolicy policy) {
  // kSync alone is write-through without durability points; the honest
  // synchronous baseline flushes after every op so each one is durable
  // when it returns — the blocking cost group commit amortizes.
  const bool flush_per_op = policy.mode == ckpt::DurabilityMode::kSync;
  ckpt::ShardedCheckpointStore store(
      0, ckpt::ShardedCheckpointStore::kDefaultShardCount,
      ckpt::StoreConcurrency::kUnsynchronized, durability_config(kind, policy));
  causality::DependencyVector dv(64);
  CheckpointIndex next = 0;
  constexpr CheckpointIndex window = 128;  // live set, 2x the widest every_k
  for (; next < window; ++next) store.put(next, dv, 0, 1);
  for (CheckpointIndex g = 0; g < window / 2; ++g) store.collect(g);
  store.flush();  // start every policy from a quiesced medium
  for (auto _ : state) {
    for (int k = 0; k < kChurnBatch; ++k) {
      store.put(next, dv, 0, 1);
      if (flush_per_op) store.flush();
      store.collect(next - window / 2);
      if (flush_per_op) store.flush();
      ++next;
    }
  }
  state.SetItemsProcessed(state.iterations() * kChurnBatch);
}

ckpt::DurabilityPolicy group_commit_arg(std::int64_t every_k) {
  return every_k == 0
             ? ckpt::DurabilityPolicy::Sync()
             : ckpt::DurabilityPolicy::GroupCommit(
                   static_cast<std::size_t>(every_k));
}
void BM_GroupCommitLog(benchmark::State& state) {
  BM_DurabilityChurn(state, ckpt::StorageBackendKind::kLogStructured,
                     group_commit_arg(state.range(0)));
}
void BM_GroupCommitMmap(benchmark::State& state) {
  BM_DurabilityChurn(state, ckpt::StorageBackendKind::kMmapFile,
                     group_commit_arg(state.range(0)));
}
BENCHMARK(BM_GroupCommitLog)->Arg(0)->Arg(4)->Arg(16)->Arg(64)->UseRealTime();
BENCHMARK(BM_GroupCommitMmap)->Arg(0)->Arg(4)->Arg(16)->Arg(64)->UseRealTime();

void BM_DurabilityLag(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = n;
  config.gc = harness::GcChoice::kRdtLgc;
  config.node.storage =
      durability_config(ckpt::StorageBackendKind::kLogStructured,
                        ckpt::DurabilityPolicy::GroupCommit(32));
  harness::System system(config);
  workload::WorkloadConfig wl;
  wl.seed = 11;
  workload::WorkloadDriver driver(system.simulator(), system.node_provider(),
                                  n, wl);
  driver.start(1500);
  system.simulator().run();
  metrics::DurabilityLag lag(system.simulator(),
                             std::as_const(system).node_ptrs());
  for (auto _ : state) {
    lag.sample();
    benchmark::DoNotOptimize(lag.peak_lag_ops());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DurabilityLag)->Arg(4)->Arg(16);

// Reopen-from-disk cost: Arg live checkpoints survive (after a churn that
// also left an equal measure of dead records/slots on the medium, as a real
// GC would); each iteration attaches to the media and runs the full
// recover() rebuild — the storage half of an Algorithm-3 restart.
void BM_RollbackRecover(benchmark::State& state,
                        ckpt::StorageBackendKind kind) {
  const auto live = static_cast<CheckpointIndex>(state.range(0));
  ckpt::StorageConfig config = backend_config(kind);
  {
    ckpt::ShardedCheckpointStore store(
        0, ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, config);
    causality::DependencyVector dv(8);
    for (CheckpointIndex i = 0; i < 2 * live; ++i) store.put(i, dv, 0, 1);
    for (CheckpointIndex g = 0; g < live; ++g) store.collect(g);
    store.flush();
  }
  config.open_mode = ckpt::OpenMode::kAttach;
  for (auto _ : state) {
    ckpt::ShardedCheckpointStore store(
        0, ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, config);
    benchmark::DoNotOptimize(store.recover());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(live));
}
void BM_RollbackRecoverMmap(benchmark::State& state) {
  BM_RollbackRecover(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_RollbackRecoverLog(benchmark::State& state) {
  BM_RollbackRecover(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_RollbackRecoverMmap)->Arg(64)->Arg(512);
BENCHMARK(BM_RollbackRecoverLog)->Arg(64)->Arg(512);

// ---- Warm-restart families ------------------------------------------------
//
// The middleware half on top of BM_RollbackRecover: a whole ckpt::Node dies
// and its replacement attaches to the same media (OpenMode::kAttach through
// harness::System::restart_node).  BM_NodeAttach isolates the attach itself
// — store recover, per-checkpoint certification against the recorder, UC
// rebuild — scaled by Arg surviving checkpoints (GC off, no messages).
// BM_ChurnRestart prices one full kill/reopen/rejoin churn cycle under
// FDAS + RDT-LGC with a real communication history: restart plus the
// recovery session that rejoins the fleet.

void BM_NodeAttach(benchmark::State& state, ckpt::StorageBackendKind kind) {
  const auto live = static_cast<std::int64_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = 2;
  config.gc = harness::GcChoice::kNone;  // every checkpoint survives
  config.node.storage = backend_config(kind);
  harness::System system(config);
  for (std::int64_t k = 1; k < live; ++k) {
    system.simulator().run_until(system.simulator().now() + 1);
    system.node(0).take_basic_checkpoint();
  }
  for (auto _ : state) {
    system.restart_node(0);
    benchmark::DoNotOptimize(system.node(0).current_interval());
  }
  state.SetItemsProcessed(state.iterations() * live);
}
void BM_NodeAttachMmap(benchmark::State& state) {
  BM_NodeAttach(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_NodeAttachLog(benchmark::State& state) {
  BM_NodeAttach(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_NodeAttachMmap)->Arg(16)->Arg(128);
BENCHMARK(BM_NodeAttachLog)->Arg(16)->Arg(128);

void BM_ChurnRestart(benchmark::State& state,
                     ckpt::StorageBackendKind kind) {
  constexpr std::size_t kProcesses = 4;
  harness::SystemConfig config;
  config.process_count = kProcesses;
  config.gc = harness::GcChoice::kRdtLgc;
  config.node.storage = backend_config(kind);
  harness::System system(config);
  workload::WorkloadConfig wl;
  wl.seed = 5;
  workload::WorkloadDriver driver(system.simulator(), system.node_provider(),
                                  kProcesses, wl);
  driver.start(2000);
  system.simulator().run();
  recovery::RecoveryManager manager(system.simulator(), system.network(),
                                    system.recorder(),
                                    system.node_provider(), {});
  ProcessId p = 0;
  for (auto _ : state) {
    system.restart_node(p);
    const auto outcome = manager.recover({p});
    benchmark::DoNotOptimize(outcome.line.data());
    p = static_cast<ProcessId>((p + 1) % kProcesses);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_ChurnRestartMmap(benchmark::State& state) {
  BM_ChurnRestart(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_ChurnRestartLog(benchmark::State& state) {
  BM_ChurnRestart(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_ChurnRestartMmap);
BENCHMARK(BM_ChurnRestartLog);

void rollback_setup(std::size_t n, ckpt::ShardedCheckpointStore& store,
                    core::RdtLgc& lgc) {
  lgc.initialize(0, n, store);
  for (std::size_t k = 0; k < n; ++k) {
    causality::DependencyVector dv(n);
    // dv[f] jumps from 0 to 2 after index f: each peer pins a distinct
    // checkpoint, the worst case for the rebuild.
    for (ProcessId f = 1; f < static_cast<ProcessId>(n); ++f)
      dv.at(f) = (static_cast<ProcessId>(k) > f) ? 2 : 0;
    store.put(ckpt::StoredCheckpoint{static_cast<CheckpointIndex>(k), dv, 0, 1});
    lgc.on_checkpoint_stored(static_cast<CheckpointIndex>(k));
    // A fresh dependency from a distinct peer pins this checkpoint, so the
    // store keeps all n checkpoints (the Figure-5 worst case).
    if (k + 1 < n) lgc.on_new_dependency(static_cast<ProcessId>(k + 1));
  }
}

void BM_RollbackRebuild(benchmark::State& state, core::RdtLgc::RollbackSearch
                                                     search) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ckpt::ShardedCheckpointStore store(0);
  core::RdtLgc lgc(search);
  rollback_setup(n, store, lgc);
  causality::DependencyVector dv(n);
  for (ProcessId f = 0; f < static_cast<ProcessId>(n); ++f) dv.at(f) = 1;
  const ckpt::RollbackInfo info{static_cast<CheckpointIndex>(n - 1),
                                std::nullopt};
  lgc.on_rollback(info, dv);  // warm-up: reach the steady pinned state
  for (auto _ : state) lgc.on_rollback(info, dv);
  state.SetItemsProcessed(state.iterations());
}
void BM_RollbackBinary(benchmark::State& state) {
  BM_RollbackRebuild(state, core::RdtLgc::RollbackSearch::kBinary);
}
void BM_RollbackLinear(benchmark::State& state) {
  BM_RollbackRebuild(state, core::RdtLgc::RollbackSearch::kLinear);
}
BENCHMARK(BM_RollbackBinary)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_RollbackLinear)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

/// One recorded history shared by the analysis benchmarks.
const harness::System& recorded_run() {
  static harness::System* system = [] {
    auto* s = new harness::System([] {
      harness::SystemConfig config;
      config.process_count = 8;
      config.gc = harness::GcChoice::kNone;
      return config;
    }());
    workload::WorkloadConfig wl;
    workload::WorkloadDriver driver(s->simulator(), s->node_ptrs(), wl);
    driver.start(4000);
    s->simulator().run();
    return s;
  }();
  return *system;
}

void BM_ZigzagAnalysisBuild(benchmark::State& state) {
  const auto& system = recorded_run();
  for (auto _ : state) {
    ccp::ZigzagAnalysis zigzag(system.recorder());
    benchmark::DoNotOptimize(zigzag.node_count());
  }
}
BENCHMARK(BM_ZigzagAnalysisBuild);

void BM_CausalGraphBuild(benchmark::State& state) {
  const auto& system = recorded_run();
  for (auto _ : state) {
    ccp::CausalGraph causal(system.recorder());
    benchmark::DoNotOptimize(&causal);
  }
}
BENCHMARK(BM_CausalGraphBuild);

void BM_RecoveryLineLemma1(benchmark::State& state) {
  const auto& system = recorded_run();
  const ccp::DvPrecedence causal(system.recorder());
  std::vector<bool> faulty(8, false);
  faulty[3] = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ccp::recovery_line_lemma1(system.recorder(), causal, faulty));
}
BENCHMARK(BM_RecoveryLineLemma1);

void BM_Theorem1Characterization(benchmark::State& state) {
  const auto& system = recorded_run();
  const ccp::DvPrecedence causal(system.recorder());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ccp::obsolete_theorem1(system.recorder(), causal));
}
BENCHMARK(BM_Theorem1Characterization);

// ---- FleetRunner thread scaling ------------------------------------------
//
// A 32-seed sweep of a small RDT-LGC simulation (the determinism-test
// workload) across 1/2/4/8 workers.  Wall-clock (UseRealTime) is the figure
// of merit: the sweep is embarrassingly parallel, so on a k-core host the
// 8-worker family should approach min(k, 8)x the 1-worker family.  The pool
// is built once per family; each iteration dispatches one whole batch, so
// batch setup/teardown (queue dealing, wakeup, join) is charged to the
// measurement exactly as a driver pays it.
void BM_FleetRunner(benchmark::State& state) {
  harness::FleetRunner fleet(
      {.workers = static_cast<std::size_t>(state.range(0))});
  const std::vector<std::uint64_t> seeds = harness::seed_range(100, 32);
  const auto body = [](std::uint64_t seed,
                       harness::WorkerContext&) -> harness::SweepRun {
    harness::SystemConfig config;
    config.process_count = 4;
    config.gc = harness::GcChoice::kRdtLgc;
    config.seed = seed;
    harness::System system(config);
    workload::WorkloadConfig wl;
    wl.seed = seed * 31 + 7;
    workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(),
                                    wl);
    driver.start(1500);
    metrics::StorageProbe probe(system.simulator(),
                                std::as_const(system).node_ptrs());
    probe.start(25, 1500);
    system.simulator().run();
    harness::SweepRun run;
    run.storage = probe.global_series().stat();
    run.final_storage = static_cast<double>(system.total_stored());
    run.collected = system.total_collected();
    return run;
  };
  for (auto _ : state) {
    const std::vector<harness::SweepRun> runs =
        harness::run_seed_sweep(fleet, seeds, body);
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_FleetRunner)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

// ---- Fleet start-up families ----------------------------------------------
//
// A real transport::ProcFleet over mmap media: BM_FleetStart/4 is start()
// (listener, 4 worker spawns, their Hellos) plus shutdown() (final States,
// reaping); BM_FleetKillRestart is one quiesced kill_and_restart in a live
// 4-worker fleet with no traffic in between (Quiesce, SIGKILL, spawn,
// re-attach from the media, Hello), which is the restart a failed process
// pays before any recovery session.  Wall-clock: the work happens in the
// workers and the kernel, not in this thread.  The worker binary is the
// rdtgc_proc built beside this one; media live under TMPDIR.

transport::FleetConfig fleet_bench_config(std::size_t n) {
  transport::FleetConfig config;
  config.process_count = n;
  config.scratch_dir = bench::scratch_dir("fleet");
  config.worker_binary = TABD_PROC_BIN;
  return config;
}

void BM_FleetStart(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    const transport::FleetConfig config = fleet_bench_config(n);
    state.ResumeTiming();
    {
      transport::ProcFleet fleet(config);
      if (!fleet.start() || !fleet.shutdown()) {
        state.SkipWithError(fleet.error().c_str());
        break;
      }
    }
    state.PauseTiming();
    std::filesystem::remove_all(config.scratch_dir);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FleetStart)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_FleetKillRestart(benchmark::State& state) {
  constexpr std::size_t kProcesses = 4;
  transport::ProcFleet fleet(fleet_bench_config(kProcesses));
  if (!fleet.start()) {
    state.SkipWithError(fleet.error().c_str());
    return;
  }
  ProcessId p = 0;
  for (auto _ : state) {
    if (!fleet.kill_and_restart(p)) break;
    p = static_cast<ProcessId>((p + 1) % kProcesses);
  }
  if (!fleet.error().empty() || !fleet.shutdown())
    state.SkipWithError(fleet.error().c_str());
}
BENCHMARK(BM_FleetKillRestart)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

// main() is supplied by benchmark::benchmark_main (see bench/CMakeLists.txt).
