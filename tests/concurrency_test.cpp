// Concurrency tests: the fleet runner's scheduling/determinism contracts.
//
// Two kinds of assertions live here:
//  * logical — counters, final states, and sweep figures must come out
//    exactly right regardless of interleaving;
//  * freedom from data races — every test is also a ThreadSanitizer probe:
//    the `tsan` CMake preset builds this binary with -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "harness/fleet.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "metrics/storage_probe.hpp"
#include "workload/workload.hpp"

namespace rdtgc {
namespace {

// ---- FleetRunner scheduling contracts ------------------------------------

TEST(FleetRunner, RunsEveryJobExactlyOnce) {
  harness::FleetRunner fleet({.workers = 4});
  constexpr std::size_t kJobs = 300;
  std::vector<std::atomic<int>> executed(kJobs);
  fleet.run(kJobs, [&](std::size_t job, harness::WorkerContext&) {
    executed[job].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t j = 0; j < kJobs; ++j)
    ASSERT_EQ(executed[j].load(), 1) << "job " << j;
  const harness::FleetRunner::Stats stats = fleet.stats();
  EXPECT_EQ(stats.jobs, kJobs);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(FleetRunner, ReusableAcrossBatchesAndEmptyBatchIsFine) {
  harness::FleetRunner fleet({.workers = 2});
  std::atomic<int> total{0};
  fleet.run(0, [&](std::size_t, harness::WorkerContext&) { ++total; });
  fleet.run(10, [&](std::size_t, harness::WorkerContext&) { ++total; });
  fleet.run(10, [&](std::size_t, harness::WorkerContext&) { ++total; });
  EXPECT_EQ(total.load(), 20);
  EXPECT_EQ(fleet.stats().batches, 3u);
  EXPECT_EQ(fleet.stats().jobs, 20u);
}

TEST(FleetRunner, UnevenJobsGetStolen) {
  // Worker 0's queue gets jobs 0,2,4,... under round-robin dealing; make
  // worker 0's first job long so the other worker must steal to finish.
  harness::FleetRunner fleet({.workers = 2});
  constexpr std::size_t kJobs = 64;
  std::atomic<int> done{0};
  fleet.run(kJobs, [&](std::size_t job, harness::WorkerContext&) {
    if (job == 0) {
      // Busy-wait until nearly everything else finished: the only way the
      // batch completes in bounded time is the other worker draining both
      // queues.
      while (done.load(std::memory_order_acquire) <
             static_cast<int>(kJobs) - 1)
        std::this_thread::yield();
    }
    done.fetch_add(1, std::memory_order_acq_rel);
  });
  EXPECT_EQ(done.load(), static_cast<int>(kJobs));
  EXPECT_GT(fleet.stats().steals, 0u);
}

TEST(FleetRunner, FirstJobExceptionPropagatesAfterBatchCompletes) {
  harness::FleetRunner fleet({.workers = 3});
  std::atomic<int> executed{0};
  EXPECT_THROW(
      fleet.run(50,
                [&](std::size_t job, harness::WorkerContext&) {
                  ++executed;
                  if (job == 7) throw std::runtime_error("job 7 failed");
                }),
      std::runtime_error);
  // The batch still ran to completion (remaining jobs are not abandoned).
  EXPECT_EQ(executed.load(), 50);
  // The pool survives the throw.
  fleet.run(5, [&](std::size_t, harness::WorkerContext&) { ++executed; });
  EXPECT_EQ(executed.load(), 55);
}

TEST(FleetRunner, WorkerContextsAreDistinctAndReused) {
  harness::FleetRunner fleet({.workers = 3});
  std::vector<std::atomic<std::uint64_t>> touched(3);
  fleet.run(30, [&](std::size_t, harness::WorkerContext& worker) {
    ASSERT_LT(worker.worker_id, 3u);
    worker.scratch.push_back(worker.worker_id);
    touched[worker.worker_id].fetch_add(1, std::memory_order_relaxed);
  });
  std::uint64_t total = 0;
  for (auto& t : touched) total += t.load();
  EXPECT_EQ(total, 30u);
}

// ---- Sweep determinism: serial vs parallel -------------------------------

harness::SweepRun simulate_one(std::uint64_t seed) {
  // A complete miniature experiment: RDT-LGC under a randomized workload,
  // with a storage probe — everything a Table-B cell computes.
  harness::SystemConfig config;
  config.process_count = 4;
  config.gc = harness::GcChoice::kRdtLgc;
  config.seed = seed;
  harness::System system(config);
  workload::WorkloadConfig wl;
  wl.seed = seed * 31 + 7;
  workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(), wl);
  driver.start(1500);
  metrics::StorageProbe probe(system.simulator(),
                              std::as_const(system).node_ptrs());
  probe.start(25, 1500);
  system.simulator().run();

  harness::SweepRun run;
  run.storage = probe.global_series().stat();
  run.final_storage = static_cast<double>(system.total_stored());
  run.collected = system.total_collected();
  for (ProcessId p = 0; p < 4; ++p)
    run.forced_checkpoints += system.node(p).counters().forced_checkpoints;
  return run;
}

TEST(FleetDeterminism, SerialAndParallelSweepsProduceIdenticalFigures) {
  const std::vector<std::uint64_t> seeds = harness::seed_range(100, 16);
  const auto body = [](std::uint64_t seed, harness::WorkerContext&) {
    return simulate_one(seed);
  };

  harness::FleetRunner serial({.workers = 1});
  harness::FleetRunner parallel({.workers = 4});
  const std::vector<harness::SweepRun> a =
      harness::run_seed_sweep(serial, seeds, body);
  const std::vector<harness::SweepRun> b =
      harness::run_seed_sweep(parallel, seeds, body);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    // Bit-for-bit: the simulations are deterministic and the fleet may only
    // change where a job ran, nothing about what it computed.
    ASSERT_EQ(a[k].seed, b[k].seed);
    ASSERT_EQ(a[k].final_storage, b[k].final_storage) << "seed " << a[k].seed;
    ASSERT_EQ(a[k].collected, b[k].collected) << "seed " << a[k].seed;
    ASSERT_EQ(a[k].forced_checkpoints, b[k].forced_checkpoints);
    ASSERT_EQ(a[k].storage.count(), b[k].storage.count());
    ASSERT_EQ(a[k].storage.mean(), b[k].storage.mean());
    ASSERT_EQ(a[k].storage.variance(), b[k].storage.variance());
  }

  // And therefore the order-folded aggregates agree exactly too.
  const harness::SweepSummary sa = harness::summarize_sweep(a);
  const harness::SweepSummary sb = harness::summarize_sweep(b);
  EXPECT_EQ(sa.storage.mean(), sb.storage.mean());
  EXPECT_EQ(sa.storage.variance(), sb.storage.variance());
  EXPECT_EQ(sa.final_storage.mean(), sb.final_storage.mean());
  EXPECT_EQ(sa.collected.mean(), sb.collected.mean());
  EXPECT_EQ(sa.runs, sb.runs);
}

}  // namespace
}  // namespace rdtgc
