#include "harness/sweep.hpp"

#include <atomic>
#include <mutex>

#include "util/check.hpp"

namespace rdtgc::harness {

namespace {

/// Shared fan-out shape of the sweep entry points: run one body per job
/// into job-indexed slots, with optional serialized progress/cancellation.
template <typename RunJob>
std::vector<SweepRun> run_jobs(FleetRunner& fleet, std::size_t total,
                               const RunJob& run_job,
                               const SweepProgress& progress) {
  std::vector<SweepRun> runs(total);
  std::atomic<bool> cancelled{false};
  std::atomic<std::size_t> completed{0};
  std::mutex progress_lock;
  fleet.run(total, [&](std::size_t job, WorkerContext& worker) {
    // Job-indexed slot: no result ever crosses between jobs, so the only
    // thing scheduling can change is timing.
    if (!cancelled.load(std::memory_order_acquire)) {
      runs[job] = run_job(job, worker);
      if (progress != nullptr) {
        const std::size_t done =
            completed.fetch_add(1, std::memory_order_acq_rel) + 1;
        const std::lock_guard<std::mutex> serialized(progress_lock);
        if (cancelled.load(std::memory_order_acquire) || !progress(done, total))
          cancelled.store(true, std::memory_order_release);
      }
    }
  });
  return runs;
}

}  // namespace

std::vector<SweepRun> run_seed_sweep(FleetRunner& fleet,
                                     const std::vector<std::uint64_t>& seeds,
                                     const SweepBody& body) {
  return run_seed_sweep(fleet, seeds, body, nullptr);
}

std::vector<SweepRun> run_seed_sweep(FleetRunner& fleet,
                                     const std::vector<std::uint64_t>& seeds,
                                     const SweepBody& body,
                                     const SweepProgress& progress) {
  RDTGC_EXPECTS(body != nullptr);
  auto runs = run_jobs(
      fleet, seeds.size(),
      [&](std::size_t job, WorkerContext& worker) {
        SweepRun run = body(seeds[job], worker);
        run.seed = seeds[job];
        return run;
      },
      progress);
  // Cancelled slots still carry their seed, so callers can tell them apart.
  for (std::size_t job = 0; job < runs.size(); ++job)
    runs[job].seed = seeds[job];
  return runs;
}

std::vector<SweepRun> run_churn_sweep(FleetRunner& fleet,
                                      const std::vector<ChurnPoint>& points,
                                      const ChurnBody& body,
                                      const SweepProgress& progress) {
  RDTGC_EXPECTS(body != nullptr);
  auto runs = run_jobs(
      fleet, points.size(),
      [&](std::size_t job, WorkerContext& worker) {
        SweepRun run = body(points[job], worker);
        run.seed = points[job].seed;
        return run;
      },
      progress);
  for (std::size_t job = 0; job < runs.size(); ++job)
    runs[job].seed = points[job].seed;
  return runs;
}

std::vector<ChurnPoint> churn_grid(const std::vector<std::uint64_t>& seeds,
                                   const std::vector<SimTime>& mean_intervals,
                                   double restart_prob) {
  RDTGC_EXPECTS(restart_prob >= 0.0 && restart_prob <= 1.0);
  std::vector<ChurnPoint> grid;
  grid.reserve(seeds.size() * mean_intervals.size());
  for (const SimTime interval : mean_intervals) {
    RDTGC_EXPECTS(interval >= 1);
    for (const std::uint64_t seed : seeds) {
      ChurnPoint point;
      point.seed = seed;
      point.mean_interval = interval;
      point.restart_prob = restart_prob;
      grid.push_back(point);
    }
  }
  return grid;
}

SweepSummary summarize_sweep(const std::vector<SweepRun>& runs) {
  SweepSummary summary;
  for (const SweepRun& run : runs) {
    summary.storage.merge(run.storage);
    summary.final_storage.add(run.final_storage);
    summary.collected.add(static_cast<double>(run.collected));
    summary.control_messages.add(static_cast<double>(run.control_messages));
    summary.forced_checkpoints.add(
        static_cast<double>(run.forced_checkpoints));
    summary.durability_lag.merge(run.durability_lag);
    summary.peak_durability_lag.add(run.peak_durability_lag);
    ++summary.runs;
  }
  return summary;
}

std::vector<std::uint64_t> seed_range(std::uint64_t base, std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t k = 0; k < count; ++k) seeds[k] = base + k;
  return seeds;
}

}  // namespace rdtgc::harness
