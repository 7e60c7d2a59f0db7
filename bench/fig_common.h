// Shared driver for the performance figures (Figs 4-7): run a workload set
// under a baseline hypervisor configuration and one or more variants, print
// per-workload normalized overhead with 95% CIs and the geometric mean.
#ifndef SILOZ_BENCH_FIG_COMMON_H_
#define SILOZ_BENCH_FIG_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/addr/platform.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/workload/workloads.h"

namespace siloz {
namespace bench {

struct VariantSpec {
  std::string label;
  SilozConfig config;
};

// Returns the header geometry for `platform` ("" or unknown = the Table 2
// Skylake default; RunFigure rejects unknown names with a real error).
inline DramGeometry PlatformHeaderGeometry(const std::string& platform) {
  const PlatformInfo* info = platform.empty() ? nullptr : FindPlatform(platform);
  return info != nullptr ? info->geometry : DramGeometry{};
}

// Resolves the --threads flag for a figure run, exactly once. The resolved
// value must be what RunFigure prints, labels telemetry with, AND passes to
// RunWorkloadGrid — resolving independently at each layer let the banner and
// the pool's actual worker_count() disagree whenever $SILOZ_THREADS changed
// between the two reads (fig_threads_test.cc pins reported == actual).
inline uint32_t FigureThreads(uint32_t flag) { return ResolveThreads(flag); }

// Runs every workload under `baseline` and each variant; prints one
// overhead table per variant (normalized to baseline) and geometric means.
// With SILOZ_RESULTS_DIR set, also appends CSV rows per (variant, workload).
// Returns false if any run failed.
//
// `platform` non-empty selects a registry platform (PlatformFromArgs):
// every grid point gets the platform's geometry, decoder family, and
// DDR-generation semantics, with each variant keeping its own subarray-size
// choice — the channel/bank/DIMM topology the engine shards over is derived
// from the platform, never assumed to be the Skylake constants.
//
// The whole (variant x workload x trial) space runs flattened on one
// work-stealing pool — every grid cell's trials are independent tasks, not a
// nested serial loop (`threads` as in RunnerConfig::threads; 0 = auto).
// Tables on stdout are byte-identical for every thread count; the grid's
// scheduler/timing metrics go to stderr so diffs of the tables stay clean.
inline bool RunFigure(const std::vector<WorkloadSpec>& workloads, const VariantSpec& baseline,
                      const std::vector<VariantSpec>& variants, uint32_t trials,
                      uint64_t seed, const char* experiment, uint32_t threads,
                      uint32_t channels_per_shard, const std::string& platform,
                      uint32_t bank_groups_per_queue) {
  RunnerConfig runner;
  runner.trials = trials;
  runner.seed = seed;
  runner.channels_per_shard = channels_per_shard;
  runner.bank_groups_per_queue = bank_groups_per_queue;

  // The resolved worker count, up front on stderr: --threads 0 means
  // auto-detect ($SILOZ_THREADS, else the hardware concurrency), and the
  // figure's wall-clock depends on what that resolves to even though the
  // stdout tables never do. Resolved ONCE here; the same value is forwarded
  // to RunWorkloadGrid below, so the banner can never disagree with the
  // pool's actual worker count.
  const uint32_t resolved_threads = FigureThreads(threads);
  std::fprintf(stderr,
               "%s: %u worker threads (--threads %u%s), --channels-per-shard %u, "
               "--bank-groups-per-queue %u\n",
               experiment, resolved_threads, threads,
               threads == 0 ? " = auto" : "", channels_per_shard, bank_groups_per_queue);

  // Grid of (variant, workload) points, baseline first, workload-major per
  // variant — the same order the serial loops used.
  std::vector<std::string> labels;
  labels.push_back(baseline.label);
  for (const VariantSpec& variant : variants) {
    labels.push_back(variant.label);
  }
  std::vector<GridPoint> points;
  for (size_t v = 0; v < variants.size() + 1; ++v) {
    runner.hypervisor = (v == 0) ? baseline.config : variants[v - 1].config;
    if (!platform.empty()) {
      const Status applied =
          ApplyPlatform(runner, platform, runner.hypervisor.rows_per_subarray);
      if (!applied.ok()) {
        std::fprintf(stderr, "--platform %s: %s\n", platform.c_str(),
                     applied.error().ToString().c_str());
        return false;
      }
    }
    for (const WorkloadSpec& workload : workloads) {
      points.push_back(GridPoint{runner, workload});
    }
  }
  PoolPhaseMetrics grid_metrics;
  Result<std::vector<RunMeasurement>> grid =
      RunWorkloadGrid(points, resolved_threads, &grid_metrics);
  if (!grid.ok()) {
    std::fprintf(stderr, "figure grid failed: %s\n", grid.error().ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "%s\n", grid_metrics.ToText().c_str());

  // Host throughput of the run, on stderr with the rest of the scheduler
  // telemetry (stdout tables stay byte-identical). Counted in the sched
  // domain: wall-clock facts, legitimately variable run to run, excluded
  // from the determinism diffs.
  uint64_t simulated_requests = 0;
  for (const GridPoint& point : points) {
    simulated_requests += static_cast<uint64_t>(point.config.trials) * point.workload.accesses;
  }
  obs::Registry::Global()
      .GetCounter("bench.simulated_requests", obs::Domain::kSched)
      .Add(simulated_requests);
  const double wall_s = grid_metrics.wall_ms / 1000.0;
  std::fprintf(stderr, "%s: %llu simulated requests in %.2f s wall (%.2f Mreq/s)\n",
               experiment, static_cast<unsigned long long>(simulated_requests), wall_s,
               wall_s > 0.0 ? static_cast<double>(simulated_requests) / wall_s / 1e6 : 0.0);

  // Per-shard throughput telemetry (sharded engine only): requests served by
  // each channel shard, summed over the whole grid in shard-plan order, and
  // the host-side rate that shard sustained. Sched-domain facts, so stderr —
  // the stdout tables stay byte-identical across thread counts and hosts.
  if (channels_per_shard >= 1) {
    std::vector<uint64_t> shard_totals;
    for (const RunMeasurement& measurement : *grid) {
      if (measurement.shard_requests.empty()) {
        continue;
      }
      if (shard_totals.empty()) {
        shard_totals.assign(measurement.shard_requests.size(), 0);
      }
      for (size_t shard = 0; shard < measurement.shard_requests.size(); ++shard) {
        shard_totals[shard] += measurement.shard_requests[shard];
      }
    }
    for (size_t shard = 0; shard < shard_totals.size(); ++shard) {
      obs::Registry::Global()
          .GetCounter("bench.shard" + std::to_string(shard) + ".requests",
                      obs::Domain::kSched)
          .Add(shard_totals[shard]);
      std::fprintf(stderr, "%s: shard%zu served %llu requests (%.2f Mreq/s)\n", experiment,
                   shard, static_cast<unsigned long long>(shard_totals[shard]),
                   wall_s > 0.0 ? static_cast<double>(shard_totals[shard]) / wall_s / 1e6
                                : 0.0);
    }
  }

  // Re-shape into per-variant rows, variant-major as the tables expect.
  std::vector<std::vector<RunMeasurement>> measurements(variants.size() + 1);
  for (size_t v = 0; v < variants.size() + 1; ++v) {
    for (size_t w = 0; w < workloads.size(); ++w) {
      measurements[v].push_back(std::move((*grid)[v * workloads.size() + w]));
    }
  }
  std::printf("\n");

  const bool throughput = workloads[0].metric == MetricKind::kThroughput;
  for (size_t v = 1; v <= variants.size(); ++v) {
    std::printf("%s-normalized %s for %s (positive = overhead; error bars 95%% CI):\n",
                baseline.label.c_str(), throughput ? "throughput loss" : "execution time",
                labels[v].c_str());
    std::vector<OverheadRow> rows;
    std::vector<double> ratios;
    for (size_t w = 0; w < workloads.size(); ++w) {
      const RunningStat& base_stat = throughput ? measurements[0][w].bandwidth_gibs
                                                : measurements[0][w].elapsed_ns;
      const RunningStat& var_stat =
          throughput ? measurements[v][w].bandwidth_gibs : measurements[v][w].elapsed_ns;
      rows.push_back(Normalize(workloads[w].name, base_stat, var_stat, throughput));
      ratios.push_back(1.0 + rows.back().mean_pct / 100.0);
    }
    OverheadRow geomean;
    geomean.name = "geomean";
    geomean.mean_pct = (GeometricMean(ratios) - 1.0) * 100.0;
    rows.push_back(geomean);
    PrintOverheadTable(throughput ? "tput loss" : "time ovh", rows);
    CsvReporter csv(experiment);
    for (size_t w = 0; w < workloads.size(); ++w) {
      (void)csv.Append({"variant", "workload", "overhead_pct", "ci95_pct"},
                       {labels[v], workloads[w].name, CsvNumber(rows[w].mean_pct),
                        CsvNumber(rows[w].ci_pct)});
    }
    std::printf("geomean |%s overhead| = %.3f%% — paper reports within +/-0.5%%\n\n",
                labels[v].c_str(), std::abs(geomean.mean_pct));
  }
  return true;
}

inline SilozConfig BaselineKernel() {
  SilozConfig config;
  config.enabled = false;
  return config;
}

inline SilozConfig SilozKernel(uint32_t rows_per_subarray = 1024) {
  SilozConfig config;
  config.rows_per_subarray = rows_per_subarray;
  return config;
}

}  // namespace bench
}  // namespace siloz

#endif  // SILOZ_BENCH_FIG_COMMON_H_
