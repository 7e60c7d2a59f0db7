// Shared output helpers for the experiment benches.
//
// Every bench prints: the Table 2 platform header, then the rows/series of
// the paper artifact it regenerates, in a fixed-width table so runs can be
// diffed. Overheads are reported as mean % with 95% CI half-widths, matching
// the error bars of Figs 4-7.
#ifndef SILOZ_BENCH_BENCH_UTIL_H_
#define SILOZ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/base/parse.h"
#include "src/base/stats.h"
#include "src/base/thread_pool.h"
#include "src/dram/geometry.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz {
namespace bench {

// Largest value any integer bench knob accepts (the pool's own ceiling).
inline constexpr uint32_t kMaxKnobValue = kMaxThreads;

// Parses `flag N` as a plain decimal in [min, kMaxKnobValue]; `fallback`
// when the flag is absent. Signs, spaces, trailing characters, a missing
// value or an out-of-range number print usage to stderr and exit 2: nothing
// reaches stdout, so no half-printed table, and the value never reaches a
// pool or the model (`--threads -1` used to size a pool from strtoul's
// ULONG_MAX).
inline uint32_t UintFromArgs(int argc, char** argv, const char* flag, uint32_t fallback,
                             uint32_t min = 0) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) {
      continue;
    }
    const char* text = i + 1 < argc ? argv[i + 1] : "";
    const std::optional<uint64_t> value = ParseUint(text, 10, kMaxKnobValue);
    if (!value || *value < min) {
      std::fprintf(stderr, "%s: %s expects an integer in [%u, %u], got '%s'\n", argv[0], flag,
                   min, kMaxKnobValue, text);
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--channels-per-shard N] [--bank-groups-per-queue N]\n"
                   "          [--platform NAME] [--metrics-out FILE] [--trace-out FILE]\n",
                   argv[0]);
      std::exit(2);
    }
    return static_cast<uint32_t>(*value);
  }
  return fallback;
}

// Parses the shared `--threads N` bench knob: 0 (the default) resolves to
// $SILOZ_THREADS or the hardware concurrency inside the pool; 1 forces the
// legacy serial path. Results are bit-identical either way (DESIGN.md §8).
inline uint32_t ThreadsFromArgs(int argc, char** argv) {
  return UintFromArgs(argc, argv, "--threads", 0);
}

// Parses the `--channels-per-shard N` model knob (DESIGN.md §13): 0 selects
// the serial reference engine, N >= 1 the sharded engine with N channels per
// command-queue shard. Unlike --threads this is part of the model
// configuration — reported times legitimately depend on it — so benches
// default it to the shared model default (kDefaultChannelsPerShard) and
// print the value with their telemetry.
inline uint32_t ChannelsPerShardFromArgs(int argc, char** argv) {
  return UintFromArgs(argc, argv, "--channels-per-shard", kDefaultChannelsPerShard);
}

// Parses the `--bank-groups-per-queue N` model knob (DESIGN.md §15), N >= 1:
// each channel shard splits into per-bank-group command queues of N bank
// groups apiece (0 is rejected). Model configuration like
// --channels-per-shard: completion times depend on it (invariant censuses
// never do), so benches default it to the shared model default
// (kDefaultBankGroupsPerQueue) and print the value with their telemetry.
inline uint32_t BankGroupsPerQueueFromArgs(int argc, char** argv) {
  return UintFromArgs(argc, argv, "--bank-groups-per-queue", kDefaultBankGroupsPerQueue,
                      /*min=*/1);
}

inline std::string StringFromArgs(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return "";
}

// Parses the shared `--platform NAME` model knob: selects a platform from
// the PlatformDecoder registry (src/addr/platform.h) — decoder family,
// geometry, DDR-generation semantics, default remap/TRR. Empty (the
// default) keeps the bench's own configuration, i.e. the Table 2 Skylake
// server. Like --channels-per-shard this is model configuration: reported
// numbers legitimately depend on it, so benches print it in their header.
inline std::string PlatformFromArgs(int argc, char** argv) {
  return StringFromArgs(argc, argv, "--platform");
}

// Shared `--metrics-out FILE` / `--trace-out FILE` observability knobs.
// EnableObsFromArgs turns the tracer on (call before the runs);
// WriteObsFromArgs writes the requested files (call after the runs, when
// every simulated object has been destroyed and its counters flushed).
// Neither touches stdout, so bench tables stay byte-identical.
inline void EnableObsFromArgs(int argc, char** argv) {
  if (!StringFromArgs(argc, argv, "--trace-out").empty()) {
    obs::Tracer::Global().Enable();
  }
}

inline bool WriteObsFromArgs(int argc, char** argv) {
  bool ok = true;
  const std::string metrics_out = StringFromArgs(argc, argv, "--metrics-out");
  if (!metrics_out.empty()) {
    ok = obs::WriteMetricsJson(metrics_out) && ok;
  }
  const std::string trace_out = StringFromArgs(argc, argv, "--trace-out");
  if (!trace_out.empty()) {
    ok = obs::WriteTraceJson(trace_out) && ok;
  }
  return ok;
}

inline void PrintHeader(const char* artifact, const DramGeometry& geometry,
                        const std::string& platform = std::string()) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact);
  std::printf("Platform (%s): %s\n", platform.empty() ? "Table 2" : platform.c_str(),
              geometry.ToString().c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// One bar of a Fig 4-7 style series: overhead % relative to a baseline.
struct OverheadRow {
  std::string name;
  double mean_pct = 0.0;
  double ci_pct = 0.0;
};

inline void PrintOverheadTable(const char* metric, const std::vector<OverheadRow>& rows) {
  std::printf("%-12s | %10s | %8s\n", "workload", metric, "95% CI");
  PrintRule();
  for (const OverheadRow& row : rows) {
    std::printf("%-12s | %+9.3f%% | +/-%.3f%%\n", row.name.c_str(), row.mean_pct, row.ci_pct);
  }
  PrintRule();
}

// Normalized overhead of `variant` relative to `baseline` in percent, with a
// conservative CI combining both runs' relative CIs.
inline OverheadRow Normalize(const std::string& name, const RunningStat& baseline,
                             const RunningStat& variant, bool higher_is_better = false) {
  OverheadRow row;
  row.name = name;
  const double ratio = variant.mean() / baseline.mean();
  row.mean_pct = (higher_is_better ? (1.0 / ratio) - 1.0 : ratio - 1.0) * 100.0;
  const double rel_ci = baseline.ci95_halfwidth() / baseline.mean() +
                        variant.ci95_halfwidth() / variant.mean();
  row.ci_pct = rel_ci * 100.0;
  return row;
}

}  // namespace bench
}  // namespace siloz

#endif  // SILOZ_BENCH_BENCH_UTIL_H_
