// siloz_perfbench: runs one benchmark workload in this process and prints
// one JSON line with what it measured. perfbench/run.py starts it, one
// process at a time, and aggregates the lines into the benchmark's result.
//
//   siloz_perfbench --workload fig4-exec --mode timed --threads 4 --seed 42
//       [--size full|small] [--budget-s 6] [--first-pass K]
//       [--expect-digest HEX] [--t0-ns NS]
//   siloz_perfbench --workload fleet-churn --mode traced --threads 4
//       --spans-out spans.json
//
// Timed mode runs one untimed warm-up pass (the first pass in a process is
// slower), then timed passes of the workload's entry point at `--threads`
// workers until `--budget-s` seconds have passed since the process started
// (at least two). Timed pass k of a process (k counted from `--first-pass`)
// runs on inputs of seed PassSeed(seed, k), and the warm-up on inputs no
// timed pass uses: the library memoizes trace streams process-wide, so a
// pass repeating earlier inputs would time cache hits instead of work. Traced
// mode runs pass 0 at one thread under the root span sim.pass_1t_s, then
// the per-layer probes. Every pass checks its outputs; the exit code is 1
// when any check failed and 2 on bad flags.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

struct Flags {
  std::string workload;
  std::string mode = "timed";
  uint64_t seed = 42;
  Size size = Size::kFull;
  uint32_t threads = 0;
  double budget_s = 6.0;
  uint64_t first_pass = 0;
  std::string expect_digest;
  int64_t t0_ns = 0;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "siloz_perfbench: %s\n"
               "usage: siloz_perfbench --workload NAME --threads N [--mode timed|traced]\n"
               "  [--seed N] [--size full|small] [--budget-s S] [--first-pass K]\n"
               "  [--expect-digest HEX] [--t0-ns NS] [--spans-out PATH]\n",
               problem.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage("bad value for " + flag + ": " + text);
  }
  return value;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      flags.workload = value;
    } else if (flag == "--mode") {
      flags.mode = value;
    } else if (flag == "--seed") {
      flags.seed = ParseUnsigned(flag, value);
    } else if (flag == "--size") {
      const std::string size = value;
      if (size != "full" && size != "small") {
        Usage("--size must be full or small");
      }
      flags.size = size == "small" ? Size::kSmall : Size::kFull;
    } else if (flag == "--threads") {
      flags.threads = static_cast<uint32_t>(ParseUnsigned(flag, value));
    } else if (flag == "--budget-s") {
      flags.budget_s = static_cast<double>(ParseUnsigned(flag, value));
    } else if (flag == "--first-pass") {
      flags.first_pass = ParseUnsigned(flag, value);
    } else if (flag == "--expect-digest") {
      flags.expect_digest = value;
    } else if (flag == "--t0-ns") {
      flags.t0_ns = static_cast<int64_t>(ParseUnsigned(flag, value));
    } else if (flag == "--spans-out") {
      flags.spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (flags.workload.empty()) {
    Usage("--workload is required");
  }
  // Never 0: the library would read $SILOZ_THREADS instead.
  if (flags.threads == 0 || flags.threads > 1024) {
    Usage("--threads must be in [1, 1024]");
  }
  if (flags.mode != "timed" && flags.mode != "traced") {
    Usage("--mode must be timed or traced");
  }
  return flags;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.9g", value);
  return text;
}

// Runs pass `k` of the process on its own inputs.
PassOutcome RunPass(const Flags& flags, uint64_t k, uint32_t threads) {
  return MakeWorkload(flags.workload, Inputs{PassSeed(flags.seed, k), flags.size})
      ->RunPass(threads);
}

// Checks a pass's digest against `expected` (the pinned digest) when that is
// set. A pass that fails any check counts all its operations as failed.
uint64_t CheckPass(PassOutcome& outcome, const std::string& expected,
                   std::vector<std::string>& failures) {
  if (!expected.empty() && outcome.digest != expected) {
    outcome.failures.push_back("digest " + outcome.digest + " != expected " + expected);
  }
  failures.insert(failures.end(), outcome.failures.begin(), outcome.failures.end());
  return outcome.failures.empty() ? 0 : outcome.operations;
}

std::string FailuresJson(const std::vector<std::string>& failures) {
  std::string out = "[";
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    out += (i ? ", " : "") + Quote(failures[i]);
  }
  return out + "]";
}

std::string BuildJson() {
  return "{\"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) + "}";
}

double PeakRssKib() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// Pass index of the warm-up, relative to --first-pass; timed passes stop
// short of it.
constexpr uint64_t kWarmupPass = 999;

int RunTimed(const Flags& flags, const Workload& workload, int64_t t0_ns) {
  std::vector<std::string> failures;
  PassOutcome warmup = RunPass(flags, flags.first_pass + kWarmupPass, flags.threads);
  uint64_t attempted = warmup.operations;
  uint64_t failed = CheckPass(warmup, "", failures);
  const double setup_s = static_cast<double>(WallNs() - t0_ns) / 1e9;
  std::ostringstream passes;
  std::string first_digest;
  uint32_t count = 0;
  int64_t longest_ns = 0;
  while (count < kWarmupPass &&
         (count < 2 ||
          static_cast<double>(WallNs() - t0_ns + longest_ns) / 1e9 <= flags.budget_s)) {
    const int64_t wall0 = WallNs();
    const int64_t cpu0 = CpuNs();
    PassOutcome outcome = RunPass(flags, flags.first_pass + count, flags.threads);
    const int64_t cpu_ns = CpuNs() - cpu0;
    const int64_t wall_ns = WallNs() - wall0;
    longest_ns = std::max(longest_ns, wall_ns);
    attempted += outcome.operations;
    // The pinned digest is that of pass 0.
    const bool pinned = flags.first_pass + count == 0;
    const uint64_t pass_failed = CheckPass(outcome, pinned ? flags.expect_digest : "", failures);
    if (count == 0) {
      first_digest = outcome.digest;
    }
    failed += pass_failed;
    passes << (count++ ? ", " : "") << "{\"wall_s\": " << Number(wall_ns / 1e9)
           << ", \"cpu_s\": " << Number(cpu_ns / 1e9) << ", \"operations\": "
           << outcome.operations << ", \"failed\": " << pass_failed
           << ", \"digest\": " << Quote(outcome.digest) << "}";
  }
  std::printf("{\"mode\": \"timed\", \"workload\": %s, \"threads\": %u, \"setup_s\": %s, "
              "\"passes\": [%s], \"attempted\": %llu, \"failed\": %llu, "
              "\"peak_rss_kib\": %s, \"digest\": %s, \"shape\": %s, \"build\": %s, "
              "\"failures\": %s}\n",
              Quote(flags.workload).c_str(), flags.threads, Number(setup_s).c_str(),
              passes.str().c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), Number(PeakRssKib()).c_str(),
              Quote(first_digest).c_str(), workload.ShapeJson().c_str(), BuildJson().c_str(),
              FailuresJson(failures).c_str());
  return failures.empty() ? 0 : 1;
}

// Cost of recording one span, measured on a scratch tracer.
double SpanCostNs() {
  Tracer scratch;
  constexpr int kSpans = 20000;
  const int64_t start = WallNs();
  for (int i = 0; i < kSpans; ++i) {
    scratch.Close(scratch.Open("calibration", 0));
  }
  return static_cast<double>(WallNs() - start) / kSpans;
}

int RunTraced(const Flags& flags, const Workload& workload, const Inputs& inputs) {
  std::vector<std::string> failures;
  Tracer tracer;
  const int64_t start = WallNs();
  const uint32_t pass_span = tracer.Open("sim.pass_1t_s");
  PassOutcome outcome = RunPass(flags, 0, 1);
  const double pass_s = static_cast<double>(tracer.Close(pass_span)) / 1e9;
  const uint64_t attempted = outcome.operations;
  const uint64_t failed = CheckPass(outcome, flags.expect_digest, failures);

  const uint32_t ledger_span = tracer.Open("ledger");
  std::vector<Metric> metrics =
      RunLedger(flags.workload, inputs, flags.threads, tracer, ledger_span, failures);
  tracer.Close(ledger_span);
  const double traced_ns = static_cast<double>(WallNs() - start);
  metrics.insert(metrics.begin(), Metric{"sim.pass_1t_s", pass_s, "s"});

  // The traced run differs from an untraced one only by the spans it
  // records; their cost is spans x the per-span cost.
  const double spans = static_cast<double>(tracer.spans().size());
  const double overhead_ns = spans * SpanCostNs();
  metrics.push_back({"trace.spans", spans, "count"});
  metrics.push_back({"trace.overhead_ms", overhead_ns / 1e6, "ms"});
  metrics.push_back({"trace.overhead_frac", overhead_ns / traced_ns, "frac"});
  if (!flags.spans_out.empty() && !tracer.WriteJson(flags.spans_out)) {
    failures.push_back("cannot write " + flags.spans_out);
  }

  std::ostringstream out;
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << Quote(metrics[i].name) << ": {\"value\": "
        << Number(metrics[i].value) << ", \"unit\": " << Quote(metrics[i].unit) << "}";
  }
  std::printf("{\"mode\": \"traced\", \"workload\": %s, \"threads\": %u, \"metrics\": {%s}, "
              "\"attempted\": %llu, \"failed\": %llu, \"peak_rss_kib\": %s, \"digest\": %s, "
              "\"shape\": %s, \"build\": %s, \"failures\": %s}\n",
              Quote(flags.workload).c_str(), flags.threads, out.str().c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), Number(PeakRssKib()).c_str(),
              Quote(outcome.digest).c_str(), workload.ShapeJson().c_str(), BuildJson().c_str(),
              FailuresJson(failures).c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t entry_ns = WallNs();
  const Flags flags = ParseFlags(argc, argv);
  const Inputs inputs{flags.seed, flags.size};
  std::unique_ptr<Workload> workload = MakeWorkload(flags.workload, inputs);
  if (workload == nullptr) {
    Usage("unknown workload " + flags.workload);
  }
  if (flags.mode == "traced") {
    return RunTraced(flags, *workload, inputs);
  }
  return RunTimed(flags, *workload, flags.t0_ns > 0 ? flags.t0_ns : entry_ns);
}
