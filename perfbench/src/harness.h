// Shared pieces of the benchmark harness: clocks, the output digest, the
// in-memory span recorder, percentiles, and the four workloads.
//
// The harness times the program from outside: every span is opened and
// closed here, around calls into one layer's public functions. Nothing in
// src/ is instrumented for the benchmark.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Host wall clock (CLOCK_MONOTONIC, the clock Python's time.monotonic_ns()
// reads, so a parent process can hand over its spawn time).
inline int64_t WallNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time of the whole process, summed over its threads.
inline int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// FNV-1a over the bytes of every value fed in; the pass digest.
class Digest {
 public:
  void Bytes(const void* data, size_t size);
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void F64(double value) { Bytes(&value, sizeof(value)); }
  void Str(std::string_view text) {
    U64(text.size());
    Bytes(text.data(), text.size());
  }
  std::string Hex() const;

 private:
  uint64_t state_ = 0xCBF29CE484222325ull;
};

// Spans kept in memory and written out once, when the run ends.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  // Opens a span under `parent` (0 = a root span) and returns its id.
  uint32_t Open(std::string name, uint32_t parent = 0);
  // Closes span `id`; returns its duration in nanoseconds.
  int64_t Close(uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  // Writes the spans as a JSON array; false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Nearest-rank percentile of `samples` (sorted in place), q in [0, 1].
double Percentile(std::vector<double>& samples, double q);

// A per-layer metric: value and unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Size of every workload's inputs. kSmall is the setting the harness's own
// tests use; kFull is the benchmark.
enum class Size { kFull, kSmall };

struct Inputs {
  uint64_t seed = 42;
  Size size = Size::kFull;
};

// Seed of pass `k` of a run with seed `seed`: the seed itself for pass 0.
inline uint64_t PassSeed(uint64_t seed, uint64_t k) {
  return seed + k * 0x9E3779B97F4A7C15ull;
}

// Outcome of one checked pass of a workload's entry point.
struct PassOutcome {
  uint64_t operations = 0;            // grid trials, fuzz patterns or fleet arrivals
  std::string digest;                 // hex digest of the pass's model outputs
  std::vector<std::string> failures;  // failed output checks; empty = correct
};

// One workload on one set of inputs: construction builds the inputs; RunPass
// runs the entry point once at `threads` workers (never 0) and checks the
// outputs.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual PassOutcome RunPass(uint32_t threads) const = 0;
  // The model shape, for the run manifest.
  virtual std::string ShapeJson() const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, const Inputs& inputs);

// Runs the per-layer probes of `workload` on its inputs at one thread (and
// `nproc` threads where a metric says so), recording a span per probe under
// `parent`. Returns the metrics; appends probe failures to `failures`.
std::vector<Metric> RunLedger(std::string_view workload, const Inputs& inputs,
                              uint32_t nproc, Tracer& tracer, uint32_t parent,
                              std::vector<std::string>& failures);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
