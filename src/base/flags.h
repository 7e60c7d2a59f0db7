// Declared command-line flags: the one argv parser behind every binary.
//
// A flag is declared once, bound to the variable it sets: name, type (uint,
// double, string, bool, or a positional of any value type), range or
// choices, help line, and a default that is the variable's value at
// declaration (an unset std::optional means "derived at run time", as the
// help line then says). Parse() checks the whole argv against the
// declarations and fails closed: an unknown flag, a missing value, a
// malformed or out-of-range number, a non-finite double, a string outside
// its choices, a repeated flag or a stray positional prints the error and
// the generated usage to stderr and exits 2, before the binary writes
// anything to stdout. --help (or -h) prints the usage to stdout and exits 0
// without running anything. The exit-code contract of every binary
// (DESIGN.md §17): 0 OK, 1 runtime or boot failure, 2 usage error or
// audit findings.
//
// Integers are unsigned and in C syntax (decimal, 0x hex, leading-0 octal;
// `--stride 0x100000`); doubles must be finite and use all of their text. A
// declaration whose name does not start with "--" is a positional, filled
// in declaration order.
#ifndef SILOZ_SRC_BASE_FLAGS_H_
#define SILOZ_SRC_BASE_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/result.h"

namespace siloz {

class FlagSet {
 public:
  // `program` heads the usage line; `summary` is the one-line description
  // under it.
  FlagSet(std::string program, std::string summary);

  // An unsigned integer flag in [min, max] (by default the whole of T).
  template <typename T>
  FlagSet& Uint(const char* name, T* value, const char* help, uint64_t min = 0,
                uint64_t max = std::numeric_limits<T>::max()) {
    static_assert(std::is_unsigned_v<T>);
    return AddUint(name, help, min, max, std::to_string(*value),
                   [value](uint64_t parsed) { *value = static_cast<T>(parsed); });
  }
  template <typename T>
  FlagSet& Uint(const char* name, std::optional<T>* value, const char* help, uint64_t min = 0,
                uint64_t max = std::numeric_limits<T>::max()) {
    static_assert(std::is_unsigned_v<T>);
    return AddUint(name, help, min, max, "",
                   [value](uint64_t parsed) { *value = static_cast<T>(parsed); });
  }
  FlagSet& Double(const char* name, double* value, const char* help);
  // Empty `choices` accepts any text.
  FlagSet& String(const char* name, std::string* value, const char* help,
                  std::vector<std::string> choices = {});
  FlagSet& Bool(const char* name, bool* value, const char* help);

  // Parses argv[1..argc) into the declared variables; exits 0 on --help and
  // 2 on any input it cannot accept (see the file comment).
  void Parse(int argc, const char* const* argv);
  // The same without exiting: true when --help or -h was given (the
  // arguments after it are not looked at), an error naming the first
  // argument it could not accept otherwise.
  Result<bool> TryParse(int argc, const char* const* argv);

  // Prints `message` and the usage to stderr and exits 2: for checks that
  // span flags (a missing required positional, say).
  [[noreturn]] void UsageError(const std::string& message) const;
  std::string Usage() const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // empty for a bool
    std::string help;     // the declared line with range and default appended
    std::string expects;  // what a rejected value is told it should be
    std::function<bool(const char*)> set;  // false: the text is not acceptable
    bool seen = false;
  };

  FlagSet& Add(Flag flag);
  FlagSet& AddUint(const char* name, const char* help, uint64_t min, uint64_t max,
                   const std::string& default_text, std::function<void(uint64_t)> store);

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
};

// --- Shared declarations ----------------------------------------------------
//
// Every binary that takes one of these flags registers it through the same
// function, so name, range and help line cannot drift between binaries. The
// default is the bound variable's value (for the model-shape knobs, the
// single defaults in src/memctl/sharded_engine.h). `--platform` is declared
// next to its registry (DeclarePlatform, src/addr/platform.h).

// `--threads N` in [0, kMaxThreads]: 0 resolves to $SILOZ_THREADS, else the
// hardware concurrency (ResolveThreads); results are identical for every N.
void DeclareThreads(FlagSet& flags, uint32_t* threads);
// `--seed N`: the run's RNG seed.
void DeclareSeed(FlagSet& flags, uint64_t* seed);
// `--subarray-rows N`: the presumed rows per subarray Siloz boots with
// (§5.3); unset keeps the platform's.
void DeclareSubarrayRows(FlagSet& flags, std::optional<uint32_t>* rows);
// `--channels-per-shard N` in [0, kMaxThreads] (DESIGN.md §13): 0 is the
// serial reference engine, N >= 1 the sharded engine with N channels per
// command-queue shard. A model knob: reported times depend on it.
void DeclareChannelsPerShard(FlagSet& flags, uint32_t* channels_per_shard);
// `--bank-groups-per-queue N` in [1, kMaxThreads] (DESIGN.md §15): bank
// groups per sub-channel command queue. A model knob like the above.
void DeclareBankGroupsPerQueue(FlagSet& flags, uint32_t* bank_groups_per_queue);

// `--metrics-out FILE` / `--trace-out FILE`. Start() after Parse turns the
// tracer on; Write() after the run, once every simulated object is
// destroyed and its counters flushed, writes the requested files. Neither
// touches stdout, so reports stay byte-identical.
struct ObsFlags {
  std::string metrics_out;
  std::string trace_out;

  void Declare(FlagSet& flags);
  void Start() const;
  bool Write() const;
};

}  // namespace siloz

#endif  // SILOZ_SRC_BASE_FLAGS_H_
