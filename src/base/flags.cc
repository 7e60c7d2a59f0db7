#include "src/base/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/base/parse.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz {
namespace {

bool IsPositional(const std::string& name) { return name.rfind("--", 0) != 0; }

std::string FormatDouble(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", value);
  return text;
}

}  // namespace

FlagSet::FlagSet(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

FlagSet& FlagSet::Add(Flag flag) {
  flags_.push_back(std::move(flag));
  return *this;
}

FlagSet& FlagSet::AddUint(const char* name, const char* help, uint64_t min, uint64_t max,
                          const std::string& default_text,
                          std::function<void(uint64_t)> store) {
  const std::string range = "[" + std::to_string(min) + ", " + std::to_string(max) + "]";
  std::string line = help;
  if (min != 0 || max < std::numeric_limits<uint32_t>::max()) {
    line += " " + range;
  }
  if (!default_text.empty()) {
    line += " (default " + default_text + ")";
  }
  return Add({name, "N", line, "an unsigned integer in " + range,
              [min, max, store = std::move(store)](const char* text) {
                const std::optional<uint64_t> parsed = ParseUint(text, 0, max);
                if (!parsed || *parsed < min) {
                  return false;
                }
                store(*parsed);
                return true;
              }});
}

FlagSet& FlagSet::Double(const char* name, double* value, const char* help) {
  return Add({name, "X", std::string(help) + " (default " + FormatDouble(*value) + ")",
              "a finite number", [value](const char* text) {
                const std::optional<double> parsed = ParseDouble(text);
                if (!parsed) {
                  return false;
                }
                *value = *parsed;
                return true;
              }});
}

FlagSet& FlagSet::String(const char* name, std::string* value, const char* help,
                         std::vector<std::string> choices) {
  std::string line = help;
  if (!value->empty()) {
    line += " (default " + *value + ")";
  }
  std::string metavar;
  for (const std::string& choice : choices) {
    metavar += (metavar.empty() ? "" : "|") + choice;
  }
  return Add({name, choices.empty() ? "TEXT" : metavar, line, "one of " + metavar,
              [value, choices = std::move(choices)](const char* text) {
                if (!choices.empty() &&
                    std::find(choices.begin(), choices.end(), text) == choices.end()) {
                  return false;
                }
                *value = text;
                return true;
              }});
}

FlagSet& FlagSet::Bool(const char* name, bool* value, const char* help) {
  return Add({name, "", help, "", [value](const char*) {
                *value = true;
                return true;
              }});
}

Result<bool> FlagSet::TryParse(int argc, const char* const* argv) {
  auto positional = flags_.begin();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return true;
    }
    Flag* flag = nullptr;
    if (arg[0] == '-') {
      const auto named = std::find_if(flags_.begin(), flags_.end(),
                                      [&](const Flag& candidate) { return candidate.name == arg; });
      if (named == flags_.end()) {
        return MakeError(ErrorCode::kInvalidArgument, "unknown flag '" + arg + "'");
      }
      flag = &*named;
    } else {
      positional = std::find_if(positional, flags_.end(),
                                [](const Flag& candidate) { return IsPositional(candidate.name); });
      if (positional == flags_.end()) {
        return MakeError(ErrorCode::kInvalidArgument, "unexpected argument '" + arg + "'");
      }
      flag = &*positional++;
    }
    if (flag->seen) {
      return MakeError(ErrorCode::kInvalidArgument, flag->name + " given more than once");
    }
    flag->seen = true;
    const bool positional_value = IsPositional(flag->name);
    if (flag->metavar.empty()) {
      flag->set(nullptr);
      continue;
    }
    if (!positional_value && i + 1 >= argc) {
      return MakeError(ErrorCode::kInvalidArgument, flag->name + " requires a value");
    }
    const char* text = positional_value ? argv[i] : argv[++i];
    if (!flag->set(text)) {
      return MakeError(ErrorCode::kInvalidArgument, flag->name + " expects " + flag->expects +
                                                        ", got '" + text + "'");
    }
  }
  return false;
}

void FlagSet::Parse(int argc, const char* const* argv) {
  const Result<bool> help = TryParse(argc, argv);
  if (!help.ok()) {
    UsageError(help.error().message);
  }
  if (*help) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
}

void FlagSet::UsageError(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(), Usage().c_str());
  std::exit(2);
}

std::string FlagSet::Usage() const {
  std::string usage = "usage: " + program_ + (flags_.empty() ? "" : " [flags]");
  std::vector<std::pair<std::string, std::string>> rows;
  for (const Flag& flag : flags_) {
    if (IsPositional(flag.name)) {
      usage += " <" + flag.name + ">";
      rows.emplace_back("<" + flag.name + ">", flag.help);
    } else {
      rows.emplace_back(flag.name + (flag.metavar.empty() ? "" : " " + flag.metavar), flag.help);
    }
  }
  rows.emplace_back("--help", "print this help and exit");
  size_t width = 0;
  for (const auto& row : rows) {
    width = std::max(width, row.first.size());
  }
  usage += "\n" + summary_ + "\n";
  for (const auto& [left, right] : rows) {
    usage += "  " + left + std::string(width - left.size() + 2, ' ') + right + "\n";
  }
  return usage;
}

void DeclareThreads(FlagSet& flags, uint32_t* threads) {
  flags.Uint("--threads", threads,
             "worker threads, 0 = $SILOZ_THREADS or the hardware concurrency; output is "
             "identical for every N",
             0, kMaxThreads);
}

void DeclareSeed(FlagSet& flags, uint64_t* seed) { flags.Uint("--seed", seed, "RNG seed"); }

void DeclareSubarrayRows(FlagSet& flags, std::optional<uint32_t>* rows) {
  flags.Uint("--subarray-rows", rows,
             "presumed rows per subarray Siloz boots with (default: the platform's)");
}

void DeclareChannelsPerShard(FlagSet& flags, uint32_t* channels_per_shard) {
  flags.Uint("--channels-per-shard", channels_per_shard,
             "model knob: channels per command-queue shard; 0 = serial reference engine", 0,
             kMaxThreads);
}

void DeclareBankGroupsPerQueue(FlagSet& flags, uint32_t* bank_groups_per_queue) {
  flags.Uint("--bank-groups-per-queue", bank_groups_per_queue,
             "model knob: bank groups per sub-channel command queue", 1, kMaxThreads);
}

void ObsFlags::Declare(FlagSet& flags) {
  flags.String("--metrics-out", &metrics_out, "write the metrics registry as JSON to this file");
  flags.String("--trace-out", &trace_out, "record and write a Chrome trace-event log to this file");
}

void ObsFlags::Start() const {
  if (!trace_out.empty()) {
    obs::Tracer::Global().Enable();
  }
}

bool ObsFlags::Write() const {
  bool ok = true;
  if (!metrics_out.empty()) {
    ok = obs::WriteMetricsJson(metrics_out) && ok;
  }
  if (!trace_out.empty()) {
    ok = obs::WriteTraceJson(trace_out) && ok;
  }
  return ok;
}

}  // namespace siloz
