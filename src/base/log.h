// Minimal leveled logging to stderr.
//
// Experiments print structured tables on stdout; diagnostics go through this
// logger so they can be silenced (e.g. in property-test sweeps).
#ifndef SILOZ_SRC_BASE_LOG_H_
#define SILOZ_SRC_BASE_LOG_H_

#include <sstream>
#include <string>

namespace siloz {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Global threshold; messages below it are dropped. Default kWarning so tests
// and benches stay quiet unless asked.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// True iff a message at `level` would be printed. SILOZ_LOG tests it before
// building the message, so a silenced call site formats nothing.
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(GetLogLevel());
}

void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

// Stream adapter used by the SILOZ_LOG macro.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line) : level_(level), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Gives both arms of SILOZ_LOG's conditional type void. `&` binds looser
// than `<<`, so every operand streams into the LogLine first.
struct LogVoidify {
  void operator&(const LogLine&) {}
};

}  // namespace siloz

// A single expression (safe under an unbraced if/else). Below the threshold
// neither the LogLine nor its operands are evaluated.
#define SILOZ_LOG(level)                                \
  !::siloz::LogEnabled(::siloz::LogLevel::level)        \
      ? (void)0                                         \
      : ::siloz::LogVoidify() &                         \
            ::siloz::LogLine(::siloz::LogLevel::level, __FILE__, __LINE__)

#endif  // SILOZ_SRC_BASE_LOG_H_
