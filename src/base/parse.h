// Strict unsigned-integer parsing for command-line and environment input.
#ifndef SILOZ_SRC_BASE_PARSE_H_
#define SILOZ_SRC_BASE_PARSE_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace siloz {

// Parses all of `text` as an unsigned integer no larger than `max`. `base`
// is as for strtoull: 10 for plain decimal, 0 for C syntax (decimal, 0x hex,
// leading-0 octal). An empty value, a leading sign or space, trailing
// characters and out-of-range values yield nullopt — strtoull alone reads
// "-1" as ULLONG_MAX and "4x" as 4.
inline std::optional<uint64_t> ParseUint(const char* text, int base, uint64_t max) {
  if (text[0] < '0' || text[0] > '9') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (*end != '\0' || errno == ERANGE || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace siloz

#endif  // SILOZ_SRC_BASE_PARSE_H_
