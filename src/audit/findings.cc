#include "src/audit/findings.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace siloz::audit {
namespace {

// Minimal JSON string escaping (details never contain control characters,
// but quotes and backslashes can appear in ToString() output).
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

const char* InvariantName(Invariant invariant) {
  switch (invariant) {
    case Invariant::kDecoderInvertibility:
      return "decoder-invertibility";
    case Invariant::kDomainClosure:
      return "domain-closure";
    case Invariant::kGuardFencing:
      return "guard-fencing";
    case Invariant::kBlastRadius:
      return "blast-radius";
  }
  return "unknown";
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kCritical:
      return "critical";
  }
  return "unknown";
}

std::string Finding::ToString() const {
  char head[160];
  std::snprintf(head, sizeof(head), "[%s] %s: phys 0x%" PRIx64, SeverityName(severity),
                InvariantName(invariant), phys);
  std::ostringstream out;
  out << head << " -> " << media.ToString() << " internal-row " << internal_row;
  if (group != kNoGroup) {
    out << " group " << group;
  }
  out << ": " << detail;
  return out.str();
}

std::string Finding::ToJson() const {
  std::ostringstream out;
  out << "{\"invariant\":\"" << InvariantName(invariant) << "\",\"severity\":\""
      << SeverityName(severity) << "\",\"phys\":" << phys << ",\"socket\":" << media.socket
      << ",\"channel\":" << media.channel << ",\"dimm\":" << media.dimm
      << ",\"rank\":" << media.rank << ",\"bank\":" << media.bank << ",\"row\":" << media.row
      << ",\"column\":" << media.column << ",\"internal_row\":" << internal_row << ",\"group\":";
  if (group == kNoGroup) {
    out << "null";
  } else {
    out << group;
  }
  out << ",\"detail\":\"" << JsonEscape(detail) << "\"}";
  return out.str();
}

InvariantStats& Report::StatsFor(Invariant invariant) {
  return stats[static_cast<size_t>(invariant)];
}

const InvariantStats& Report::StatsFor(Invariant invariant) const {
  return stats[static_cast<size_t>(invariant)];
}

uint64_t Report::total_probes() const {
  uint64_t total = 0;
  for (const InvariantStats& s : stats) {
    total += s.probes;
  }
  return total;
}

void Report::Suppress(Invariant invariant) {
  ++StatsFor(invariant).violations;
  ++suppressed;
}

void Report::Add(Finding finding, size_t max_findings_per_invariant) {
  if (Full(finding.invariant, max_findings_per_invariant)) {
    Suppress(finding.invariant);
    return;
  }
  InvariantStats& s = StatsFor(finding.invariant);
  ++s.violations;
  ++s.kept;
  findings.push_back(std::move(finding));
}

std::string Report::ToText() const {
  std::ostringstream out;
  out << "isolation audit: " << (ok() ? "PASS" : "FAIL") << "\n";
  for (size_t i = 0; i < 4; ++i) {
    const InvariantStats& s = stats[i];
    out << "  " << InvariantName(static_cast<Invariant>(i)) << ": ";
    if (!s.ran) {
      out << "skipped\n";
      continue;
    }
    out << s.probes << " probes, " << s.violations << " violation(s)\n";
  }
  for (const Finding& finding : findings) {
    out << "  " << finding.ToString() << "\n";
  }
  if (suppressed > 0) {
    out << "  (" << suppressed << " further finding(s) suppressed by the per-invariant cap)\n";
  }
  return out.str();
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"ok\":" << (ok() ? "true" : "false") << ",\"invariants\":{";
  for (size_t i = 0; i < 4; ++i) {
    const InvariantStats& s = stats[i];
    if (i != 0) {
      out << ",";
    }
    out << "\"" << InvariantName(static_cast<Invariant>(i)) << "\":{\"ran\":"
        << (s.ran ? "true" : "false") << ",\"probes\":" << s.probes
        << ",\"violations\":" << s.violations << "}";
  }
  out << "},\"suppressed\":" << suppressed << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i != 0) {
      out << ",";
    }
    out << findings[i].ToJson();
  }
  out << "]}";
  return out.str();
}

}  // namespace siloz::audit
