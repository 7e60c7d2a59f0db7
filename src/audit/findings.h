// Structured findings emitted by the static isolation-domain analyzer.
//
// Siloz's security argument is a static, topological property of the boot
// configuration (decoder layout + remap chain + provisioning plan + guard
// placement). The auditor (auditor.h) proves that property without running
// any workload; when it cannot, it emits one AuditFinding per violation with
// the offending physical address, its decoded media/internal coordinates,
// and the invariant that failed — enough for an operator to locate the bad
// row on the real machine.
#ifndef SILOZ_SRC_AUDIT_FINDINGS_H_
#define SILOZ_SRC_AUDIT_FINDINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/dram/geometry.h"

namespace siloz::audit {

// The four invariants of the Siloz isolation argument (PAPER.md §4-§6).
enum class Invariant : uint8_t {
  kDecoderInvertibility,  // phys <-> (bank, subarray, row) is a bijection
  kDomainClosure,         // no logical node spans a group boundary after remap
  kGuardFencing,          // EPT/host carve-outs fenced by >= blast-radius rows
  kBlastRadius,           // all fault-model neighbours stay inside the domain
};

const char* InvariantName(Invariant invariant);

enum class Severity : uint8_t {
  kNote,      // informational (e.g. a pass that was skipped by configuration)
  kWarning,   // isolation holds but the margin is thinner than configured
  kCritical,  // the isolation property is violated
};

const char* SeverityName(Severity severity);

// One violation, pinned to a physical address and its decoded coordinates.
struct Finding {
  Invariant invariant = Invariant::kDecoderInvertibility;
  Severity severity = Severity::kCritical;
  uint64_t phys = 0;          // offending host physical address
  MediaAddress media;         // its decoded media coordinates
  uint32_t internal_row = 0;  // post-remap-chain internal row
  // Presumed global subarray group of `phys` (kNoGroup when undecodable).
  uint32_t group = kNoGroup;
  std::string detail;

  static constexpr uint32_t kNoGroup = 0xFFFFFFFF;

  std::string ToString() const;
  std::string ToJson() const;
};

// Per-invariant probe accounting, so "no findings" is distinguishable from
// "nothing was checked".
struct InvariantStats {
  uint64_t probes = 0;      // addresses/rows examined
  uint64_t violations = 0;  // findings attributed to this invariant
  uint64_t kept = 0;        // of those, held in Report::findings (<= the cap)
  bool ran = false;         // pass executed (vs skipped by configuration)
};

struct Report {
  std::vector<Finding> findings;
  InvariantStats stats[4];  // indexed by Invariant
  // Findings suppressed once a pass hit its per-invariant cap.
  uint64_t suppressed = 0;

  InvariantStats& StatsFor(Invariant invariant);
  const InvariantStats& StatsFor(Invariant invariant) const;

  bool ok() const { return findings.empty() && suppressed == 0; }
  uint64_t total_probes() const;

  // Scheduler accounting of the parallel blast-radius scan. Deliberately
  // excluded from ToText()/ToJson() so reports stay byte-identical across
  // thread counts; the CLI front ends print it separately.
  PoolMetrics scan_pool;
  double scan_wall_ms = 0.0;

  // True once `invariant` holds its cap of findings: a further violation
  // only counts (Suppress), so callers can skip building the finding.
  bool Full(Invariant invariant, size_t max_findings_per_invariant) const {
    return StatsFor(invariant).kept >= max_findings_per_invariant;
  }

  // Counts a violation past the cap: bumps its violation counter and the
  // suppression count, keeps nothing.
  void Suppress(Invariant invariant);

  // Appends a finding unless the invariant's cap is exhausted; always bumps
  // the violation counter.
  void Add(Finding finding, size_t max_findings_per_invariant);

  // Folds in a shard report produced over a disjoint slice of a scan.
  // Shards keep at most `max_findings_per_invariant` findings each — the
  // earliest of their slice — so merging shards in slice order reproduces
  // the serial findings list, violation counters, and suppression count
  // exactly (the global first-N findings are a prefix-of-prefixes).
  void Merge(const Report& shard, size_t max_findings_per_invariant);

  std::string ToText() const;
  std::string ToJson() const;
};

}  // namespace siloz::audit

#endif  // SILOZ_SRC_AUDIT_FINDINGS_H_
