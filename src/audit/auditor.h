// Static isolation-domain analyzer.
//
// Siloz's security argument is config-independent and topological: given the
// platform's physical-to-media decoder, the DIMM remap chain, the logical-node
// provisioning plan, and the guard-row layout, either every logical NUMA node
// is a closed DRAM isolation domain or it is not — no workload needs to run
// to decide. The Auditor proves (exhaustively in row space, stratified-sample-
// exhaustively in the 384 GiB physical space) four invariants over a booted
// SilozHypervisor's plan:
//
//  1. decoder invertibility — every physical address maps to exactly one
//     (bank, subarray, row) and back (§5.3 relies on inverting the map);
//  2. domain closure — no logical node's page set spans a subarray-group
//     boundary, before or after the DDR4 remap chain (§4.2, §6);
//  3. guard fencing — every EPT row is separated from any allocatable row by
//     at least blast-radius guard rows, under all rank/side transforms (§5.4);
//  4. blast-radius containment — every fault-model neighbour (including
//     mirrored/inverted half-row images) of a guest-mappable row stays inside
//     that row's domain or hits an offlined guard row (§6, §7.4).
//
// The auditor can evaluate the plan against a *different* decoder than the
// one the hypervisor booted with, modelling a machine whose BIOS mapping
// deviates from what early boot assumed — the failure mode the paper's §5.3
// translation-driver port exists to prevent. corrupt_decoder.h provides
// deliberately wrong decoders for negative testing.
#ifndef SILOZ_SRC_AUDIT_AUDITOR_H_
#define SILOZ_SRC_AUDIT_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/audit/findings.h"
#include "src/dram/fault_model.h"
#include "src/dram/remap.h"
#include "src/siloz/hypervisor.h"
#include "src/siloz/vm.h"

namespace siloz::audit {

struct Options {
  // Silicon ground-truth subarray size in rows; 0 = trust the hypervisor's
  // effective size. Setting this to the real value exposes provisioning
  // plans built from a wrong boot parameter (§7.4).
  uint32_t silicon_rows_per_subarray = 0;
  // Internal-row distance disturbance can travel. Defaults to the fault
  // model's reach (distance-2, Half-Double-style).
  uint32_t blast_radius = BlastRadiusRows(DisturbanceProfile{});
  // Physical-space probe stride for the invertibility/closure passes. Every
  // range endpoint is probed regardless; the stride samples interiors.
  uint64_t probe_stride = 256 * 1024;
  // Deterministic pseudo-random probes added per pass (seeded, reproducible).
  uint64_t random_probes = 4096;
  // Probe every 4 KiB page instead of striding (~10^8 probes; CI uses the
  // stratified default).
  bool exhaustive = false;
  uint64_t seed = 0xA0D17;
  // Findings retained per invariant; further violations are only counted.
  size_t max_findings_per_invariant = 16;
  // Worker threads for the invertibility, closure and blast-radius scans:
  // 0 = $SILOZ_THREADS or hardware concurrency, 1 = serial scan. Each scan
  // is cut into fixed shards (probe slices, subarray groups) whose private
  // reports merge in slice order, so findings, counters, and report bytes
  // are identical for every value.
  uint32_t threads = 0;
};

class Auditor {
 public:
  // Audits `hypervisor`'s boot-time plan against `truth` — the machine's
  // actual physical-to-media mapping. `remap` is the platform's DIMM-internal
  // transform chain (Table 1). The hypervisor must be booted in Siloz mode.
  Auditor(const SilozHypervisor& hypervisor, const AddressDecoder& truth,
          const RemapConfig& remap, Options options = {});

  // Convenience: the machine's mapping is the decoder the hypervisor booted
  // with (the common, non-adversarial case).
  explicit Auditor(const SilozHypervisor& hypervisor, const RemapConfig& remap = RemapConfig{},
                   Options options = {});

  // Runs all four invariant passes.
  Report Run() const;

  // Individual passes, composable for targeted checks.
  void CheckDecoderInvertibility(Report& report) const;
  void CheckDomainClosure(Report& report) const;
  void CheckGuardFencing(Report& report) const;
  void CheckBlastRadius(Report& report) const;

  // Optional live-VM pass: walks the VM's EPT *bytes* (not the expected
  // region list) and verifies every present leaf mapping lands inside the
  // VM's provisioned ranges. A hammered PTE shows up with its corrupted HPA
  // and decoded coordinates.
  void CheckVmContainment(const Vm& vm, Report& report) const;

  uint32_t silicon_rows_per_subarray() const { return silicon_rows_; }
  uint32_t effective_rows_per_subarray() const { return effective_rows_; }

 private:
  // What the provisioning plan says about one media row group.
  struct RowStatus {
    uint32_t node = 0;          // owning logical node id
    NodeKind kind = NodeKind::kHostReserved;
    bool offlined = false;      // representative page removed (guard row)
    bool ept_pool = false;      // row group seeds the protected EPT pool
    uint64_t phys = 0;          // representative physical page
  };

  // One contiguous run of media rows of one (socket, cluster) — the unit of
  // the parallel blast-radius scan, aligned to the presumed subarray size.
  struct ScanShard {
    uint32_t socket = 0;
    uint32_t cluster = 0;
    uint32_t row_begin = 0;
    uint32_t row_end = 0;
  };

  // Blast-radius pass over one shard, accumulating into `report` (shard-
  // local in the parallel scan). Touches only const state, so shards are
  // safe to run concurrently.
  void ScanBlastRadiusShard(const ScanShard& shard, Report& report) const;

  // Runs scan(i, report_i) for every shard i in [0, count) on
  // options_.threads workers, each into a private report, and returns the
  // reports in shard order for the caller to Merge. Shards draw no random
  // numbers: every probe is fixed before the scan starts.
  std::vector<Report> ScanShards(uint64_t count,
                                 const std::function<void(uint64_t, Report&)>& scan,
                                 PoolMetrics* pool_metrics = nullptr) const;
  void MergeShardReports(const std::vector<Report>& shards, Report& report) const;

  // One probe of each sharded invariant, accumulating into `report`.
  void ProbePhysRoundTrip(uint64_t phys, Report& report) const;
  void ProbeMediaRoundTrip(const MediaAddress& media, Report& report) const;
  void ProbeNodePage(const NumaNode& node, uint64_t phys, Report& report) const;
  // Post-remap closure of media rows [row_begin, row_end) of one rank,
  // side and bank; the range is whole presumed subarray blocks.
  void ScanRemapBlocks(uint32_t rank, HalfRowSide side, uint32_t bank, uint32_t row_begin,
                       uint32_t row_end, Report& report) const;

  // Presumed global group of media row `row` in (socket, cluster).
  Result<uint32_t> GroupOfRow(uint32_t socket, uint32_t cluster, uint32_t row) const;
  Result<RowStatus> StatusOfRow(uint32_t socket, uint32_t cluster, uint32_t rank,
                                uint32_t row) const;
  // Appends a finding with decoded coordinates filled in from `phys` and
  // `detail()` as its text. Past the per-invariant cap only the counters
  // move: no decode, no group lookup, no detail formatting.
  template <typename Detail>
  void AddFinding(Report& report, Invariant invariant, uint64_t phys, uint32_t internal_row,
                  Detail&& detail) const;

  const SilozHypervisor& hypervisor_;
  const AddressDecoder& truth_;
  RowRemapper remapper_;
  Options options_;
  std::vector<const NumaNode*> nodes_by_id_;  // dense node ids -> registry entries
  uint32_t effective_rows_;  // the hypervisor's presumed subarray size
  uint32_t silicon_rows_;    // ground truth used for adjacency clipping
};

// Boots a fresh hypervisor with `config` on `boot_decoder` (flat-backed, no
// VMs) and audits the resulting plan against `truth_decoder`. Returns the
// boot error if provisioning itself fails.
Result<Report> AuditProvisioningPlan(const AddressDecoder& boot_decoder,
                                     const AddressDecoder& truth_decoder,
                                     const SilozConfig& config, const RemapConfig& remap,
                                     const Options& options = {});

// Same, with the boot decoder as ground truth.
Result<Report> AuditPlatform(const AddressDecoder& decoder, const SilozConfig& config,
                             const RemapConfig& remap = RemapConfig{},
                             const Options& options = {});

}  // namespace siloz::audit

#endif  // SILOZ_SRC_AUDIT_AUDITOR_H_
