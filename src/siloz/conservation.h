// Conservation checking and the CreateVm fault-injection sweep.
//
// The VM lifecycle is transactional (DESIGN.md §11): a failed CreateVm must
// leave the hypervisor bit-identical to its pre-call state, and a full
// create -> destroy -> release cycle must be a fixed point. This module
// captures the state those contracts quantify over — per-node allocator
// accounting, cgroup/node reservations, EPT pool levels, lifecycle map
// entries, and the hv.ept.* gauges — and drives CreateVm once per reachable
// allocation fault point to prove the contracts hold on every error path.
// After every step the sweeps also rebuild node ownership by brute force
// and hold the hypervisor's ownership indexes to it.
#ifndef SILOZ_SRC_SILOZ_CONSERVATION_H_
#define SILOZ_SRC_SILOZ_CONSERVATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/siloz/hypervisor.h"

namespace siloz {

struct NodeUsage {
  uint64_t free_bytes = 0;
  uint64_t total_bytes = 0;
  uint64_t offlined_bytes = 0;
  bool operator==(const NodeUsage&) const = default;
};

// Everything a failed CreateVm is required to conserve.
struct ConservationSnapshot {
  std::vector<NodeUsage> nodes;         // indexed by node id
  std::vector<uint64_t> ept_pool_free;  // per socket
  std::vector<size_t> free_guest_nodes;  // per socket
  size_t cgroups = 0;
  size_t backing_entries = 0;
  size_t ept_page_entries = 0;
  uint64_t ept_pages_held = 0;
  int64_t gauge_pool_free = 0;
  int64_t gauge_pages_in_use = 0;
};

// Captures the hypervisor's resource-accounting state. Requires Boot().
ConservationSnapshot CaptureConservation(const SilozHypervisor& hv);

// Empty string iff `after` is identical to `before`; otherwise a
// human-readable description of every discrepancy.
std::string DiffConservation(const ConservationSnapshot& before,
                             const ConservationSnapshot& after);

// Rebuilds guest-node ownership by brute force — every guest node against
// every cgroup's mems — and compares it with the indexes the hypervisor
// keeps instead: the cgroup registry's node index (OwnerOf) and the
// per-socket free sets (AvailableGuestNodes, in registry order, and
// FreeGuestNodeCount). Empty string iff they all agree; otherwise every
// discrepancy. O(guest nodes x cgroups): for checks, never a hot path.
std::string DiffOwnershipIndexes(const SilozHypervisor& hv);

struct FaultSweepReport {
  uint64_t points_probed = 0;     // distinct k values exercised
  uint64_t faults_injected = 0;   // probes whose fault actually fired
  uint64_t creates_failed = 0;    // fired faults that made CreateVm fail
  uint64_t creates_survived = 0;  // fired faults CreateVm tolerated
};

// Deterministic sweep: for k = 1, 2, ... arm the global FaultInjector to
// fail the k-th "alloc." call and run CreateVm(vm_config). A failed create
// must match the pre-call snapshot exactly; a successful one (fault
// tolerated, or k past the last reachable point) must make
// create -> destroy -> release a fixed point. Stops at the first k whose
// fault no longer fires. Returns the tally, or the first conservation
// violation / unexpected error.
Result<FaultSweepReport> RunCreateVmFaultSweep(SilozHypervisor& hv, const VmConfig& vm_config,
                                               uint64_t max_points = 100000);

// The same sweep over MigrateVm's error paths: for k = 1, 2, ... create a VM
// from `vm_config`, arm the k-th "alloc." fault, and migrate it to
// `target_socket`. A failed migration must leave the hypervisor identical to
// its post-create snapshot (the VM intact on its source socket); a successful
// one must pass the isolation audit; and either way the full
// create -> migrate -> destroy -> release cycle must restore the pre-create
// snapshot exactly. Stops at the first k whose fault no longer fires. In the
// returned report, creates_failed / creates_survived tally *migrations*.
Result<FaultSweepReport> RunMigrateVmFaultSweep(SilozHypervisor& hv, const VmConfig& vm_config,
                                                uint32_t target_socket,
                                                uint64_t max_points = 100000);

}  // namespace siloz

#endif  // SILOZ_SRC_SILOZ_CONSERVATION_H_
