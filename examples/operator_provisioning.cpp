// Operator's view: managing a Siloz host over a day of tenant churn —
// capacity accounting, the §5.3 reservation lifecycle, the §8.1
// fragmentation trade-off, and the SNC-2 option that halves group size.
//
// Run: ./build/examples/operator_provisioning
#include <cstdio>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/flags.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

using namespace siloz;

namespace {

void PrintCapacity(const char* when, SilozHypervisor& hypervisor) {
  uint64_t free_guest_bytes = 0;
  for (uint32_t socket = 0; socket < 2; ++socket) {
    for (uint32_t node : hypervisor.AvailableGuestNodes(socket)) {
      free_guest_bytes += (*hypervisor.nodes().Get(node))->allocator().free_bytes();
    }
  }
  std::printf("%-34s: %3zu + %3zu free guest nodes (%lu GiB sellable)\n", when,
              hypervisor.AvailableGuestNodes(0).size(), hypervisor.AvailableGuestNodes(1).size(),
              static_cast<unsigned long>(free_guest_bytes >> 30));
}

}  // namespace

int main(int argc, char** argv) {
  siloz::FlagSet(argv[0], "Operator view: a day of tenant churn on a Siloz host").Parse(argc, argv);
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  SILOZ_CHECK(hypervisor.Boot().ok());

  std::printf("== Day in the life of a Siloz host ==\n\n");
  PrintCapacity("boot", hypervisor);

  // Morning: a batch of tenants lands. Sizing is in whole subarray groups
  // (1.5 GiB): the granularity major providers already sell at (§8.1).
  std::vector<VmId> fleet;
  const struct {
    const char* name;
    uint64_t bytes;
    uint32_t socket;
  } requests[] = {
      {"web-frontend", 6_GiB, 0},   {"database", 24_GiB, 0},    {"cache", 12_GiB, 1},
      {"batch-worker", 48_GiB, 1},  {"micro-a", 512_MiB, 0},    {"micro-b", 512_MiB, 0},
  };
  for (const auto& request : requests) {
    Result<VmId> id = hypervisor.CreateVm(
        {.name = request.name, .memory_bytes = request.bytes, .socket = request.socket});
    SILOZ_CHECK(id.ok()) << id.error().ToString();
    Vm& vm = **hypervisor.GetVm(*id);
    const uint64_t reserved = vm.guest_nodes().size() * hypervisor.group_map().group_bytes();
    std::printf("  + %-13s %5lu MiB asked, %5lu MiB reserved (%zu group(s), %4.0f%% used)\n",
                request.name, static_cast<unsigned long>(request.bytes >> 20),
                static_cast<unsigned long>(reserved >> 20), vm.guest_nodes().size(),
                100.0 * static_cast<double>(request.bytes) / static_cast<double>(reserved));
    fleet.push_back(*id);
  }
  PrintCapacity("after morning batch", hypervisor);

  // The micro-VMs show the §8.1 fragmentation concern: a 512 MiB tenant
  // holds a 1.5 GiB group. Sub-NUMA clustering halves the granularity:
  {
    SncDecoder snc(geometry, 2);
    FlatPhysMemory snc_memory;
    SilozHypervisor snc_hypervisor(snc, snc_memory, SilozConfig{});
    SILOZ_CHECK(snc_hypervisor.Boot().ok());
    std::printf("\n§8.1: with SNC-2 the subarray group shrinks to %lu MiB, so a\n"
                "512 MiB micro-VM wastes %lu MiB instead of %lu MiB.\n",
                static_cast<unsigned long>(snc_hypervisor.group_map().group_bytes() >> 20),
                static_cast<unsigned long>(
                    (snc_hypervisor.group_map().group_bytes() - 512_MiB) >> 20),
                static_cast<unsigned long>((hypervisor.group_map().group_bytes() - 512_MiB) >> 20));
  }

  // Afternoon: the database shuts down. Its pages return to the node free
  // pools immediately, but the *reservation* survives until a privileged
  // operator destroys the control group (§5.3) — no accidental reuse.
  std::printf("\nShutting down 'database'...\n");
  SILOZ_CHECK(hypervisor.DestroyVm(fleet[1]).ok());
  PrintCapacity("after shutdown (still reserved)", hypervisor);
  std::printf("Releasing its control group...\n");
  SILOZ_CHECK(hypervisor.ReleaseVmNodes(fleet[1]).ok());
  PrintCapacity("after cgroup release", hypervisor);

  // Evening: a big tenant takes the freed capacity.
  Result<VmId> evening =
      hypervisor.CreateVm({.name = "analytics", .memory_bytes = 24_GiB, .socket = 0});
  SILOZ_CHECK(evening.ok()) << evening.error().ToString();
  std::printf("  + analytics reuses the database's groups\n");
  PrintCapacity("end of day", hypervisor);

  // Integrity posture, any time: every VM audits clean.
  for (VmId id : fleet) {
    if (id == fleet[1]) {
      continue;  // released
    }
    SILOZ_CHECK(hypervisor.AuditVmIsolation(id).ok());
  }
  std::printf("\nAll tenant audits: PASS\n");
  return 0;
}
