// Quickstart: boot Siloz, inspect the logical NUMA topology it builds,
// create a VM, and audit its isolation.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "src/addr/decoder.h"
#include "src/base/flags.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

using namespace siloz;

int main(int argc, char** argv) {
  siloz::FlagSet(argv[0], "Quickstart: boot Siloz, create a VM, audit its isolation").Parse(argc, argv);
  // 1. The platform: the paper's evaluation server (Table 2) — dual-socket
  //    Skylake, 192 banks and 192 GiB per socket, 1024-row subarrays.
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  std::printf("Platform: %s\n\n", geometry.ToString().c_str());

  // 2. Boot the Siloz hypervisor. At boot it derives subarray groups from
  //    the physical-to-media decoder, turns each group into a logical NUMA
  //    node, and reserves the guard-protected EPT block (§5.3-§5.4).
  FlatPhysMemory memory;  // performance-mode byte store
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  if (Status status = hypervisor.Boot(); !status.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", status.error().ToString().c_str());
    return 1;
  }

  std::printf("Logical NUMA topology (%zu nodes):\n", hypervisor.nodes().node_count());
  std::printf("  host-reserved : %zu\n",
              hypervisor.nodes().NodesOfKind(NodeKind::kHostReserved).size());
  std::printf("  guest-reserved: %zu (one per free subarray group)\n",
              hypervisor.nodes().NodesOfKind(NodeKind::kGuestReserved).size());
  std::printf("  subarray group: %lu MiB; EPT guard block: %lu KiB/socket (%.4f%% of DRAM)\n\n",
              static_cast<unsigned long>(hypervisor.group_map().group_bytes() >> 20),
              static_cast<unsigned long>(hypervisor.ept_reserved_bytes() / 2 >> 10),
              100.0 * static_cast<double>(hypervisor.ept_reserved_bytes()) /
                  static_cast<double>(geometry.total_bytes()));

  // 3. Create a VM. Siloz reserves whole subarray groups for it, creates its
  //    control group, statically allocates 2 MiB-backed contiguous memory,
  //    and builds its EPT from the protected pool.
  VmConfig config{.name = "demo", .memory_bytes = 4_GiB, .socket = 0};
  Result<VmId> id = hypervisor.CreateVm(config);
  if (!id.ok()) {
    std::fprintf(stderr, "CreateVm failed: %s\n", id.error().ToString().c_str());
    return 1;
  }
  Vm& vm = **hypervisor.GetVm(*id);
  std::printf("VM '%s': %zu guest node(s), %zu EPT table pages, regions:\n",
              vm.config().name.c_str(), vm.guest_nodes().size(),
              vm.ept()->table_page_count());
  for (const VmRegion& region : vm.regions()) {
    std::printf("  %-10s GPA 0x%09lx -> HPA 0x%09lx (%lu MiB, %s)\n",
                MemoryTypeName(region.type), static_cast<unsigned long>(region.gpa),
                static_cast<unsigned long>(region.hpa),
                static_cast<unsigned long>(region.bytes >> 20),
                IsUnmediated(region.type) ? "unmediated" : "mediated");
  }

  // 4. Every unmediated page is confined to the VM's private groups; the
  //    audit re-walks the EPT and verifies it.
  Status audit = hypervisor.AuditVmIsolation(*id);
  std::printf("\nIsolation audit: %s\n", audit.ok() ? "PASS" : audit.error().ToString().c_str());

  // 5. Translate one guest address end to end.
  const uint64_t gpa = 123 * kPage2M + 0x1234;
  const uint64_t hpa = *vm.ept()->Translate(gpa);
  const MediaAddress media = *decoder.PhysToMedia(hpa);
  std::printf("GPA 0x%lx -> HPA 0x%lx -> %s (subarray group %u)\n",
              static_cast<unsigned long>(gpa), static_cast<unsigned long>(hpa),
              media.ToString().c_str(), *hypervisor.group_map().GroupOfPhys(hpa));
  return audit.ok() ? 0 : 1;
}
