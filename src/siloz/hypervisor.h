// The Siloz hypervisor (§5): subarray groups as logical NUMA nodes, private
// per-VM placement, and guard-row-protected EPTs.
//
// The class models the memory-management plane of Linux/KVM with Siloz's
// modifications. With config.enabled == false it behaves as the unmodified
// baseline (one node per socket, EPTs in ordinary memory) so experiments can
// run the same workloads against both kernels, as the paper does.
#ifndef SILOZ_SRC_SILOZ_HYPERVISOR_H_
#define SILOZ_SRC_SILOZ_HYPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/addr/decoder.h"
#include "src/addr/subarray_group.h"
#include "src/base/mutex.h"
#include "src/base/result.h"
#include "src/ept/ept.h"
#include "src/ept/phys_memory.h"
#include "src/hostmem/cgroup.h"
#include "src/hostmem/numa.h"
#include "src/obs/metrics.h"
#include "src/siloz/config.h"
#include "src/siloz/vm.h"

namespace siloz {

// Thread-safety: the hypervisor is laid out per socket, like Siloz itself
// (each logical node belongs to one physical socket). Each socket's mutable
// state — its nodes' buddy allocators, its free guest nodes, its EPT pool,
// its VMs and their backing/EPT bookkeeping, its event counts — lives in one
// SocketDomain behind that domain's own mutex. CreateVm, DestroyVm,
// ReleaseVmNodes, GetVm, the device plane and the allocation-policy entry
// points lock only the socket they act on, so callers working on different
// sockets (the fleet simulator's socket-parallel replay) run in parallel.
// MigrateVm and HostShutdown take several socket locks, in ascending socket
// index. Three small shared tables sit behind leaf locks, taken after socket
// locks and never held while taking another: the VM id -> socket index, the
// device id -> socket index, and the cgroup registry. Boot() must
// happen-before any other call. The objects reachable by reference —
// nodes(), cgroups(), Vm* from GetVm() — are mutated only by lifecycle
// operations under those locks; callers that read them while other threads
// run lifecycle operations, or mutate them directly, need external
// synchronization (the fleet reads them behind its epoch barrier).
class SilozHypervisor {
 public:
  // `decoder` is the platform's fixed physical-to-media mapping; `memory` is
  // where EPT table bytes live (flat for performance runs, DRAM-backed for
  // security runs).
  SilozHypervisor(const AddressDecoder& decoder, PhysMemory& memory, SilozConfig config);
  // Flushes lifetime event counts into the global metrics registry.
  ~SilozHypervisor();

  SilozHypervisor(const SilozHypervisor&) = delete;
  SilozHypervisor& operator=(const SilozHypervisor&) = delete;

  // Early-boot computation (§5.3): derive subarray groups from the decoder,
  // provision logical nodes, reserve + guard the EPT block, offline guard
  // pages. Must be called exactly once before any allocation.
  Status Boot();

  // --- VM lifecycle (§5.3) ---

  // Creates a VM: reserves guest nodes (whole subarray groups), creates its
  // control group, statically allocates contiguous backing for all
  // unmediated regions, and builds its EPT via the GFP_EPT path.
  Result<VmId> CreateVm(const VmConfig& vm_config);

  // Frees the VM's memory to its nodes' free pools. Per §5.3 the nodes stay
  // reserved until the control group is destroyed (ReleaseVmNodes).
  // Idempotent: destroying an already-destroyed VM is a no-op returning Ok.
  // On a mid-teardown failure the freed prefix is recorded, so a retry after
  // the fault clears resumes where it stopped instead of double-freeing.
  Status DestroyVm(VmId id);

  // Destroys the (dead) VM's control group, returning its nodes to the
  // available pool. Privileged operation.
  Status ReleaseVmNodes(VmId id);

  // Moves a live VM to `target_socket` (§7: the defragmentation remedy for
  // stranded capacity under churn): reserves whole subarray groups there,
  // copies the guest image GPA-for-GPA, rebuilds the EPT from the target
  // socket's protected pool, and retargets the VM's control group. All
  // target-side reservations are transactional — any failure (target
  // exhausted, EPT pool empty, an armed fault point) rolls back and leaves
  // the VM untouched on its source socket. Siloz mode only (the baseline has
  // no subarray-group placement to move); VMs with passthrough devices must
  // drop them first, since their IOMMU tables pin the source placement.
  // The committed placement is re-audited before returning.
  Status MigrateVm(VmId id, uint32_t target_socket);

  Result<Vm*> GetVm(VmId id);

  // --- Passthrough IO (§5.1) ---
  //
  // The prototype's guest IO is paravirtual (virtio): the hypervisor mediates
  // all DMA. Secure SR-IOV passthrough additionally requires (1) an IOMMU
  // that restricts the device's DMAs to the guest's subarray-group ranges,
  // and (2) IOMMU page tables protected like EPT pages. Both are implemented
  // here: the IOMMU table is built from the same protected pool and maps the
  // VM's unmediated regions at their guest-physical addresses (IOVA = GPA).

  // Assigns a passthrough device to a VM; returns a device id.
  Result<uint32_t> AssignPassthroughDevice(VmId vm_id, const std::string& name);

  // A DMA issued by the device at `iova`: translated by its IOMMU and
  // bounds-checked against the owning VM's provisioned ranges. Returns the
  // HPA, or kPermissionDenied / kIntegrityViolation.
  Result<uint64_t> DeviceDma(uint32_t device_id, uint64_t iova);

  // Verifies the device's IOMMU mappings and table-page placement, like
  // AuditVmIsolation does for EPTs.
  Status AuditDeviceIsolation(uint32_t device_id) const;

  // Unassigns a device, returning its IOMMU table pages to the pool.
  Status RemovePassthroughDevice(uint32_t device_id);

  // HPAs of a device's IOMMU table pages (introspection for experiments).
  Result<std::vector<uint64_t>> DeviceTablePages(uint32_t device_id) const;

  // --- Host shutdown (§5.3) ---
  //
  // The privileged shutdown path kills every VM and releases all
  // reservations, ignoring otherwise-active subarray-group constraints.
  Status HostShutdown();

  // --- Allocation policy (§5.1-§5.3), exposed for tests and host use ---

  // Allocate (4 KiB << order) bytes from `node_id` on behalf of `group`.
  // Guest-reserved nodes require the UNMEDIATED flag, membership of the
  // node in the group's cpuset.mems, and KVM privileges.
  Result<uint64_t> AllocatePages(const ControlGroup& group, uint32_t node_id, uint32_t order,
                                 bool unmediated);
  Status FreePages(uint32_t node_id, uint64_t phys, uint32_t order);

  // --- Isolation audit ---

  // Re-walks every mapping of the VM's EPT and verifies each translation
  // lands inside the VM's provisioned ranges (and, for unmediated regions,
  // inside its private subarray groups). A hammered EPT that escaped would
  // fail with kIntegrityViolation; a secure-EPT checksum failure propagates.
  Status AuditVmIsolation(VmId id) const;

  // --- Introspection for experiments ---

  const SilozConfig& config() const { return config_; }
  bool booted() const { return booted_; }
  const SubarrayGroupMap& group_map() const { return *group_map_; }
  // Logical node owning a global subarray group id (Siloz mode only).
  Result<uint32_t> NodeOfGroup(uint32_t group) const;
  NodeRegistry& nodes() { return nodes_; }
  const NodeRegistry& nodes() const { return nodes_; }
  // Unlocked views of the registry, for quiescent callers only (see above).
  CgroupRegistry& cgroups() NO_THREAD_SAFETY_ANALYSIS { return cgroups_; }
  const CgroupRegistry& cgroups() const NO_THREAD_SAFETY_ANALYSIS { return cgroups_; }
  const AddressDecoder& decoder() const { return decoder_; }

  // Effective subarray size after artificial-group rounding (§6).
  uint32_t effective_rows_per_subarray() const { return effective_rows_per_subarray_; }
  bool using_artificial_groups() const { return using_artificial_groups_; }

  // DRAM reserved for EPT protection: guard pages + EPT row-group pages.
  uint64_t ept_reserved_bytes() const { return ept_reserved_bytes_; }
  // DRAM offlined for artificial-group boundary guards (§6).
  uint64_t artificial_guard_bytes() const { return artificial_guard_bytes_; }
  // DRAM offlined because of quarantined (inter-subarray-repaired) rows (§6).
  uint64_t quarantined_bytes() const { return quarantined_bytes_; }
  // Free pages remaining in the per-socket EPT pools.
  size_t ept_pool_free(uint32_t socket) const;
  // Physical extents holding EPT pages (for hammering experiments).
  const std::vector<PhysRange>& ept_pool_ranges(uint32_t socket) const;

  // Guest nodes not yet reserved by any VM cgroup on the given socket, in
  // ascending id order (the order CreateVm and MigrateVm place in).
  std::vector<uint32_t> AvailableGuestNodes(uint32_t socket) const;
  // AvailableGuestNodes(socket).size(), without the copy.
  size_t FreeGuestNodeCount(uint32_t socket) const;
  // The host-reserved node of a socket.
  Result<uint32_t> HostNode(uint32_t socket) const;

  // --- Conservation bookkeeping (tested by the fault-injection sweep) ---

  // Live entries in the per-VM backing / EPT-page maps, summed over
  // sockets. A failed CreateVm must leave no phantom entry behind.
  size_t backing_map_entries() const;
  size_t ept_page_map_entries() const;
  // EPT/IOMMU table pages drawn from MakeEptAllocator and not yet returned.
  uint64_t ept_pages_held() const;

 private:
  // One contiguous backing run of a VM.
  struct Backing {
    uint32_t node;
    uint64_t phys;
    uint64_t bytes;
    uint32_t order;  // block order the run was allocated in
  };

  // Lifetime event counts, flushed to the metrics registry at destruction.
  struct HvCounters {
    uint64_t alloc_pages = 0;      // successful AllocatePages blocks
    uint64_t alloc_denied = 0;     // kPermissionDenied by allocation policy
    uint64_t vms_created = 0;
    uint64_t vms_destroyed = 0;
    uint64_t vms_migrated = 0;     // counted on the target socket
    uint64_t ept_pool_pages = 0;   // pages seeded into the socket's EPT pool
    uint64_t ept_guard_pages = 0;  // guard-row pages offlined around them
    uint64_t ept_violations = 0;   // kIntegrityViolation detections
  };

  struct PassthroughDevice {
    std::string name;
    VmId vm;
    std::unique_ptr<ExtendedPageTable> iommu;
    std::vector<uint64_t> table_pages;
  };

  // Everything one socket owns that changes after Boot(). The buddy
  // allocators of the socket's nodes (in nodes_) are part of it too: they
  // are touched only through Node(domain, id), which requires domain.mu.
  struct SocketDomain {
    explicit SocketDomain(uint32_t socket_in) : socket(socket_in) {}

    const uint32_t socket;
    // Mutable so const paths (audits, DMA translation) can lock it to
    // count the integrity violations they detect.
    mutable Mutex mu;
    // The guest nodes no VM cgroup holds, in ascending id order. A guest
    // node is in exactly one of this set and the cgroup registry's index.
    std::set<uint32_t> free_guest_nodes GUARDED_BY(mu);
    // The protected EPT pool (guard-row mode).
    std::vector<uint64_t> ept_pool GUARDED_BY(mu);
    // Table pages handed out by MakeEptAllocator and not yet returned.
    uint64_t ept_pages_held GUARDED_BY(mu) = 0;
    std::map<VmId, std::unique_ptr<Vm>> vms GUARDED_BY(mu);
    std::set<VmId> destroyed_vms GUARDED_BY(mu);
    // Per-VM EPT pages (for release on destroy).
    std::map<VmId, std::vector<uint64_t>> vm_ept_pages GUARDED_BY(mu);
    std::map<VmId, std::vector<Backing>> vm_backing GUARDED_BY(mu);
    // Devices of this socket's VMs. A device pins its VM (MigrateVm refuses
    // it), so a device never changes socket.
    std::map<uint32_t, PassthroughDevice> devices GUARDED_BY(mu);
    mutable HvCounters counts GUARDED_BY(mu);
  };

  static constexpr uint32_t kNoSocket = UINT32_MAX;

  SocketDomain& Domain(uint32_t socket) const { return *domains_[socket]; }
  // The socket holding VM `id` (kNoSocket if none). The answer can go stale
  // as soon as the index lock drops: callers lock the domain and re-check.
  uint32_t SocketOfVm(VmId id) const;
  // Runs fn(domain) with the lock of the domain holding VM `id`, retrying if
  // the VM migrates between the index lookup and the lock; kNotFound if no
  // domain holds it. `fn` runs with domain.mu held (and must say so).
  template <typename Fn>
  auto WithVmDomain(VmId id, Fn&& fn) const;
  // Same for the domain holding device `device_id`.
  template <typename Fn>
  auto WithDeviceDomain(uint32_t device_id, Fn&& fn) const;

  // The node `node_id` of `domain`'s socket, whose allocator the caller may
  // then use (CHECKs that the node is the socket's).
  NumaNode& Node(SocketDomain& domain, uint32_t node_id) REQUIRES(domain.mu);

  // Lock-requiring bodies of the public lifecycle/device entry points, for
  // callers that already hold the socket lock(s).
  Status MigrateVmLocked(SocketDomain& source, SocketDomain& target, VmId id)
      REQUIRES(source.mu, target.mu);
  Status AuditVmIsolationLocked(const SocketDomain& domain, VmId id) const REQUIRES(domain.mu);
  Status DestroyVmLocked(SocketDomain& domain, VmId id) REQUIRES(domain.mu);
  Status ReleaseVmNodesLocked(SocketDomain& domain, VmId id) REQUIRES(domain.mu);
  Status RemovePassthroughDeviceLocked(SocketDomain& domain, uint32_t device_id)
      REQUIRES(domain.mu);
  // HostShutdown's body, run with every socket lock held. The analysis
  // cannot name a run-time set of locks, so these three are unchecked.
  void LockAllDomains() const NO_THREAD_SAFETY_ANALYSIS;
  void UnlockAllDomains() const NO_THREAD_SAFETY_ANALYSIS;
  Status HostShutdownLocked() NO_THREAD_SAFETY_ANALYSIS;

  // The first free guest nodes of the domain's socket, in ascending id
  // order, whose free capacity (in whole `backing_bytes` pages) covers
  // `bytes`; kNoMemory (worded "<where> N has only ...") if all of them fall
  // short. Costs O(nodes selected) on success.
  Result<std::vector<uint32_t>> SelectGuestNodesLocked(SocketDomain& domain, uint64_t bytes,
                                                       uint64_t backing_bytes,
                                                       const char* where) REQUIRES(domain.mu);
  // Move `nodes` (all of the domain's socket) out of / back into the free set.
  static void MarkGuestNodesOwnedLocked(SocketDomain& domain, const std::vector<uint32_t>& nodes)
      REQUIRES(domain.mu);
  static void MarkGuestNodesFreeLocked(SocketDomain& domain, const std::vector<uint32_t>& nodes)
      REQUIRES(domain.mu);

  // Contiguously allocate `bytes` from `node` in blocks of `order`,
  // returning the start address (node must have a contiguous free run).
  Result<uint64_t> AllocateContiguous(NumaNode& node, uint64_t bytes, uint32_t order);

  // Allocate `bytes` from `node` as few maximal contiguous runs as possible
  // (guard-row offlining can fragment a group). All-or-nothing.
  Result<std::vector<PhysRange>> AllocateRuns(NumaNode& node, uint64_t bytes, uint32_t order);

  // Physical extent of row group `row` in (socket, cluster): verifies the
  // decoder keeps row groups contiguous (kUnsupported otherwise).
  Result<PhysRange> RowGroupExtent(uint32_t socket, uint32_t cluster, uint32_t row) const;

  // Reserve the §5.4 EPT block in the first host group of each socket:
  // offline the b-1 guard row groups, seed the EPT pool from the EPT row
  // group.
  Status ReserveEptBlocks();
  Status OfflineArtificialBoundaryGuards();
  // §6 row-repair handling: offline every page with bytes in a quarantined
  // (inter-subarray-repaired) row.
  Status QuarantineRepairedRows();

  // The returned allocator runs inside CreateVm/MigrateVm/
  // AssignPassthroughDevice with domain.mu held (its body asserts so).
  EptPageAllocator MakeEptAllocator(SocketDomain& domain, std::vector<uint64_t>* pages_out);

  // Return one table page drawn from MakeEptAllocator(domain, ...): back to
  // the protected pool in guard mode, else to the socket's host node.
  Status ReturnEptPage(SocketDomain& domain, uint64_t page) REQUIRES(domain.mu);

  // Free `backing` block by block, recording progress in place: each freed
  // block advances backing.phys and shrinks backing.bytes, so a failure
  // leaves `backing` describing exactly the still-allocated suffix.
  Status FreeBackingBlocks(SocketDomain& domain, Backing& backing) REQUIRES(domain.mu);

  // Mirror a change of a socket's EPT pool level and table pages held into
  // the hv.ept.* scheduler-domain gauges. The gauges sum over every live
  // hypervisor: each adds its own deltas (never another socket's state)
  // and takes its remaining share back at destruction.
  void AddEptGauges(int64_t pool_delta, int64_t held_delta) {
    gauge_pool_free_.Add(pool_delta);
    gauge_pages_in_use_.Add(held_delta);
  }

  // Logical node owning a global subarray group id.
  Result<NumaNode*> NodeFor(uint32_t group);

  const AddressDecoder& decoder_;
  PhysMemory& memory_;
  SilozConfig config_;
  bool booted_ = false;
  obs::Gauge& gauge_pool_free_;
  obs::Gauge& gauge_pages_in_use_;

  // Boot-time layout (stable after Boot(); read without a lock).
  uint32_t effective_rows_per_subarray_ = 0;
  bool using_artificial_groups_ = false;
  std::unique_ptr<SubarrayGroupMap> group_map_;
  NodeRegistry nodes_;
  std::vector<uint32_t> host_node_by_socket_;
  // global subarray group id -> node id (Siloz mode only).
  std::vector<uint32_t> node_of_group_;
  std::vector<std::vector<PhysRange>> ept_pool_ranges_;
  uint64_t ept_reserved_bytes_ = 0;
  uint64_t artificial_guard_bytes_ = 0;
  uint64_t quarantined_bytes_ = 0;
  // One per socket; the vector itself is boot-time layout.
  std::vector<std::unique_ptr<SocketDomain>> domains_;

  // Leaf-locked shared tables.
  mutable Mutex index_mu_;
  // Live (created, not yet released) VM -> its socket, rewritten by a
  // migration under both socket locks.
  std::unordered_map<VmId, uint32_t> vm_socket_ GUARDED_BY(index_mu_);
  // Assigned device -> its socket (fixed for the device's life).
  std::unordered_map<uint32_t, uint32_t> device_socket_ GUARDED_BY(index_mu_);
  std::atomic<VmId> next_vm_id_{1};
  std::atomic<uint32_t> next_device_id_{1};
  // The cgroup registry; cgroups() hands out unlocked views.
  mutable Mutex cgroups_mu_;
  CgroupRegistry cgroups_ GUARDED_BY(cgroups_mu_);
};

}  // namespace siloz

#endif  // SILOZ_SRC_SILOZ_HYPERVISOR_H_
