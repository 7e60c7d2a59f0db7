#include "src/siloz/hypervisor.h"

#include <algorithm>

#include "src/base/bitops.h"
#include "src/base/check.h"
#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/base/transaction.h"
#include "src/base/units.h"
#include "src/dram/remap.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz {
namespace {

uint32_t OrderOf(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return kOrder4K;
    case PageSize::k2M:
      return kOrder2M;
    case PageSize::k1G:
      return kOrder1G;
  }
  return kOrder4K;
}

}  // namespace

SilozHypervisor::SilozHypervisor(const AddressDecoder& decoder, PhysMemory& memory,
                                 SilozConfig config)
    : decoder_(decoder),
      memory_(memory),
      config_(config),
      // Scheduler domain, not model: concurrent trials each run a
      // hypervisor, so the levels depend on which ones are alive.
      gauge_pool_free_(obs::Registry::Global().GetGauge("hv.ept.pool_free", obs::Domain::kSched)),
      gauge_pages_in_use_(
          obs::Registry::Global().GetGauge("hv.ept.pages_in_use", obs::Domain::kSched)) {}

SilozHypervisor::~SilozHypervisor() {
  // Deterministic flush point: pure event totals, independent of thread
  // count or timing (see DESIGN.md on the metrics determinism contract).
  // Zero counts are skipped; zero-ness is deterministic, so the exported
  // key set still matches across thread counts.
  HvCounters total;
  for (const std::unique_ptr<SocketDomain>& domain : domains_) {
    MutexLock lock(domain->mu);
    const HvCounters& counts = domain->counts;
    total.alloc_pages += counts.alloc_pages;
    total.alloc_denied += counts.alloc_denied;
    total.vms_created += counts.vms_created;
    total.vms_destroyed += counts.vms_destroyed;
    total.vms_migrated += counts.vms_migrated;
    total.ept_pool_pages += counts.ept_pool_pages;
    total.ept_guard_pages += counts.ept_guard_pages;
    total.ept_violations += counts.ept_violations;
    // Take this hypervisor's share back out of the hv.ept.* gauges.
    AddEptGauges(-static_cast<int64_t>(domain->ept_pool.size()),
                 -static_cast<int64_t>(domain->ept_pages_held));
  }
  obs::Registry& registry = obs::Registry::Global();
  const auto flush = [&registry](const char* name, uint64_t value) {
    if (value > 0) {
      registry.GetCounter(name).Add(value);
    }
  };
  flush("hv.alloc.pages", total.alloc_pages);
  flush("hv.alloc.denied", total.alloc_denied);
  flush("hv.vm.created", total.vms_created);
  flush("hv.vm.destroyed", total.vms_destroyed);
  flush("hv.vm.migrated", total.vms_migrated);
  flush("hv.ept.pool_pages", total.ept_pool_pages);
  flush("hv.ept.guard_pages", total.ept_guard_pages);
  flush("hv.ept.violations", total.ept_violations);
}

Status SilozHypervisor::Boot() {
  obs::TraceSpan span("hv.Boot");
  if (booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "already booted");
  }
  const DramGeometry& geometry = decoder_.geometry();
  host_node_by_socket_.assign(geometry.sockets, 0);
  ept_pool_ranges_.assign(geometry.sockets, {});
  domains_.clear();
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    domains_.push_back(std::make_unique<SocketDomain>(socket));
  }

  if (!config_.enabled) {
    // Unmodified baseline: one node per socket covering all of its memory.
    effective_rows_per_subarray_ = geometry.rows_per_subarray;
    for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
      const uint64_t begin = socket * geometry.socket_bytes();
      NumaNode& node = nodes_.AddNode(NodeKind::kHostReserved, socket, /*first_group=*/0,
                                      {PhysRange{begin, begin + geometry.socket_bytes()}},
                                      /*has_cpus=*/true);
      host_node_by_socket_[socket] = node.id();
    }
    std::set<uint32_t> host_nodes;
    for (uint32_t node : host_node_by_socket_) {
      host_nodes.insert(node);
    }
    MutexLock lock(cgroups_mu_);
    Result<ControlGroup*> host_cgroup = cgroups_.Create("host", host_nodes, true);
    SILOZ_RETURN_IF_ERROR(host_cgroup);
    booted_ = true;
    return Status::Ok();
  }

  // §6: round non-power-of-2 subarray sizes up to artificial groups —
  // except on DDR5-style platforms whose devices all see the same internal
  // addresses (§8.2), where any size dividing the bank is managed natively.
  effective_rows_per_subarray_ = config_.rows_per_subarray;
  if (!IsPowerOfTwo(effective_rows_per_subarray_)) {
    const bool native_ok = config_.uniform_internal_addressing &&
                           geometry.rows_per_bank % effective_rows_per_subarray_ == 0;
    if (!native_ok) {
      if (!config_.allow_artificial_groups) {
        return MakeError(ErrorCode::kUnsupported,
                         "non-power-of-2 subarray size requires artificial groups");
      }
      effective_rows_per_subarray_ =
          static_cast<uint32_t>(NextPowerOfTwo(effective_rows_per_subarray_));
      using_artificial_groups_ = true;
      SILOZ_LOG(kInfo) << "artificial subarray groups: " << config_.rows_per_subarray
                       << " rows rounded to " << effective_rows_per_subarray_;
    }
  }

  // Boot-time subarray group computation (§5.3).
  Result<SubarrayGroupMap> map = SubarrayGroupMap::Build(decoder_, effective_rows_per_subarray_);
  SILOZ_RETURN_IF_ERROR(map);
  group_map_ = std::make_unique<SubarrayGroupMap>(std::move(*map));

  const uint32_t clusters = group_map_->clusters_per_socket();
  const uint32_t groups_per_cluster = group_map_->groups_per_cluster();
  if (config_.host_groups_per_socket == 0 ||
      config_.host_groups_per_socket >= groups_per_cluster) {
    return MakeError(ErrorCode::kInvalidArgument, "host_groups_per_socket out of range");
  }

  // Provision one host-reserved node (first host_groups_per_socket groups of
  // each cluster) and one guest-reserved, memory-only node per remaining
  // group (§5.2).
  std::set<uint32_t> host_nodes;
  node_of_group_.assign(group_map_->total_groups(), 0);
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    SocketDomain& domain = Domain(socket);
    MutexLock lock(domain.mu);
    for (uint32_t cluster = 0; cluster < clusters; ++cluster) {
      const uint32_t first_group = (socket * clusters + cluster) * groups_per_cluster;
      std::vector<PhysRange> host_ranges;
      for (uint32_t g = 0; g < config_.host_groups_per_socket; ++g) {
        const auto& ranges = group_map_->RangesOf(first_group + g);
        host_ranges.insert(host_ranges.end(), ranges.begin(), ranges.end());
      }
      NumaNode& host = nodes_.AddNode(NodeKind::kHostReserved, socket, first_group,
                                      std::move(host_ranges), /*has_cpus=*/true);
      host_nodes.insert(host.id());
      for (uint32_t g = 0; g < config_.host_groups_per_socket; ++g) {
        node_of_group_[first_group + g] = host.id();
      }
      if (cluster == 0) {
        host_node_by_socket_[socket] = host.id();
      }
      for (uint32_t g = config_.host_groups_per_socket; g < groups_per_cluster; ++g) {
        NumaNode& guest = nodes_.AddNode(NodeKind::kGuestReserved, socket, first_group + g,
                                         group_map_->RangesOf(first_group + g),
                                         /*has_cpus=*/false);
        node_of_group_[first_group + g] = guest.id();
        domain.free_guest_nodes.insert(guest.id());
      }
    }
  }
  {
    MutexLock lock(cgroups_mu_);
    Result<ControlGroup*> host_cgroup = cgroups_.Create("host", host_nodes, true);
    SILOZ_RETURN_IF_ERROR(host_cgroup);
  }

  if (!config_.quarantined_rows.empty()) {
    SILOZ_RETURN_IF_ERROR(QuarantineRepairedRows());
  }
  if (using_artificial_groups_) {
    SILOZ_RETURN_IF_ERROR(OfflineArtificialBoundaryGuards());
  }
  if (config_.ept_protection == EptProtection::kGuardRows) {
    SILOZ_RETURN_IF_ERROR(ReserveEptBlocks());
  }
  booted_ = true;
  return Status::Ok();
}

Status SilozHypervisor::QuarantineRepairedRows() {
  const DramGeometry& geometry = decoder_.geometry();
  std::set<uint64_t> pages;
  for (MediaAddress row : config_.quarantined_rows) {
    // Every 4 KiB page holding any cache line of the repaired row.
    for (uint32_t column = 0; column < geometry.row_bytes; column += kCacheLineBytes) {
      row.column = column;
      Result<uint64_t> phys = decoder_.MediaToPhys(row);
      SILOZ_RETURN_IF_ERROR(phys);
      pages.insert(AlignDown(*phys, kPage4K));
    }
  }
  for (uint64_t page : pages) {
    Result<uint32_t> group = group_map_->GroupOfPhys(page);
    SILOZ_RETURN_IF_ERROR(group);
    Result<NumaNode*> node = NodeFor(*group);
    SILOZ_RETURN_IF_ERROR(node);
    SILOZ_RETURN_IF_ERROR((*node)->allocator().OfflinePage(page));
    quarantined_bytes_ += kPage4K;
  }
  SILOZ_LOG(kInfo) << "quarantined " << config_.quarantined_rows.size() << " repaired row(s): "
                   << pages.size() << " pages offlined";
  return Status::Ok();
}

Result<PhysRange> SilozHypervisor::RowGroupExtent(uint32_t socket, uint32_t cluster,
                                                  uint32_t row) const {
  const DramGeometry& geometry = decoder_.geometry();
  const uint32_t clusters = group_map_->clusters_per_socket();
  const uint64_t row_group_bytes =
      static_cast<uint64_t>(geometry.banks_per_socket() / clusters) * geometry.row_bytes;
  const uint32_t group = (socket * clusters + cluster) * group_map_->groups_per_cluster() +
                         row / effective_rows_per_subarray_;
  for (const PhysRange& range : group_map_->RangesOf(group)) {
    for (uint64_t start = range.begin; start + row_group_bytes <= range.end;
         start += row_group_bytes) {
      Result<MediaAddress> first = decoder_.PhysToMedia(start);
      SILOZ_RETURN_IF_ERROR(first);
      if (first->row != row) {
        continue;
      }
      // Verify the block really is one row group: its last line must map to
      // the same row (true for interleaving decoders; not for linear ones).
      Result<MediaAddress> last = decoder_.PhysToMedia(start + row_group_bytes - kCacheLineBytes);
      SILOZ_RETURN_IF_ERROR(last);
      Result<MediaAddress> mid = decoder_.PhysToMedia(start + row_group_bytes / 2);
      SILOZ_RETURN_IF_ERROR(mid);
      if (last->row != row || mid->row != row) {
        return MakeError(ErrorCode::kUnsupported,
                         "decoder does not keep row groups physically contiguous");
      }
      return PhysRange{start, start + row_group_bytes};
    }
  }
  return MakeError(ErrorCode::kNotFound, "row group not found in group extents");
}

Result<uint32_t> SilozHypervisor::NodeOfGroup(uint32_t group) const {
  if (group >= node_of_group_.size()) {
    return MakeError(ErrorCode::kOutOfRange, "no group " + std::to_string(group));
  }
  return node_of_group_[group];
}

Result<NumaNode*> SilozHypervisor::NodeFor(uint32_t group) {
  if (group >= node_of_group_.size()) {
    return MakeError(ErrorCode::kOutOfRange, "no group " + std::to_string(group));
  }
  return nodes_.Get(node_of_group_[group]);
}

Status SilozHypervisor::OfflineArtificialBoundaryGuards() {
  // §6: artificial subarray boundaries do not coincide with silicon
  // isolation, so n guard rows are reserved at each boundary. The guards
  // live at *internal* rows [boundary, boundary+n); their media images
  // differ per rank (mirroring) and half-row side (inversion), so every
  // transform image must be offlined — this is the paper's "accounting for
  // mappings on different ranks and sides" that yields ~1.56% (512 rows) to
  // ~0.39% (2048 rows) of DRAM.
  const uint32_t guard_rows = config_.artificial_boundary_guard_rows;
  for (uint32_t group = 0; group < group_map_->total_groups(); ++group) {
    const uint32_t socket = group_map_->SocketOfGroup(group);
    const uint32_t cluster = group_map_->ClusterOfGroup(group);
    const uint32_t start_row = group_map_->IndexInCluster(group) * effective_rows_per_subarray_;
    std::set<uint32_t> media_rows;
    for (uint32_t r = 0; r < guard_rows; ++r) {
      const uint32_t internal = start_row + r;
      for (uint32_t rank : {0u, 1u}) {
        for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
          // Mirroring and inversion are involutions: the media row whose
          // internal image is `internal` is the transform of `internal`.
          uint32_t media = RowRemapper::ApplyInversion(internal, side);
          media = RowRemapper::ApplyMirroring(media, rank);
          media_rows.insert(media);
        }
      }
    }
    for (uint32_t media_row : media_rows) {
      // A transform image may land in a neighbouring group's row range (e.g.
      // b9 inversion with 512-row groups); offline from the owning node.
      const uint32_t owning_group =
          (socket * group_map_->clusters_per_socket() + cluster) *
              group_map_->groups_per_cluster() +
          media_row / effective_rows_per_subarray_;
      Result<NumaNode*> node = NodeFor(owning_group);
      SILOZ_RETURN_IF_ERROR(node);
      Result<PhysRange> extent = RowGroupExtent(socket, cluster, media_row);
      SILOZ_RETURN_IF_ERROR(extent);
      for (uint64_t page = extent->begin; page < extent->end; page += kPage4K) {
        SILOZ_RETURN_IF_ERROR((*node)->allocator().OfflinePage(page));
        artificial_guard_bytes_ += kPage4K;
      }
    }
  }
  return Status::Ok();
}

Status SilozHypervisor::ReserveEptBlocks() {
  // §5.4: a contiguous block of b row groups in the first host group of each
  // socket; the row group at offset o holds EPT pages, the other b-1 are
  // guard rows (offlined).
  const uint32_t b = config_.ept_block_row_groups;
  const uint32_t o = config_.ept_row_group_offset;
  if (o >= b) {
    return MakeError(ErrorCode::kInvalidArgument, "ept_row_group_offset must be < block size");
  }
  const uint32_t skip = using_artificial_groups_ ? config_.artificial_boundary_guard_rows : 0;
  for (uint32_t socket = 0; socket < decoder_.geometry().sockets; ++socket) {
    SocketDomain& domain = Domain(socket);
    MutexLock lock(domain.mu);
    NumaNode& host = Node(domain, host_node_by_socket_[socket]);
    for (uint32_t r = 0; r < b; ++r) {
      Result<PhysRange> extent = RowGroupExtent(socket, /*cluster=*/0, skip + r);
      SILOZ_RETURN_IF_ERROR(extent);
      if (r == o) {
        // EPT row group: pull its pages out of general allocation and seed
        // the per-socket EPT pool.
        for (uint64_t page = extent->begin; page < extent->end; page += kPage4K) {
          SILOZ_RETURN_IF_ERROR(host.allocator().AllocateAt(page, kOrder4K));
          domain.ept_pool.push_back(page);
          AddEptGauges(+1, 0);
          ++domain.counts.ept_pool_pages;
        }
        ept_pool_ranges_[socket].push_back(*extent);
      } else {
        for (uint64_t page = extent->begin; page < extent->end; page += kPage4K) {
          SILOZ_RETURN_IF_ERROR(host.allocator().OfflinePage(page));
          ++domain.counts.ept_guard_pages;
        }
      }
      ept_reserved_bytes_ += extent->size();
    }
  }
  return Status::Ok();
}

NumaNode& SilozHypervisor::Node(SocketDomain& domain, uint32_t node_id) {
  NumaNode& node = *nodes_.Get(node_id).value();
  SILOZ_CHECK_EQ(node.physical_socket(), domain.socket)
      << "node " << node_id << " is not on socket " << domain.socket;
  return node;
}

Result<uint64_t> SilozHypervisor::AllocatePages(const ControlGroup& group, uint32_t node_id,
                                                uint32_t order, bool unmediated) {
  if (!booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not booted");
  }
  Result<NumaNode*> found = nodes_.Get(node_id);
  SILOZ_RETURN_IF_ERROR(found);
  SocketDomain& domain = Domain((*found)->physical_socket());
  MutexLock lock(domain.mu);
  NumaNode& node = Node(domain, node_id);
  if (node.kind() == NodeKind::kGuestReserved) {
    // §5.3: guest-reserved nodes serve only UNMEDIATED requests from
    // KVM-privileged processes whose cgroup includes the node.
    if (!unmediated) {
      ++domain.counts.alloc_denied;
      return MakeError(ErrorCode::kPermissionDenied,
                       "mediated allocation from guest-reserved node " + std::to_string(node_id));
    }
    if (!group.MayAllocateFrom(node_id)) {
      ++domain.counts.alloc_denied;
      return MakeError(ErrorCode::kPermissionDenied,
                       "cgroup '" + group.name() + "' lacks node " + std::to_string(node_id));
    }
    if (!group.kvm_privileged()) {
      ++domain.counts.alloc_denied;
      return MakeError(ErrorCode::kPermissionDenied,
                       "cgroup '" + group.name() + "' lacks KVM privileges");
    }
  }
  Result<uint64_t> page = node.allocator().Allocate(order);
  if (page.ok()) {
    ++domain.counts.alloc_pages;
  }
  return page;
}

Status SilozHypervisor::FreePages(uint32_t node_id, uint64_t phys, uint32_t order) {
  Result<NumaNode*> found = nodes_.Get(node_id);
  SILOZ_RETURN_IF_ERROR(found);
  SocketDomain& domain = Domain((*found)->physical_socket());
  MutexLock lock(domain.mu);
  return Node(domain, node_id).allocator().Free(phys, order);
}

Result<uint64_t> SilozHypervisor::AllocateContiguous(NumaNode& node, uint64_t bytes,
                                                     uint32_t order) {
  SILOZ_FAULT_POINT("alloc.hv.contiguous");
  const uint64_t block = OrderBytes(order);
  SILOZ_CHECK_EQ(bytes % block, 0u);
  for (const PhysRange& range : node.ranges()) {
    uint64_t start = AlignUp(range.begin, block);
    while (start + bytes <= range.end) {
      uint64_t cursor = start;
      bool complete = true;
      for (; cursor < start + bytes; cursor += block) {
        if (!node.allocator().AllocateAt(cursor, order).ok()) {
          complete = false;
          break;
        }
      }
      if (complete) {
        return start;
      }
      // Roll back the partial run and restart past the obstruction.
      for (uint64_t undo = start; undo < cursor; undo += block) {
        SILOZ_CHECK(node.allocator().Free(undo, order).ok());
      }
      start = cursor + block;
    }
  }
  return MakeError(ErrorCode::kNoMemory,
                   "no contiguous run of " + std::to_string(bytes) + " bytes in node " +
                       std::to_string(node.id()));
}

Result<std::vector<PhysRange>> SilozHypervisor::AllocateRuns(NumaNode& node, uint64_t bytes,
                                                             uint32_t order) {
  SILOZ_FAULT_POINT("alloc.hv.runs");
  const uint64_t block = OrderBytes(order);
  SILOZ_CHECK_EQ(bytes % block, 0u);
  std::vector<PhysRange> runs;
  uint64_t remaining = bytes;
  for (const PhysRange& range : node.ranges()) {
    for (uint64_t cursor = AlignUp(range.begin, block);
         remaining > 0 && cursor + block <= range.end; cursor += block) {
      if (!node.allocator().AllocateAt(cursor, order).ok()) {
        continue;  // offlined or already-used block; skip past it
      }
      remaining -= block;
      if (!runs.empty() && runs.back().end == cursor) {
        runs.back().end = cursor + block;
      } else {
        runs.push_back(PhysRange{cursor, cursor + block});
      }
    }
    if (remaining == 0) {
      break;
    }
  }
  if (remaining != 0) {
    for (const PhysRange& run : runs) {
      for (uint64_t p = run.begin; p < run.end; p += block) {
        SILOZ_CHECK(node.allocator().Free(p, order).ok());
      }
    }
    return MakeError(ErrorCode::kNoMemory,
                     "node " + std::to_string(node.id()) + " lacks " + std::to_string(bytes) +
                         " free bytes at order " + std::to_string(order));
  }
  return runs;
}

std::vector<uint32_t> SilozHypervisor::AvailableGuestNodes(uint32_t socket) const {
  const SocketDomain& domain = Domain(socket);
  MutexLock lock(domain.mu);
  return std::vector<uint32_t>(domain.free_guest_nodes.begin(), domain.free_guest_nodes.end());
}

// siloz-lint: allow(fault-point-coverage): a read-only count, not a release.
size_t SilozHypervisor::FreeGuestNodeCount(uint32_t socket) const {
  const SocketDomain& domain = Domain(socket);
  MutexLock lock(domain.mu);
  return domain.free_guest_nodes.size();
}

Result<std::vector<uint32_t>> SilozHypervisor::SelectGuestNodesLocked(SocketDomain& domain,
                                                                      uint64_t bytes,
                                                                      uint64_t backing_bytes,
                                                                      const char* where) {
  std::vector<uint32_t> selected;
  uint64_t capacity = 0;
  for (uint32_t node_id : domain.free_guest_nodes) {
    if (capacity >= bytes) {
      break;
    }
    selected.push_back(node_id);
    capacity += AlignDown(Node(domain, node_id).allocator().free_bytes(), backing_bytes);
  }
  if (capacity < bytes) {
    return MakeError(ErrorCode::kNoMemory, std::string(where) + " " +
                                               std::to_string(domain.socket) + " has only " +
                                               std::to_string(capacity) +
                                               " free guest-node bytes of " +
                                               std::to_string(bytes) + " needed");
  }
  return selected;
}

void SilozHypervisor::MarkGuestNodesOwnedLocked(SocketDomain& domain,
                                                const std::vector<uint32_t>& nodes) {
  for (uint32_t node : nodes) {
    SILOZ_CHECK_EQ(domain.free_guest_nodes.erase(node), 1u) << "node " << node << " is not free";
  }
}

void SilozHypervisor::MarkGuestNodesFreeLocked(SocketDomain& domain,
                                               const std::vector<uint32_t>& nodes) {
  for (uint32_t node : nodes) {
    SILOZ_CHECK(domain.free_guest_nodes.insert(node).second)
        << "node " << node << " is already free";
  }
}

Result<uint32_t> SilozHypervisor::HostNode(uint32_t socket) const {
  if (socket >= host_node_by_socket_.size()) {
    return MakeError(ErrorCode::kOutOfRange, "no socket " + std::to_string(socket));
  }
  return host_node_by_socket_[socket];
}

EptPageAllocator SilozHypervisor::MakeEptAllocator(SocketDomain& domain,
                                                   std::vector<uint64_t>* pages_out) {
  if (config_.enabled && config_.ept_protection == EptProtection::kGuardRows) {
    // The GFP_EPT path (§5.4): pages come from the protected row group.
    return [this, &domain, pages_out]() -> Result<uint64_t> {
      domain.mu.AssertHeld();  // runs inside CreateVm/MigrateVm/AssignPassthroughDevice
      if (domain.ept_pool.empty()) {
        return MakeError(ErrorCode::kNoMemory, "EPT pool exhausted");
      }
      const uint64_t page = domain.ept_pool.back();
      domain.ept_pool.pop_back();
      pages_out->push_back(page);
      ++domain.ept_pages_held;
      AddEptGauges(-1, +1);
      return page;
    };
  }
  // Baseline / secure-EPT: ordinary host-node memory.
  const uint32_t host_node = host_node_by_socket_[domain.socket];
  return [this, &domain, host_node, pages_out]() -> Result<uint64_t> {
    domain.mu.AssertHeld();  // runs inside CreateVm/MigrateVm/AssignPassthroughDevice
    Result<uint64_t> page = Node(domain, host_node).allocator().Allocate(kOrder4K);
    SILOZ_RETURN_IF_ERROR(page);
    pages_out->push_back(*page);
    ++domain.ept_pages_held;
    AddEptGauges(0, +1);
    return *page;
  };
}

Status SilozHypervisor::ReturnEptPage(SocketDomain& domain, uint64_t page) {
  if (config_.enabled && config_.ept_protection == EptProtection::kGuardRows) {
    domain.ept_pool.push_back(page);
    AddEptGauges(+1, 0);
  } else {
    SILOZ_RETURN_IF_ERROR(
        Node(domain, host_node_by_socket_[domain.socket]).allocator().Free(page, kOrder4K));
  }
  SILOZ_CHECK_GT(domain.ept_pages_held, 0u);
  --domain.ept_pages_held;
  AddEptGauges(0, -1);
  return Status::Ok();
}

Status SilozHypervisor::FreeBackingBlocks(SocketDomain& domain, Backing& backing) {
  NumaNode& node = Node(domain, backing.node);
  const uint64_t block = OrderBytes(backing.order);
  while (backing.bytes > 0) {
    SILOZ_RETURN_IF_ERROR(node.allocator().Free(backing.phys, backing.order));
    backing.phys += block;
    backing.bytes -= block;
  }
  return Status::Ok();
}

uint32_t SilozHypervisor::SocketOfVm(VmId id) const {
  MutexLock lock(index_mu_);
  auto it = vm_socket_.find(id);
  return it == vm_socket_.end() ? kNoSocket : it->second;
}

template <typename Fn>
auto SilozHypervisor::WithVmDomain(VmId id, Fn&& fn) const {
  using R = decltype(fn(std::declval<SocketDomain&>()));
  while (true) {
    const uint32_t socket = SocketOfVm(id);
    if (socket == kNoSocket) {
      return R(MakeError(ErrorCode::kNotFound, "no VM " + std::to_string(id)));
    }
    SocketDomain& domain = Domain(socket);
    MutexLock lock(domain.mu);
    if (domain.vms.count(id) != 0) {
      return fn(domain);
    }
    // Migrated between the lookup and the lock (or released): look again.
  }
}

template <typename Fn>
auto SilozHypervisor::WithDeviceDomain(uint32_t device_id, Fn&& fn) const {
  using R = decltype(fn(std::declval<SocketDomain&>()));
  uint32_t socket = kNoSocket;
  {
    MutexLock lock(index_mu_);
    auto it = device_socket_.find(device_id);
    if (it != device_socket_.end()) {
      socket = it->second;
    }
  }
  if (socket != kNoSocket) {
    SocketDomain& domain = Domain(socket);
    MutexLock lock(domain.mu);
    // Devices never change socket, but one may be removed in between.
    if (domain.devices.count(device_id) != 0) {
      return fn(domain);
    }
  }
  return R(MakeError(ErrorCode::kNotFound, "no device " + std::to_string(device_id)));
}

size_t SilozHypervisor::backing_map_entries() const {
  size_t entries = 0;
  for (const std::unique_ptr<SocketDomain>& domain : domains_) {
    MutexLock lock(domain->mu);
    entries += domain->vm_backing.size();
  }
  return entries;
}

size_t SilozHypervisor::ept_page_map_entries() const {
  size_t entries = 0;
  for (const std::unique_ptr<SocketDomain>& domain : domains_) {
    MutexLock lock(domain->mu);
    entries += domain->vm_ept_pages.size();
  }
  return entries;
}

uint64_t SilozHypervisor::ept_pages_held() const {
  uint64_t held = 0;
  for (const std::unique_ptr<SocketDomain>& domain : domains_) {
    MutexLock lock(domain->mu);
    held += domain->ept_pages_held;
  }
  return held;
}

Result<VmId> SilozHypervisor::CreateVm(const VmConfig& vm_config) {
  obs::TraceSpan span("hv.CreateVm");
  if (!booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not booted");
  }
  const uint64_t backing_bytes = OrderBytes(OrderOf(vm_config.backing));
  if (vm_config.memory_bytes == 0 || vm_config.memory_bytes % backing_bytes != 0 ||
      vm_config.rom_bytes % backing_bytes != 0) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "VM memory/rom must be nonzero multiples of the backing page size");
  }
  if (vm_config.socket >= decoder_.geometry().sockets) {
    return MakeError(ErrorCode::kOutOfRange, "no such socket");
  }
  const uint64_t unmediated_bytes = vm_config.memory_bytes + vm_config.rom_bytes;
  SocketDomain& domain = Domain(vm_config.socket);
  MutexLock lock(domain.mu);

  const VmId id = next_vm_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string cgroup_name = config_.enabled ? ("vm-" + vm_config.name) : "host";
  auto vm = std::make_unique<Vm>(id, vm_config, cgroup_name);

  // Every reservation below registers its undo the moment it succeeds; any
  // early return rolls the whole set back (newest first) via the
  // transaction's destructor, and only Commit() at the end makes it stick.
  std::vector<Backing> backing_log;
  ReservationTransaction txn;
  auto log_backing = [&](const Backing& run) {
    backing_log.push_back(run);
    txn.OnRollback([this, &domain, run] {
      domain.mu.AssertHeld();  // txn unwinds inside CreateVm
      Backing remaining = run;
      SILOZ_CHECK(FreeBackingBlocks(domain, remaining).ok())
          << "rollback failed to free backing at " << run.phys;
    });
  };

  // --- Reserve nodes and allocate unmediated backing ---
  uint64_t gpa_cursor = 0;
  // Adds unmediated regions for one contiguous host run, splitting at the
  // RAM/ROM boundary in guest-physical space.
  auto add_unmediated_regions = [&](uint64_t hpa, uint64_t bytes) {
    uint64_t remaining = bytes;
    while (remaining > 0) {
      const bool is_ram = gpa_cursor < vm_config.memory_bytes;
      const uint64_t limit = is_ram ? vm_config.memory_bytes - gpa_cursor : remaining;
      const uint64_t piece = std::min(remaining, limit);
      vm->AddRegion(VmRegion{is_ram ? MemoryType::kGuestRam : MemoryType::kGuestRom, gpa_cursor,
                             hpa, piece, vm_config.backing});
      gpa_cursor += piece;
      hpa += piece;
      remaining -= piece;
    }
  };

  if (config_.enabled) {
    // Whole subarray groups, same socket (§5.2-§5.3). Select enough free
    // guest nodes by their actual free capacity (guard offlining can shave a
    // few rows off a group).
    Result<std::vector<uint32_t>> selected =
        SelectGuestNodesLocked(domain, unmediated_bytes, backing_bytes, "socket");
    SILOZ_RETURN_IF_ERROR(selected);
    {
      MutexLock cgroups_lock(cgroups_mu_);
      Result<ControlGroup*> cgroup = cgroups_.Create(
          cgroup_name, std::set<uint32_t>(selected->begin(), selected->end()),
          /*kvm_privileged=*/true);
      SILOZ_RETURN_IF_ERROR(cgroup);
    }
    txn.OnRollback([this, cgroup_name] {
      MutexLock cgroups_lock(cgroups_mu_);
      SILOZ_CHECK(cgroups_.Destroy(cgroup_name).ok())
          << "rollback failed to destroy cgroup " << cgroup_name;
    });
    MarkGuestNodesOwnedLocked(domain, *selected);
    txn.OnRollback([&domain, nodes = *selected] {
      domain.mu.AssertHeld();  // txn unwinds inside CreateVm
      MarkGuestNodesFreeLocked(domain, nodes);
    });
    uint64_t remaining = unmediated_bytes;
    for (uint32_t node_id : *selected) {
      NumaNode& node = Node(domain, node_id);
      vm->AddGuestNode(node_id, node.first_group());
      const uint64_t chunk =
          std::min(remaining, AlignDown(node.allocator().free_bytes(), backing_bytes));
      if (chunk == 0) {
        continue;
      }
      Result<std::vector<PhysRange>> runs =
          AllocateRuns(node, chunk, OrderOf(vm_config.backing));
      SILOZ_RETURN_IF_ERROR(runs);
      for (const PhysRange& run : *runs) {
        log_backing(Backing{node_id, run.begin, run.size(), OrderOf(vm_config.backing)});
        add_unmediated_regions(run.begin, run.size());
      }
      remaining -= chunk;
    }
    SILOZ_CHECK_EQ(remaining, 0u);
  } else {
    // Baseline: contiguous run from the socket's single node.
    NumaNode& node = Node(domain, host_node_by_socket_[vm_config.socket]);
    Result<uint64_t> start =
        AllocateContiguous(node, unmediated_bytes, OrderOf(vm_config.backing));
    SILOZ_RETURN_IF_ERROR(start);
    log_backing(Backing{node.id(), *start, unmediated_bytes, OrderOf(vm_config.backing)});
    add_unmediated_regions(*start, unmediated_bytes);
  }

  // --- Mediated MMIO window: host memory, never mapped in the EPT ---
  if (vm_config.mmio_bytes > 0) {
    NumaNode& host = Node(domain, host_node_by_socket_[vm_config.socket]);
    const uint64_t mmio_bytes = AlignUp(vm_config.mmio_bytes, kPage4K);
    Result<uint64_t> mmio = AllocateContiguous(host, mmio_bytes, kOrder4K);
    SILOZ_RETURN_IF_ERROR(mmio);
    log_backing(Backing{host.id(), *mmio, mmio_bytes, kOrder4K});
    vm->AddRegion(VmRegion{MemoryType::kMmio, gpa_cursor, *mmio, mmio_bytes, PageSize::k4K});
  }

  // --- Build the EPT (§5.4) ---
  // Creation can fail mid-way (e.g. the per-socket protected pool is
  // exhausted: a real capacity limit — one row group per socket bounds the
  // EPT working set, §5.4). The map entry is itself a logged reservation:
  // pages drawn through the allocator land in it, and the undo returns them
  // and erases the entry, so no phantom entry survives a failed create. The
  // entry (not a local) also gives the allocator a stable vector to fill.
  // siloz-lint: allow(map-bracket-probe): the default-insert IS the logged
  // reservation — the rollback registered next erases it, so no phantom
  // entry survives a failed create.
  std::vector<uint64_t>& ept_pages = domain.vm_ept_pages[id];
  txn.OnRollback([this, &domain, id] {
    domain.mu.AssertHeld();  // txn unwinds inside CreateVm
    auto pages_it = domain.vm_ept_pages.find(id);
    SILOZ_CHECK(pages_it != domain.vm_ept_pages.end());
    while (!pages_it->second.empty()) {
      SILOZ_CHECK(ReturnEptPage(domain, pages_it->second.back()).ok())
          << "rollback failed to return EPT page";
      pages_it->second.pop_back();
    }
    domain.vm_ept_pages.erase(pages_it);
  });
  Result<std::unique_ptr<ExtendedPageTable>> ept = ExtendedPageTable::Create(
      memory_, MakeEptAllocator(domain, &ept_pages),
      /*secure=*/config_.ept_protection == EptProtection::kSecureEpt);
  SILOZ_RETURN_IF_ERROR(ept);
  for (const VmRegion& region : vm->regions()) {
    if (!IsUnmediated(region.type)) {
      continue;  // mediated accesses exit; no EPT mapping
    }
    const uint64_t step = OrderBytes(OrderOf(region.page_size));
    for (uint64_t offset = 0; offset < region.bytes; offset += step) {
      SILOZ_RETURN_IF_ERROR((*ept)->Map(region.gpa + offset, region.hpa + offset,
                                        region.page_size));
    }
  }
  vm->SetEpt(std::move(*ept));

  // --- Commit: everything reserved; publish and disarm the rollback ---
  txn.Commit();
  domain.vm_backing[id] = std::move(backing_log);
  SILOZ_LOG(kInfo) << "created VM " << vm->config().name << " (" << id << ") with "
                   << vm->guest_nodes().size() << " guest node(s)";
  domain.vms[id] = std::move(vm);
  ++domain.counts.vms_created;
  {
    MutexLock index_lock(index_mu_);
    vm_socket_[id] = domain.socket;
  }
  return id;
}

Result<Vm*> SilozHypervisor::GetVm(VmId id) {
  return WithVmDomain(id, [id](SocketDomain& domain) -> Result<Vm*> {
    domain.mu.AssertHeld();  // WithVmDomain holds it
    return domain.vms.at(id).get();
  });
}

Status SilozHypervisor::DestroyVm(VmId id) {
  return WithVmDomain(id, [this, id](SocketDomain& domain) {
    domain.mu.AssertHeld();  // WithVmDomain holds it
    return DestroyVmLocked(domain, id);
  });
}

Status SilozHypervisor::DestroyVmLocked(SocketDomain& domain, VmId id) {
  if (domain.destroyed_vms.count(id) != 0) {
    return Status::Ok();  // idempotent: already torn down
  }
  // Free backing memory to its nodes (§5.3: pages return to the nodes' free
  // pools; the node reservation itself survives until ReleaseVmNodes).
  // Progress is recorded as it happens — FreeBackingBlocks shrinks the entry
  // in place and fully-freed entries are popped — so a mid-teardown failure
  // leaves the log describing exactly what is still allocated, and a retry
  // resumes there instead of double-freeing.
  auto backing_it = domain.vm_backing.find(id);
  if (backing_it != domain.vm_backing.end()) {
    std::vector<Backing>& log = backing_it->second;
    while (!log.empty()) {
      SILOZ_RETURN_IF_ERROR(FreeBackingBlocks(domain, log.back()));
      log.pop_back();
    }
    domain.vm_backing.erase(backing_it);
  }
  // EPT pages: back to the pool (guard mode) or the host node, popped one by
  // one for the same resumability.
  auto pages_it = domain.vm_ept_pages.find(id);
  if (pages_it != domain.vm_ept_pages.end()) {
    std::vector<uint64_t>& pages = pages_it->second;
    while (!pages.empty()) {
      SILOZ_RETURN_IF_ERROR(ReturnEptPage(domain, pages.back()));
      pages.pop_back();
    }
    domain.vm_ept_pages.erase(pages_it);
  }
  domain.destroyed_vms.insert(id);
  ++domain.counts.vms_destroyed;
  return Status::Ok();
}

Status SilozHypervisor::ReleaseVmNodes(VmId id) {
  if (SocketOfVm(id) == kNoSocket) {
    return MakeError(ErrorCode::kFailedPrecondition,
                     "VM " + std::to_string(id) + " must be destroyed first");
  }
  return WithVmDomain(id, [this, id](SocketDomain& domain) {
    domain.mu.AssertHeld();  // WithVmDomain holds it
    return ReleaseVmNodesLocked(domain, id);
  });
}

Status SilozHypervisor::ReleaseVmNodesLocked(SocketDomain& domain, VmId id) {
  if (domain.destroyed_vms.count(id) == 0) {
    return MakeError(ErrorCode::kFailedPrecondition,
                     "VM " + std::to_string(id) + " must be destroyed first");
  }
  auto it = domain.vms.find(id);
  SILOZ_CHECK(it != domain.vms.end());
  const Vm& vm = *it->second;
  // The cgroup goes first: if its destruction fails the nodes stay owned,
  // so the free sets and the cgroup index never disagree, and a retry
  // resumes here.
  if (vm.cgroup_name() != "host") {
    MutexLock cgroups_lock(cgroups_mu_);
    SILOZ_RETURN_IF_ERROR(cgroups_.Destroy(vm.cgroup_name()));
  }
  MarkGuestNodesFreeLocked(domain, vm.guest_nodes());
  domain.vms.erase(it);
  domain.destroyed_vms.erase(id);
  MutexLock index_lock(index_mu_);
  vm_socket_.erase(id);
  return Status::Ok();
}

Status SilozHypervisor::MigrateVm(VmId id, uint32_t target_socket) {
  obs::TraceSpan span("hv.MigrateVm");
  if (!booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not booted");
  }
  if (!config_.enabled) {
    return MakeError(ErrorCode::kUnsupported,
                     "baseline kernel has no subarray-group placement to migrate");
  }
  const auto no_live_vm = [id] {
    return MakeError(ErrorCode::kNotFound, "no live VM " + std::to_string(id));
  };
  while (true) {
    const uint32_t source_socket = SocketOfVm(id);
    if (source_socket == kNoSocket) {
      return no_live_vm();
    }
    SocketDomain& source = Domain(source_socket);
    if (target_socket >= domains_.size() || target_socket == source_socket) {
      // No second socket to lock: these refusals need only the source.
      MutexLock lock(source.mu);
      if (source.vms.count(id) == 0) {
        continue;  // moved since the lookup
      }
      if (source.destroyed_vms.count(id) != 0) {
        return no_live_vm();
      }
      if (target_socket >= domains_.size()) {
        return MakeError(ErrorCode::kOutOfRange, "no such socket");
      }
      return MakeError(ErrorCode::kInvalidArgument,
                       "VM " + std::to_string(id) + " is already on socket " +
                           std::to_string(target_socket));
    }
    SocketDomain& target = Domain(target_socket);
    // Socket locks in ascending index order (DESIGN.md §12).
    MutexLockPair lock(source.mu, target.mu, /*a_first=*/source_socket < target_socket);
    if (source.vms.count(id) == 0) {
      continue;  // moved since the lookup
    }
    if (source.destroyed_vms.count(id) != 0) {
      return no_live_vm();
    }
    return MigrateVmLocked(source, target, id);
  }
}

Status SilozHypervisor::MigrateVmLocked(SocketDomain& source, SocketDomain& target, VmId id) {
  Vm& vm = *source.vms.at(id);
  const VmConfig& vm_config = vm.config();
  for (const auto& [device_id, device] : source.devices) {
    if (device.vm == id) {
      return MakeError(ErrorCode::kFailedPrecondition,
                       "VM has passthrough device " + std::to_string(device_id) +
                           "; its IOMMU pins the source placement");
    }
  }
  SILOZ_FAULT_POINT("alloc.hv.migrate");

  const uint64_t backing_bytes = OrderBytes(OrderOf(vm_config.backing));
  const uint64_t unmediated_bytes = vm_config.memory_bytes + vm_config.rom_bytes;
  const std::string& cgroup_name = vm.cgroup_name();

  // Build the target placement exactly as CreateVm does, but into local
  // staging: the VM keeps its source placement until every target reservation
  // has succeeded. Each reservation arms an undo the moment it lands, so any
  // failure below unwinds the target half and leaves the VM untouched.
  std::vector<Backing> new_backing;
  std::vector<VmRegion> new_regions;
  std::vector<std::pair<uint32_t, uint32_t>> new_nodes;  // node id, first group
  ReservationTransaction txn;
  auto log_backing = [&](const Backing& run) {
    new_backing.push_back(run);
    txn.OnRollback([this, &target, run] {
      target.mu.AssertHeld();  // txn unwinds inside MigrateVm
      Backing remaining = run;
      SILOZ_CHECK(FreeBackingBlocks(target, remaining).ok())
          << "rollback failed to free backing at " << run.phys;
    });
  };
  uint64_t gpa_cursor = 0;
  // The target regions replay the guest-physical layout CreateVm built: RAM
  // then ROM across the unmediated runs, MMIO after. Same split logic,
  // staged into new_regions instead of the live VM.
  auto add_unmediated_regions = [&](uint64_t hpa, uint64_t bytes) {
    uint64_t remaining = bytes;
    while (remaining > 0) {
      const bool is_ram = gpa_cursor < vm_config.memory_bytes;
      const uint64_t limit = is_ram ? vm_config.memory_bytes - gpa_cursor : remaining;
      const uint64_t piece = std::min(remaining, limit);
      new_regions.push_back(VmRegion{is_ram ? MemoryType::kGuestRam : MemoryType::kGuestRom,
                                     gpa_cursor, hpa, piece, vm_config.backing});
      gpa_cursor += piece;
      hpa += piece;
      remaining -= piece;
    }
  };

  Result<std::vector<uint32_t>> selected =
      SelectGuestNodesLocked(target, unmediated_bytes, backing_bytes, "target socket");
  SILOZ_RETURN_IF_ERROR(selected);
  // Out of the free set for the staging; the cgroup takes them at commit.
  MarkGuestNodesOwnedLocked(target, *selected);
  txn.OnRollback([&target, nodes = *selected] {
    target.mu.AssertHeld();  // txn unwinds inside MigrateVm
    MarkGuestNodesFreeLocked(target, nodes);
  });
  uint64_t remaining = unmediated_bytes;
  for (uint32_t node_id : *selected) {
    NumaNode& node = Node(target, node_id);
    new_nodes.emplace_back(node_id, node.first_group());
    const uint64_t chunk =
        std::min(remaining, AlignDown(node.allocator().free_bytes(), backing_bytes));
    if (chunk == 0) {
      continue;
    }
    Result<std::vector<PhysRange>> runs = AllocateRuns(node, chunk, OrderOf(vm_config.backing));
    SILOZ_RETURN_IF_ERROR(runs);
    for (const PhysRange& run : *runs) {
      log_backing(Backing{node_id, run.begin, run.size(), OrderOf(vm_config.backing)});
      add_unmediated_regions(run.begin, run.size());
    }
    remaining -= chunk;
  }
  SILOZ_CHECK_EQ(remaining, 0u);

  if (vm_config.mmio_bytes > 0) {
    NumaNode& host = Node(target, host_node_by_socket_[target.socket]);
    const uint64_t mmio_bytes = AlignUp(vm_config.mmio_bytes, kPage4K);
    Result<uint64_t> mmio = AllocateContiguous(host, mmio_bytes, kOrder4K);
    SILOZ_RETURN_IF_ERROR(mmio);
    log_backing(Backing{host.id(), *mmio, mmio_bytes, kOrder4K});
    new_regions.push_back(
        VmRegion{MemoryType::kMmio, gpa_cursor, *mmio, mmio_bytes, PageSize::k4K});
  }

  // --- New EPT from the *target* socket's protected pool ---
  // The EPT object keeps its page allocator for life, so the vector the
  // allocator fills must outlive this function: it is the VM's entry in the
  // target's EPT-page map, a logged reservation like CreateVm's. The undo
  // returns the drawn target pages and erases the entry.
  // siloz-lint: allow(map-bracket-probe): the default-insert IS the logged
  // reservation — the rollback registered next erases it.
  std::vector<uint64_t>& target_pages = target.vm_ept_pages[id];
  txn.OnRollback([this, &target, id] {
    target.mu.AssertHeld();  // txn unwinds inside MigrateVm
    auto entry = target.vm_ept_pages.find(id);
    SILOZ_CHECK(entry != target.vm_ept_pages.end());
    while (!entry->second.empty()) {
      SILOZ_CHECK(ReturnEptPage(target, entry->second.back()).ok())
          << "rollback failed to return EPT page";
      entry->second.pop_back();
    }
    target.vm_ept_pages.erase(entry);
  });
  Result<std::unique_ptr<ExtendedPageTable>> new_ept = ExtendedPageTable::Create(
      memory_, MakeEptAllocator(target, &target_pages),
      /*secure=*/config_.ept_protection == EptProtection::kSecureEpt);
  SILOZ_RETURN_IF_ERROR(new_ept);
  for (const VmRegion& region : new_regions) {
    if (!IsUnmediated(region.type)) {
      continue;
    }
    const uint64_t step = OrderBytes(OrderOf(region.page_size));
    for (uint64_t offset = 0; offset < region.bytes; offset += step) {
      SILOZ_RETURN_IF_ERROR(
          (*new_ept)->Map(region.gpa + offset, region.hpa + offset, region.page_size));
    }
  }

  // --- Copy the guest image, matched by guest-physical address ---
  // Both region lists are GPA-ascending over the same span by construction
  // (the cursor above replays creation), so a single forward walk pairs them.
  // Infallible, and writes only into the still-uncommitted target backing, so
  // it runs last before the commit point.
  {
    size_t ni = 0;
    for (const VmRegion& old_region : vm.regions()) {
      uint64_t gpa = old_region.gpa;
      const uint64_t end = old_region.gpa + old_region.bytes;
      while (gpa < end) {
        while (ni < new_regions.size() &&
               new_regions[ni].gpa + new_regions[ni].bytes <= gpa) {
          ++ni;
        }
        SILOZ_CHECK_LT(ni, new_regions.size());
        const VmRegion& region = new_regions[ni];
        SILOZ_CHECK_LE(region.gpa, gpa);
        const uint64_t chunk = std::min(end, region.gpa + region.bytes) - gpa;
        memory_.CopyPhys(region.hpa + (gpa - region.gpa),
                         old_region.hpa + (gpa - old_region.gpa), chunk);
        gpa += chunk;
      }
    }
  }

  // --- Commit: target fully reserved and populated; flip the placement ---
  txn.Commit();
  // Source-side frees cannot fail short of bookkeeping corruption, so they
  // are invariant-CHECKed like rollback frees (the conservation sweeps arm
  // "alloc." points only; there is no partial-commit state to resume from).
  auto backing_it = source.vm_backing.find(id);
  SILOZ_CHECK(backing_it != source.vm_backing.end());
  for (Backing& run : backing_it->second) {
    SILOZ_CHECK(FreeBackingBlocks(source, run).ok()) << "migration failed to free source backing";
  }
  source.vm_backing.erase(backing_it);
  target.vm_backing[id] = std::move(new_backing);
  auto pages_it = source.vm_ept_pages.find(id);
  SILOZ_CHECK(pages_it != source.vm_ept_pages.end());
  std::vector<uint64_t>& old_pages = pages_it->second;
  while (!old_pages.empty()) {
    SILOZ_CHECK(ReturnEptPage(source, old_pages.back()).ok())
        << "migration failed to return source EPT page";
    old_pages.pop_back();
  }
  MarkGuestNodesFreeLocked(source, vm.guest_nodes());
  vm.ResetPlacement(target.socket);
  for (const auto& [node_id, first_group] : new_nodes) {
    vm.AddGuestNode(node_id, first_group);
  }
  for (const VmRegion& region : new_regions) {
    vm.AddRegion(region);
  }
  // The old EPT's allocator fills the source entry: drop the EPT first.
  vm.SetEpt(std::move(*new_ept));
  source.vm_ept_pages.erase(pages_it);
  {
    MutexLock cgroups_lock(cgroups_mu_);
    const Status retargeted = cgroups_.SetMemsAllowed(
        cgroup_name, std::set<uint32_t>(selected->begin(), selected->end()));
    SILOZ_CHECK(retargeted.ok()) << "migration failed to retarget cgroup " << cgroup_name
                                 << ": " << retargeted.error().ToString();
  }
  auto vm_it = source.vms.find(id);
  target.vms.insert(source.vms.extract(vm_it));
  {
    MutexLock index_lock(index_mu_);
    vm_socket_[id] = target.socket;
  }
  ++target.counts.vms_migrated;

  // The committed placement must still prove isolation on the target groups
  // before the caller trusts it.
  SILOZ_RETURN_IF_ERROR(AuditVmIsolationLocked(target, id));
  SILOZ_LOG(kInfo) << "migrated VM " << vm.config().name << " (" << id << ") socket "
                   << source.socket << " -> " << target.socket;
  return Status::Ok();
}

Status SilozHypervisor::AuditVmIsolation(VmId id) const {
  return WithVmDomain(id, [this, id](SocketDomain& domain) {
    domain.mu.AssertHeld();  // WithVmDomain holds it
    return AuditVmIsolationLocked(domain, id);
  });
}

Status SilozHypervisor::AuditVmIsolationLocked(const SocketDomain& domain, VmId id) const {
  auto it = domain.vms.find(id);
  if (it == domain.vms.end()) {
    return MakeError(ErrorCode::kNotFound, "no VM " + std::to_string(id));
  }
  const Vm& vm = *it->second;
  const ExtendedPageTable* ept = vm.ept();
  SILOZ_CHECK(ept != nullptr);

  for (const VmRegion& region : vm.regions()) {
    if (!IsUnmediated(region.type)) {
      continue;
    }
    const uint64_t step = OrderBytes(OrderOf(region.page_size));
    for (uint64_t offset = 0; offset < region.bytes; offset += step) {
      Result<uint64_t> hpa = ept->Translate(region.gpa + offset);
      SILOZ_RETURN_IF_ERROR(hpa);  // secure-EPT integrity failures surface here
      if (*hpa != region.hpa + offset) {
        ++domain.counts.ept_violations;
        return MakeError(ErrorCode::kIntegrityViolation,
                         "EPT maps GPA " + std::to_string(region.gpa + offset) + " to HPA " +
                             std::to_string(*hpa) + ", expected " +
                             std::to_string(region.hpa + offset) +
                             " — subarray group escape");
      }
    }
  }
  // Guard-row mode: every EPT table page must still live in the protected
  // row group.
  if (config_.enabled && config_.ept_protection == EptProtection::kGuardRows) {
    const auto& pool_ranges = ept_pool_ranges_[domain.socket];
    for (uint64_t page : ept->table_pages()) {
      bool inside = false;
      for (const PhysRange& range : pool_ranges) {
        inside |= range.Contains(page);
      }
      if (!inside) {
        ++domain.counts.ept_violations;
        return MakeError(ErrorCode::kIntegrityViolation,
                         "EPT table page outside the protected row group");
      }
    }
  }
  return Status::Ok();
}

Result<uint32_t> SilozHypervisor::AssignPassthroughDevice(VmId vm_id, const std::string& name) {
  return WithVmDomain(vm_id, [&](SocketDomain& domain) -> Result<uint32_t> {
    domain.mu.AssertHeld();  // WithVmDomain holds it
    if (domain.destroyed_vms.count(vm_id) != 0) {
      return MakeError(ErrorCode::kFailedPrecondition, "VM is destroyed");
    }
    const Vm& vm = *domain.vms.at(vm_id);
    const uint32_t id = next_device_id_.fetch_add(1, std::memory_order_relaxed);
    // The IOMMU keeps its page allocator for life, so the vector it fills
    // must be the device's entry in the table, not a local moved in later.
    // The entry is a logged reservation: a failed assignment (pool
    // exhaustion mid-Map, say) returns every table page already drawn and
    // erases it.
    PassthroughDevice& device = domain.devices.try_emplace(id).first->second;
    device.name = name;
    device.vm = vm_id;
    ReservationTransaction txn;
    txn.OnRollback([this, &domain, id] {
      domain.mu.AssertHeld();  // txn unwinds inside AssignPassthroughDevice
      auto entry = domain.devices.find(id);
      SILOZ_CHECK(entry != domain.devices.end());
      std::vector<uint64_t>& pages = entry->second.table_pages;
      while (!pages.empty()) {
        SILOZ_CHECK(ReturnEptPage(domain, pages.back()).ok())
            << "rollback failed to return IOMMU table page";
        pages.pop_back();
      }
      domain.devices.erase(entry);
    });
    // IOMMU table pages come from the same protected path as EPT pages
    // (requirement (2) of §5.1).
    Result<std::unique_ptr<ExtendedPageTable>> iommu = ExtendedPageTable::Create(
        memory_, MakeEptAllocator(domain, &device.table_pages),
        /*secure=*/config_.ept_protection == EptProtection::kSecureEpt);
    SILOZ_RETURN_IF_ERROR(iommu);
    device.iommu = std::move(*iommu);
    // IOVA space mirrors the guest-physical layout of unmediated regions
    // (requirement (1): the device can only reach the guest's groups).
    for (const VmRegion& region : vm.regions()) {
      if (!IsUnmediated(region.type)) {
        continue;
      }
      const uint64_t step = OrderBytes(OrderOf(region.page_size));
      for (uint64_t offset = 0; offset < region.bytes; offset += step) {
        Status mapped =
            device.iommu->Map(region.gpa + offset, region.hpa + offset, region.page_size);
        SILOZ_RETURN_IF_ERROR(mapped);
      }
    }
    txn.Commit();
    MutexLock index_lock(index_mu_);
    device_socket_[id] = domain.socket;
    return id;
  });
}

Result<uint64_t> SilozHypervisor::DeviceDma(uint32_t device_id, uint64_t iova) {
  return WithDeviceDomain(device_id, [&](SocketDomain& domain) -> Result<uint64_t> {
    domain.mu.AssertHeld();  // WithDeviceDomain holds it
    const PassthroughDevice& device = domain.devices.at(device_id);
    Result<uint64_t> hpa = device.iommu->Translate(iova);
    if (!hpa.ok()) {
      // Unmapped IOVA: the IOMMU blocks the DMA (no such window).
      if (hpa.error().code == ErrorCode::kNotFound) {
        return MakeError(ErrorCode::kPermissionDenied,
                         "DMA to unmapped IOVA " + std::to_string(iova) + " blocked");
      }
      return hpa.error();  // secure-mode integrity violations surface as-is
    }
    // Defense in depth: the translated address must stay inside the owning
    // VM's provisioned ranges, else the table was corrupted.
    for (const PhysRange& range : domain.vms.at(device.vm)->AllowedHpaRanges()) {
      if (range.Contains(*hpa)) {
        return *hpa;
      }
    }
    ++domain.counts.ept_violations;
    return MakeError(ErrorCode::kIntegrityViolation,
                     "IOMMU resolved IOVA " + std::to_string(iova) +
                         " outside the VM's subarray groups");
  });
}

Status SilozHypervisor::AuditDeviceIsolation(uint32_t device_id) const {
  return WithDeviceDomain(device_id, [&](SocketDomain& domain) -> Status {
    domain.mu.AssertHeld();  // WithDeviceDomain holds it
    const PassthroughDevice& device = domain.devices.at(device_id);
    const Vm& vm = *domain.vms.at(device.vm);
    for (const VmRegion& region : vm.regions()) {
      if (!IsUnmediated(region.type)) {
        continue;
      }
      const uint64_t step = OrderBytes(OrderOf(region.page_size));
      for (uint64_t offset = 0; offset < region.bytes; offset += step) {
        Result<uint64_t> hpa = device.iommu->Translate(region.gpa + offset);
        SILOZ_RETURN_IF_ERROR(hpa);
        if (*hpa != region.hpa + offset) {
          ++domain.counts.ept_violations;
          return MakeError(ErrorCode::kIntegrityViolation,
                           "IOMMU maps IOVA " + std::to_string(region.gpa + offset) +
                               " to HPA " + std::to_string(*hpa) + ", expected " +
                               std::to_string(region.hpa + offset));
        }
      }
    }
    if (config_.enabled && config_.ept_protection == EptProtection::kGuardRows) {
      const auto& pool_ranges = ept_pool_ranges_[domain.socket];
      for (uint64_t page : device.iommu->table_pages()) {
        bool inside = false;
        for (const PhysRange& range : pool_ranges) {
          inside |= range.Contains(page);
        }
        if (!inside) {
          ++domain.counts.ept_violations;
          return MakeError(ErrorCode::kIntegrityViolation,
                           "IOMMU table page outside the protected row group");
        }
      }
    }
    return Status::Ok();
  });
}

Status SilozHypervisor::RemovePassthroughDevice(uint32_t device_id) {
  return WithDeviceDomain(device_id, [this, device_id](SocketDomain& domain) {
    domain.mu.AssertHeld();  // WithDeviceDomain holds it
    return RemovePassthroughDeviceLocked(domain, device_id);
  });
}

Status SilozHypervisor::RemovePassthroughDeviceLocked(SocketDomain& domain, uint32_t device_id) {
  auto it = domain.devices.find(device_id);
  if (it == domain.devices.end()) {
    return MakeError(ErrorCode::kNotFound, "no device " + std::to_string(device_id));
  }
  std::vector<uint64_t>& pages = it->second.table_pages;
  while (!pages.empty()) {
    SILOZ_RETURN_IF_ERROR(ReturnEptPage(domain, pages.back()));
    pages.pop_back();
  }
  domain.devices.erase(it);
  MutexLock index_lock(index_mu_);
  device_socket_.erase(device_id);
  return Status::Ok();
}

Result<std::vector<uint64_t>> SilozHypervisor::DeviceTablePages(uint32_t device_id) const {
  return WithDeviceDomain(device_id, [device_id](SocketDomain& domain) {
    domain.mu.AssertHeld();  // WithDeviceDomain holds it
    return Result<std::vector<uint64_t>>(domain.devices.at(device_id).table_pages);
  });
}

Status SilozHypervisor::HostShutdown() {
  // Privileged teardown: kill every VM and release every reservation,
  // ignoring active subarray-group constraints (§5.3). Every socket stays
  // locked throughout, so no migration can carry a VM past the sweep.
  LockAllDomains();
  const Status status = HostShutdownLocked();
  UnlockAllDomains();
  return status;
}

void SilozHypervisor::LockAllDomains() const {
  for (const std::unique_ptr<SocketDomain>& domain : domains_) {
    domain->mu.lock();  // ascending socket index
  }
}

void SilozHypervisor::UnlockAllDomains() const {
  for (auto it = domains_.rbegin(); it != domains_.rend(); ++it) {
    (*it)->mu.unlock();
  }
}

Status SilozHypervisor::HostShutdownLocked() {
  for (const std::unique_ptr<SocketDomain>& domain : domains_) {
    while (!domain->devices.empty()) {
      SILOZ_RETURN_IF_ERROR(
          RemovePassthroughDeviceLocked(*domain, domain->devices.begin()->first));
    }
  }
  for (const std::unique_ptr<SocketDomain>& domain : domains_) {
    std::vector<VmId> ids;
    for (const auto& [id, vm] : domain->vms) {
      ids.push_back(id);
    }
    for (VmId id : ids) {
      if (domain->destroyed_vms.count(id) == 0) {
        SILOZ_RETURN_IF_ERROR(DestroyVmLocked(*domain, id));
      }
      SILOZ_RETURN_IF_ERROR(ReleaseVmNodesLocked(*domain, id));
    }
  }
  return Status::Ok();
}

size_t SilozHypervisor::ept_pool_free(uint32_t socket) const {
  SILOZ_CHECK_LT(socket, domains_.size());
  const SocketDomain& domain = Domain(socket);
  MutexLock lock(domain.mu);
  return domain.ept_pool.size();
}

const std::vector<PhysRange>& SilozHypervisor::ept_pool_ranges(uint32_t socket) const {
  SILOZ_CHECK_LT(socket, ept_pool_ranges_.size());
  return ept_pool_ranges_[socket];
}

}  // namespace siloz
