#include "src/siloz/conservation.h"

#include <sstream>

#include "src/base/fault_injector.h"
#include "src/obs/metrics.h"

namespace siloz {

ConservationSnapshot CaptureConservation(const SilozHypervisor& hv) {
  ConservationSnapshot snap;
  for (const NumaNode* node : hv.nodes().AllNodes()) {
    snap.nodes.push_back(NodeUsage{node->allocator().free_bytes(),
                                   node->allocator().total_bytes(),
                                   node->allocator().offlined_bytes()});
  }
  for (uint32_t socket = 0; socket < hv.decoder().geometry().sockets; ++socket) {
    snap.ept_pool_free.push_back(hv.ept_pool_free(socket));
    snap.free_guest_nodes.push_back(hv.FreeGuestNodeCount(socket));
  }
  snap.cgroups = hv.cgroups().size();
  snap.backing_entries = hv.backing_map_entries();
  snap.ept_page_entries = hv.ept_page_map_entries();
  snap.ept_pages_held = hv.ept_pages_held();
  obs::Registry& registry = obs::Registry::Global();
  snap.gauge_pool_free = registry.GetGauge("hv.ept.pool_free", obs::Domain::kSched).Value();
  snap.gauge_pages_in_use =
      registry.GetGauge("hv.ept.pages_in_use", obs::Domain::kSched).Value();
  return snap;
}

std::string DiffConservation(const ConservationSnapshot& before,
                             const ConservationSnapshot& after) {
  std::ostringstream diff;
  const auto field = [&diff](const char* name, auto was, auto now) {
    if (was != now) {
      diff << name << " " << was << " -> " << now << "; ";
    }
  };
  if (before.nodes.size() != after.nodes.size()) {
    field("node count", before.nodes.size(), after.nodes.size());
  } else {
    for (size_t id = 0; id < before.nodes.size(); ++id) {
      if (before.nodes[id] == after.nodes[id]) {
        continue;
      }
      const std::string tag = "node " + std::to_string(id) + " ";
      field((tag + "free_bytes").c_str(), before.nodes[id].free_bytes,
            after.nodes[id].free_bytes);
      field((tag + "total_bytes").c_str(), before.nodes[id].total_bytes,
            after.nodes[id].total_bytes);
      field((tag + "offlined_bytes").c_str(), before.nodes[id].offlined_bytes,
            after.nodes[id].offlined_bytes);
    }
  }
  if (before.ept_pool_free.size() != after.ept_pool_free.size()) {
    field("socket count", before.ept_pool_free.size(), after.ept_pool_free.size());
  } else {
    for (size_t socket = 0; socket < before.ept_pool_free.size(); ++socket) {
      const std::string tag = "socket " + std::to_string(socket) + " ";
      field((tag + "ept_pool_free").c_str(), before.ept_pool_free[socket],
            after.ept_pool_free[socket]);
      field((tag + "free_guest_nodes").c_str(), before.free_guest_nodes[socket],
            after.free_guest_nodes[socket]);
    }
  }
  field("cgroups", before.cgroups, after.cgroups);
  field("backing_entries", before.backing_entries, after.backing_entries);
  field("ept_page_entries", before.ept_page_entries, after.ept_page_entries);
  field("ept_pages_held", before.ept_pages_held, after.ept_pages_held);
  field("gauge hv.ept.pool_free", before.gauge_pool_free, after.gauge_pool_free);
  field("gauge hv.ept.pages_in_use", before.gauge_pages_in_use, after.gauge_pages_in_use);
  return diff.str();
}

std::string DiffOwnershipIndexes(const SilozHypervisor& hv) {
  std::ostringstream diff;
  const std::vector<const ControlGroup*> groups = hv.cgroups().Groups();
  std::vector<std::vector<uint32_t>> unowned(hv.decoder().geometry().sockets);
  for (const NumaNode* node : hv.nodes().AllNodes()) {  // ascending id order
    if (node->kind() != NodeKind::kGuestReserved) {
      continue;
    }
    const ControlGroup* owner = nullptr;
    for (const ControlGroup* group : groups) {
      if (!group->MayAllocateFrom(node->id())) {
        continue;
      }
      if (owner != nullptr) {
        diff << "node " << node->id() << " in the mems of both '" << owner->name() << "' and '"
             << group->name() << "'; ";
      }
      owner = group;
    }
    const ControlGroup* indexed = hv.cgroups().OwnerOf(node->id());
    if (indexed != owner) {
      diff << "node " << node->id() << " indexed to '" << (indexed ? indexed->name() : "")
           << "' but held by '" << (owner ? owner->name() : "") << "'; ";
    }
    if (owner == nullptr) {
      unowned[node->physical_socket()].push_back(node->id());
    }
  }
  for (uint32_t socket = 0; socket < unowned.size(); ++socket) {
    if (hv.AvailableGuestNodes(socket) != unowned[socket]) {
      diff << "socket " << socket << " free set differs from its " << unowned[socket].size()
           << " unowned guest node(s); ";
    }
    if (hv.FreeGuestNodeCount(socket) != unowned[socket].size()) {
      diff << "socket " << socket << " FreeGuestNodeCount " << hv.FreeGuestNodeCount(socket)
           << " != " << unowned[socket].size() << "; ";
    }
  }
  return diff.str();
}

namespace {

Status CheckOwnership(const SilozHypervisor& hv, const std::string& when) {
  const std::string diff = DiffOwnershipIndexes(hv);
  if (diff.empty()) {
    return Status::Ok();
  }
  return MakeError(ErrorCode::kIntegrityViolation,
                   "ownership indexes drifted " + when + ": " + diff);
}

}  // namespace

Result<FaultSweepReport> RunCreateVmFaultSweep(SilozHypervisor& hv, const VmConfig& vm_config,
                                               uint64_t max_points) {
  FaultSweepReport report;
  FaultInjector& injector = FaultInjector::Global();
  for (uint64_t k = 1; k <= max_points; ++k) {
    const ConservationSnapshot before = CaptureConservation(hv);
    injector.Arm(k, "alloc.");
    Result<VmId> created = hv.CreateVm(vm_config);
    const uint64_t fired = injector.faults_fired();
    injector.Disarm();
    ++report.points_probed;
    report.faults_injected += fired;
    const std::string at = "at k=" + std::to_string(k);
    SILOZ_RETURN_IF_ERROR(CheckOwnership(hv, "after CreateVm " + at));
    if (created.ok()) {
      if (fired > 0) {
        ++report.creates_survived;
      }
      SILOZ_RETURN_IF_ERROR(hv.DestroyVm(*created));
      SILOZ_RETURN_IF_ERROR(hv.ReleaseVmNodes(*created));
      SILOZ_RETURN_IF_ERROR(CheckOwnership(hv, "after ReleaseVmNodes " + at));
      const std::string diff = DiffConservation(before, CaptureConservation(hv));
      if (!diff.empty()) {
        return MakeError(ErrorCode::kIntegrityViolation,
                         "create->destroy->release is not a fixed point at k=" +
                             std::to_string(k) + ": " + diff);
      }
      if (fired == 0) {
        return report;  // past the last reachable "alloc." fault point
      }
    } else {
      if (fired == 0) {
        return MakeError(ErrorCode::kFailedPrecondition,
                         "CreateVm failed without an injected fault at k=" +
                             std::to_string(k) + ": " + created.error().ToString());
      }
      ++report.creates_failed;
      const std::string diff = DiffConservation(before, CaptureConservation(hv));
      if (!diff.empty()) {
        return MakeError(ErrorCode::kIntegrityViolation,
                         "failed CreateVm leaked state at k=" + std::to_string(k) + " (" +
                             created.error().ToString() + "): " + diff);
      }
    }
  }
  return MakeError(ErrorCode::kOutOfRange,
                   "fault sweep did not terminate within " + std::to_string(max_points) +
                       " points");
}

Result<FaultSweepReport> RunMigrateVmFaultSweep(SilozHypervisor& hv, const VmConfig& vm_config,
                                                uint32_t target_socket, uint64_t max_points) {
  FaultSweepReport report;
  FaultInjector& injector = FaultInjector::Global();
  for (uint64_t k = 1; k <= max_points; ++k) {
    const ConservationSnapshot empty = CaptureConservation(hv);
    Result<VmId> created = hv.CreateVm(vm_config);
    SILOZ_RETURN_IF_ERROR(created);  // the create itself runs unfaulted
    const std::string at = "at k=" + std::to_string(k);
    SILOZ_RETURN_IF_ERROR(CheckOwnership(hv, "after CreateVm " + at));
    const ConservationSnapshot placed = CaptureConservation(hv);
    injector.Arm(k, "alloc.");
    const Status migrated = hv.MigrateVm(*created, target_socket);
    const uint64_t fired = injector.faults_fired();
    injector.Disarm();
    ++report.points_probed;
    report.faults_injected += fired;
    SILOZ_RETURN_IF_ERROR(CheckOwnership(hv, "after MigrateVm " + at));
    bool past_last_point = false;
    if (migrated.ok()) {
      if (fired > 0) {
        ++report.creates_survived;
      } else {
        past_last_point = true;
      }
      SILOZ_RETURN_IF_ERROR(hv.AuditVmIsolation(*created));
    } else {
      if (fired == 0) {
        return MakeError(ErrorCode::kFailedPrecondition,
                         "MigrateVm failed without an injected fault at k=" +
                             std::to_string(k) + ": " + migrated.error().ToString());
      }
      ++report.creates_failed;
      // The VM must be exactly where it was: still placed on the source
      // socket, target-side reservations fully unwound.
      const std::string diff = DiffConservation(placed, CaptureConservation(hv));
      if (!diff.empty()) {
        return MakeError(ErrorCode::kIntegrityViolation,
                         "failed MigrateVm leaked state at k=" + std::to_string(k) + " (" +
                             migrated.error().ToString() + "): " + diff);
      }
      SILOZ_RETURN_IF_ERROR(hv.AuditVmIsolation(*created));
    }
    SILOZ_RETURN_IF_ERROR(hv.DestroyVm(*created));
    SILOZ_RETURN_IF_ERROR(hv.ReleaseVmNodes(*created));
    SILOZ_RETURN_IF_ERROR(CheckOwnership(hv, "after ReleaseVmNodes " + at));
    const std::string diff = DiffConservation(empty, CaptureConservation(hv));
    if (!diff.empty()) {
      return MakeError(ErrorCode::kIntegrityViolation,
                       "create->migrate->destroy->release is not a fixed point at k=" +
                           std::to_string(k) + ": " + diff);
    }
    if (past_last_point) {
      return report;
    }
  }
  return MakeError(ErrorCode::kOutOfRange,
                   "migrate fault sweep did not terminate within " +
                       std::to_string(max_points) + " points");
}

}  // namespace siloz
