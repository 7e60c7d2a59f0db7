#include "src/hostmem/cgroup.h"

#include "src/base/fault_injector.h"

namespace siloz {

Status CgroupRegistry::CheckUnowned(const std::set<uint32_t>& nodes,
                                    const ControlGroup* self) const {
  for (uint32_t node : nodes) {
    const ControlGroup* owner = OwnerOf(node);
    if (owner != nullptr && owner != self) {
      return MakeError(ErrorCode::kPermissionDenied,
                       "node " + std::to_string(node) + " already reserved by cgroup '" +
                           owner->name() + "'");
    }
  }
  return Status::Ok();
}

Result<ControlGroup*> CgroupRegistry::Create(const std::string& name,
                                             std::set<uint32_t> mems_allowed,
                                             bool kvm_privileged) {
  SILOZ_FAULT_POINT("alloc.cgroup.create");
  if (groups_.count(name) != 0) {
    return MakeError(ErrorCode::kAlreadyExists, "cgroup '" + name + "' exists");
  }
  SILOZ_RETURN_IF_ERROR(CheckUnowned(mems_allowed, nullptr));
  auto group = std::make_unique<ControlGroup>(name, std::move(mems_allowed), kvm_privileged);
  ControlGroup* raw = group.get();
  for (uint32_t node : raw->mems_allowed()) {
    owner_of_node_.emplace(node, raw);
  }
  groups_.emplace(name, std::move(group));
  return raw;
}

Result<ControlGroup*> CgroupRegistry::Get(const std::string& name) {
  auto it = groups_.find(name);
  if (it == groups_.end()) {
    return MakeError(ErrorCode::kNotFound, "no cgroup '" + name + "'");
  }
  return it->second.get();
}

Status CgroupRegistry::Destroy(const std::string& name) {
  auto it = groups_.find(name);
  if (it == groups_.end()) {
    return MakeError(ErrorCode::kNotFound, "no cgroup '" + name + "'");
  }
  // After the lookup so an injected failure models the kernel rejecting the
  // rmdir of a real, still-populated cgroup — the retryable case
  // ReleaseVmNodes must surface — not a bogus name.
  SILOZ_FAULT_POINT("free.cgroup.destroy");
  for (uint32_t node : it->second->mems_allowed()) {
    owner_of_node_.erase(node);
  }
  groups_.erase(it);
  return Status::Ok();
}

Status CgroupRegistry::SetMemsAllowed(const std::string& name, std::set<uint32_t> nodes) {
  Result<ControlGroup*> group = Get(name);
  SILOZ_RETURN_IF_ERROR(group);
  SILOZ_RETURN_IF_ERROR(CheckUnowned(nodes, *group));
  for (uint32_t node : (*group)->mems_allowed()) {
    owner_of_node_.erase(node);
  }
  for (uint32_t node : nodes) {
    owner_of_node_.emplace(node, *group);
  }
  (*group)->mems_allowed_ = std::move(nodes);
  return Status::Ok();
}

const ControlGroup* CgroupRegistry::OwnerOf(uint32_t node) const {
  auto it = owner_of_node_.find(node);
  return it == owner_of_node_.end() ? nullptr : it->second;
}

std::vector<const ControlGroup*> CgroupRegistry::Groups() const {
  std::vector<const ControlGroup*> groups;
  groups.reserve(groups_.size());
  for (const auto& [name, group] : groups_) {
    groups.push_back(group.get());
  }
  return groups;
}

}  // namespace siloz
