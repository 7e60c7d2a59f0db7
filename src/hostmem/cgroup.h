// Control groups gating node access (§5.2-§5.3).
//
// Siloz restricts allocation from guest-reserved nodes to processes that
// (a) belong to a control group whose cpuset.mems includes those nodes, and
// (b) hold KVM privileges. The host's default group excludes guest-reserved
// nodes entirely. This module models exactly that policy surface.
#ifndef SILOZ_SRC_HOSTMEM_CGROUP_H_
#define SILOZ_SRC_HOSTMEM_CGROUP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"

namespace siloz {

class ControlGroup {
 public:
  ControlGroup(std::string name, std::set<uint32_t> mems_allowed, bool kvm_privileged)
      : name_(std::move(name)),
        mems_allowed_(std::move(mems_allowed)),
        kvm_privileged_(kvm_privileged) {}

  const std::string& name() const { return name_; }
  bool kvm_privileged() const { return kvm_privileged_; }
  const std::set<uint32_t>& mems_allowed() const { return mems_allowed_; }

  bool MayAllocateFrom(uint32_t node_id) const { return mems_allowed_.count(node_id) != 0; }

 private:
  // Only the registry rewrites mems, so its node index never goes stale.
  friend class CgroupRegistry;

  std::string name_;
  std::set<uint32_t> mems_allowed_;
  bool kvm_privileged_;
};

// Registry of control groups. Creation requires naming distinct groups; a
// node may be exclusively owned by at most one group (the "exclusive access
// to available guest-reserved nodes" of §5.3). Groups are indexed by name and
// by node, so Create, Get, Destroy and SetMemsAllowed cost O(log groups +
// nodes they name), however many groups exist.
class CgroupRegistry {
 public:
  // Creates a group; fails with kAlreadyExists if the name exists, else with
  // kPermissionDenied (naming the owner) if any requested node is already
  // exclusively held by another group.
  Result<ControlGroup*> Create(const std::string& name, std::set<uint32_t> mems_allowed,
                               bool kvm_privileged);

  Result<ControlGroup*> Get(const std::string& name);

  // Destroys a group, releasing its node reservations (§5.3: reservations
  // outlive VM shutdown until a privileged user destroys the group).
  Status Destroy(const std::string& name);

  // Replaces a group's cpuset.mems. Fails, changing nothing, with
  // kPermissionDenied if another group holds one of `nodes`.
  Status SetMemsAllowed(const std::string& name, std::set<uint32_t> nodes);

  // The group whose mems hold `node`, or nullptr.
  const ControlGroup* OwnerOf(uint32_t node) const;

  // Every group, in name order.
  std::vector<const ControlGroup*> Groups() const;

  size_t size() const { return groups_.size(); }

 private:
  // kPermissionDenied naming the lowest of `nodes` held by a group other
  // than `self`, and that group; Ok if there is none.
  Status CheckUnowned(const std::set<uint32_t>& nodes, const ControlGroup* self) const;

  std::map<std::string, std::unique_ptr<ControlGroup>> groups_;
  // node id -> the group whose mems hold it; exactly the union of all mems.
  std::unordered_map<uint32_t, ControlGroup*> owner_of_node_;
};

}  // namespace siloz

#endif  // SILOZ_SRC_HOSTMEM_CGROUP_H_
