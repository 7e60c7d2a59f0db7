// Tests for the buddy allocator, NUMA nodes, and control groups (src/hostmem).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/hostmem/buddy.h"
#include "src/hostmem/cgroup.h"
#include "src/hostmem/numa.h"

namespace siloz {
namespace {

// --- BuddyAllocator ---

TEST(BuddyTest, AllocateAndFreeRestoresPool) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  EXPECT_EQ(buddy.total_bytes(), 64_MiB);
  EXPECT_EQ(buddy.free_bytes(), 64_MiB);

  Result<uint64_t> page = buddy.Allocate(kOrder4K);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(buddy.free_bytes(), 64_MiB - 4_KiB);
  ASSERT_TRUE(buddy.Free(*page, kOrder4K).ok());
  EXPECT_EQ(buddy.free_bytes(), 64_MiB);
  // Coalescing restored a maximal block.
  EXPECT_EQ(buddy.LargestFreeOrder(), 14);  // 64 MiB = order 14
}

TEST(BuddyTest, BlocksAreNaturallyAligned) {
  BuddyAllocator buddy({PhysRange{0, 256_MiB}});
  for (uint32_t order : {kOrder4K, kOrder2M, kOrder2M + 3, kOrder1G - 4}) {
    Result<uint64_t> block = buddy.Allocate(order);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(*block % OrderBytes(order), 0u) << "order " << order;
  }
}

TEST(BuddyTest, ExhaustionReturnsNoMemory) {
  BuddyAllocator buddy({PhysRange{0, 4_MiB}});
  ASSERT_TRUE(buddy.Allocate(kOrder2M).ok());
  ASSERT_TRUE(buddy.Allocate(kOrder2M).ok());
  EXPECT_FALSE(buddy.Allocate(kOrder2M).ok());
  EXPECT_FALSE(buddy.Allocate(kOrder4K).ok());
  EXPECT_EQ(buddy.free_bytes(), 0u);
}

TEST(BuddyTest, AllocateAtSpecificBlock) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  ASSERT_TRUE(buddy.AllocateAt(6_MiB, kOrder2M).ok());
  EXPECT_FALSE(buddy.IsFree(6_MiB));
  EXPECT_TRUE(buddy.IsFree(4_MiB));
  // Double allocation fails.
  EXPECT_FALSE(buddy.AllocateAt(6_MiB, kOrder2M).ok());
  // Freeing restores.
  ASSERT_TRUE(buddy.Free(6_MiB, kOrder2M).ok());
  EXPECT_TRUE(buddy.IsFree(6_MiB));
  EXPECT_EQ(buddy.free_bytes(), 64_MiB);
}

TEST(BuddyTest, AllocateAtRejectsMisaligned) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  EXPECT_FALSE(buddy.AllocateAt(3_MiB, kOrder2M).ok());
  EXPECT_FALSE(buddy.Free(3_MiB, kOrder2M).ok());
}

TEST(BuddyTest, DoubleFreeRejected) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  Result<uint64_t> block = buddy.Allocate(kOrder2M);
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(buddy.Free(*block, kOrder2M).ok());
  const uint64_t free_before = buddy.free_bytes();
  Status again = buddy.Free(*block, kOrder2M);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_NE(again.error().message.find("double free"), std::string::npos);
  // The rejection must not disturb the accounting it protects.
  EXPECT_EQ(buddy.free_bytes(), free_before);
}

TEST(BuddyTest, FreeRejectsOverlapWithFreeBlocks) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  ASSERT_TRUE(buddy.AllocateAt(2_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(2_MiB, kOrder2M).ok());
  // A sub-block of a free block: the predecessor free block extends over it.
  EXPECT_FALSE(buddy.Free(2_MiB + 4_KiB, kOrder4K).ok());
  // A super-block containing free memory: a free block starts inside it.
  ASSERT_TRUE(buddy.AllocateAt(4_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.AllocateAt(6_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(6_MiB, kOrder2M).ok());
  EXPECT_FALSE(buddy.Free(4_MiB, kOrder2M + 1).ok());
  // The genuinely-allocated block is still freeable.
  EXPECT_TRUE(buddy.Free(4_MiB, kOrder2M).ok());
}

TEST(BuddyTest, FreeRejectsOverlapWithOfflinedPages) {
  BuddyAllocator buddy({PhysRange{0, 8_MiB}});
  // Allocate the whole block, then free + offline one interior page so the
  // only overlap with [2 MiB, 4 MiB) is the offlined page.
  ASSERT_TRUE(buddy.AllocateAt(2_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(2_MiB + 4_KiB, kOrder4K).ok());
  ASSERT_TRUE(buddy.OfflinePage(2_MiB + 4_KiB).ok());
  const uint64_t free_before = buddy.free_bytes();
  Status freed = buddy.Free(2_MiB, kOrder2M);
  ASSERT_FALSE(freed.ok());
  EXPECT_EQ(freed.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_EQ(buddy.free_bytes(), free_before);
}

TEST(BuddyTest, OfflinePageRemovesPermanently) {
  BuddyAllocator buddy({PhysRange{0, 8_MiB}});
  ASSERT_TRUE(buddy.OfflinePage(2_MiB).ok());
  EXPECT_EQ(buddy.offlined_bytes(), 4_KiB);
  EXPECT_EQ(buddy.total_bytes(), 8_MiB - 4_KiB);
  EXPECT_FALSE(buddy.IsFree(2_MiB));
  // The containing 2 MiB block can no longer be allocated whole.
  EXPECT_FALSE(buddy.AllocateAt(2_MiB, kOrder2M).ok());
  // But its other pages still can.
  EXPECT_TRUE(buddy.AllocateAt(2_MiB + 4_KiB, kOrder4K).ok());
  // Offlining an allocated page fails.
  EXPECT_FALSE(buddy.OfflinePage(2_MiB + 4_KiB).ok());
}

TEST(BuddyTest, DisjointRangesSupported) {
  BuddyAllocator buddy({PhysRange{0, 4_MiB}, PhysRange{1_GiB, 1_GiB + 4_MiB}});
  EXPECT_EQ(buddy.total_bytes(), 8_MiB);
  // Allocate everything; blocks come from both ranges.
  bool saw_high = false;
  for (int i = 0; i < 4; ++i) {
    Result<uint64_t> block = buddy.Allocate(kOrder2M);
    ASSERT_TRUE(block.ok());
    saw_high |= (*block >= 1_GiB);
  }
  EXPECT_TRUE(saw_high);
  EXPECT_FALSE(buddy.Allocate(kOrder4K).ok());
}

TEST(BuddyTest, UnalignedRangeCarvedCorrectly) {
  // A range starting at an odd 4 KiB offset still seeds correctly.
  BuddyAllocator buddy({PhysRange{4_KiB, 2_MiB}});
  EXPECT_EQ(buddy.total_bytes(), 2_MiB - 4_KiB);
  uint64_t allocated = 0;
  while (buddy.Allocate(kOrder4K).ok()) {
    allocated += 4_KiB;
  }
  EXPECT_EQ(allocated, 2_MiB - 4_KiB);
}

TEST(BuddyTest, SplitAndCoalesceStress) {
  BuddyAllocator buddy({PhysRange{0, 32_MiB}});
  std::vector<uint64_t> pages;
  for (int i = 0; i < 1000; ++i) {
    Result<uint64_t> page = buddy.Allocate(kOrder4K);
    ASSERT_TRUE(page.ok());
    pages.push_back(*page);
  }
  for (uint64_t page : pages) {
    ASSERT_TRUE(buddy.Free(page, kOrder4K).ok());
  }
  EXPECT_EQ(buddy.free_bytes(), 32_MiB);
  EXPECT_EQ(buddy.LargestFreeOrder(), 13);  // fully coalesced to 32 MiB
}

TEST(BuddyTest, AllocationOrderIsDeterministicLowestAddressFirst) {
  // Regression: the per-order free lists were unordered_sets, so the block
  // Allocate handed out depended on the hash order of whatever addresses had
  // been freed — identical call sequences placed VMs differently run to run.
  // With ordered free lists, Allocate always returns the lowest-addressed
  // block of the smallest sufficient order.
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  for (uint64_t expected : {0 * 2_MiB, 1 * 2_MiB, 2 * 2_MiB, 3 * 2_MiB}) {
    Result<uint64_t> block = buddy.Allocate(kOrder2M);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(*block, expected);
  }
  // Free three of the four in scrambled order; the block at 2 MiB stays
  // allocated so the frees cannot coalesce past it.
  ASSERT_TRUE(buddy.Free(4_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(0, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(6_MiB, kOrder2M).ok());  // coalesces into [4 MiB, 8 MiB)
  // Refills come back lowest-address-first regardless of free order: the
  // exact-order block at 0 first, then the coalesced 4 MiB block is split.
  Result<uint64_t> first = buddy.Allocate(kOrder2M);
  Result<uint64_t> second = buddy.Allocate(kOrder2M);
  Result<uint64_t> third = buddy.Allocate(kOrder2M);
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(*first, 0u);
  EXPECT_EQ(*second, 4_MiB);
  EXPECT_EQ(*third, 6_MiB);
}

TEST(BuddyTest, LargestFreeRunMergesAdjacentBlocksAcrossOrders) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  EXPECT_EQ(buddy.LargestFreeRun(), 64_MiB);
  // Pin one 2 MiB block at 6 MiB: free space is [0, 6M) and [8M, 64M). The
  // 56 MiB run spans free blocks of several different orders (8M..16M,
  // 16M..32M, 32M..64M) even though the largest single block is 32 MiB —
  // free_bytes() - LargestFreeRun() is the fragmentation the fleet reports.
  ASSERT_TRUE(buddy.AllocateAt(6_MiB, kOrder2M).ok());
  EXPECT_EQ(buddy.free_bytes(), 62_MiB);
  EXPECT_EQ(buddy.LargestFreeRun(), 56_MiB);
  ASSERT_TRUE(buddy.Free(6_MiB, kOrder2M).ok());
  EXPECT_EQ(buddy.LargestFreeRun(), 64_MiB);
  // A fully allocated pool has no run at all.
  ASSERT_TRUE(buddy.Allocate(14).ok());  // one 64 MiB block
  EXPECT_EQ(buddy.LargestFreeRun(), 0u);
}

TEST(BuddyTest, LargestFreeRunStopsAtRangeGaps) {
  BuddyAllocator buddy({PhysRange{0, 4_MiB}, PhysRange{8_MiB, 24_MiB}});
  EXPECT_EQ(buddy.free_bytes(), 20_MiB);
  EXPECT_EQ(buddy.LargestFreeRun(), 16_MiB);  // [8M, 24M); the gap breaks the run
}

// --- NumaNode / NodeRegistry ---

TEST(NumaTest, NodeProperties) {
  NodeRegistry registry;
  NumaNode& host = registry.AddNode(NodeKind::kHostReserved, 0, 0,
                                    {PhysRange{0, 1536_MiB}}, true);
  NumaNode& guest = registry.AddNode(NodeKind::kGuestReserved, 0, 1,
                                     {PhysRange{1536_MiB, 3_GiB}}, false);
  EXPECT_EQ(host.id(), 0u);
  EXPECT_EQ(guest.id(), 1u);
  EXPECT_TRUE(host.has_cpus());
  EXPECT_FALSE(guest.has_cpus());
  EXPECT_EQ(guest.allocator().total_bytes(), 1536_MiB);
  EXPECT_NE(guest.ToString().find("guest-reserved"), std::string::npos);
  EXPECT_NE(host.ToString().find("cpus"), std::string::npos);
}

TEST(NumaTest, RegistryQueries) {
  NodeRegistry registry;
  registry.AddNode(NodeKind::kHostReserved, 0, 0, {PhysRange{0, 2_MiB}}, true);
  registry.AddNode(NodeKind::kGuestReserved, 0, 1, {PhysRange{2_MiB, 4_MiB}}, false);
  registry.AddNode(NodeKind::kGuestReserved, 1, 2, {PhysRange{4_MiB, 6_MiB}}, false);
  EXPECT_EQ(registry.node_count(), 3u);
  EXPECT_EQ(registry.NodesOfKind(NodeKind::kGuestReserved).size(), 2u);
  EXPECT_EQ(registry.NodesOnSocket(0).size(), 2u);
  EXPECT_FALSE(registry.Get(7).ok());
  ASSERT_TRUE(registry.Get(2).ok());
}

TEST(NumaTest, StatSweepSkipsGuestNodes) {
  // §5.3: Siloz avoids iterating guest-reserved nodes in periodic updates.
  NodeRegistry registry;
  registry.AddNode(NodeKind::kHostReserved, 0, 0, {PhysRange{0, 2_MiB}}, true);
  for (int i = 0; i < 126; ++i) {
    registry.AddNode(NodeKind::kGuestReserved, 0, i + 1,
                     {PhysRange{2_MiB + i * 2_MiB, 4_MiB + i * 2_MiB}}, false);
  }
  EXPECT_EQ(registry.StatSweepNodeCount(false), 127u);
  EXPECT_EQ(registry.StatSweepNodeCount(true), 1u);
}

// --- Control groups ---

TEST(CgroupTest, CreateLookupDestroy) {
  CgroupRegistry registry;
  Result<ControlGroup*> group = registry.Create("vm-a", {1, 2, 3}, true);
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE((*group)->kvm_privileged());
  EXPECT_TRUE((*group)->MayAllocateFrom(2));
  EXPECT_FALSE((*group)->MayAllocateFrom(4));
  ASSERT_TRUE(registry.Get("vm-a").ok());
  EXPECT_FALSE(registry.Get("vm-b").ok());
  ASSERT_TRUE(registry.Destroy("vm-a").ok());
  EXPECT_FALSE(registry.Get("vm-a").ok());
  EXPECT_FALSE(registry.Destroy("vm-a").ok());
}

TEST(CgroupTest, DuplicateNameRejected) {
  CgroupRegistry registry;
  ASSERT_TRUE(registry.Create("vm-a", {1}, true).ok());
  EXPECT_FALSE(registry.Create("vm-a", {2}, true).ok());
}

TEST(CgroupTest, ExclusiveNodeReservation) {
  // §5.3: a guest-reserved node belongs to at most one control group.
  CgroupRegistry registry;
  ASSERT_TRUE(registry.Create("vm-a", {1, 2}, true).ok());
  EXPECT_FALSE(registry.Create("vm-b", {2, 3}, true).ok());
  // Destroying vm-a frees its nodes for reuse.
  ASSERT_TRUE(registry.Destroy("vm-a").ok());
  EXPECT_TRUE(registry.Create("vm-b", {2, 3}, true).ok());
}

TEST(CgroupTest, ConflictNamesTheOwner) {
  CgroupRegistry registry;
  ASSERT_TRUE(registry.Create("vm-a", {1, 2}, true).ok());
  ASSERT_TRUE(registry.Create("vm-b", {5}, true).ok());
  const Result<ControlGroup*> clash = registry.Create("vm-c", {3, 5, 2}, true);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.error().code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(clash.error().message, "node 2 already reserved by cgroup 'vm-a'");
  // A taken name is reported as such even when the nodes clash too.
  EXPECT_EQ(registry.Create("vm-b", {1}, true).error().code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(registry.OwnerOf(3), nullptr);  // the failed create claimed nothing
}

TEST(CgroupTest, SetMemsAllowedKeepsTheNodeIndex) {
  CgroupRegistry registry;
  ASSERT_TRUE(registry.Create("vm-a", {1, 2}, true).ok());
  ASSERT_TRUE(registry.Create("vm-b", {3}, true).ok());
  ASSERT_TRUE(registry.SetMemsAllowed("vm-a", {2, 7}).ok());
  EXPECT_EQ(registry.OwnerOf(1), nullptr);
  EXPECT_EQ(registry.OwnerOf(2)->name(), "vm-a");
  EXPECT_EQ(registry.OwnerOf(7)->name(), "vm-a");
  EXPECT_TRUE((*registry.Get("vm-a"))->MayAllocateFrom(7));
  // The released node is claimable again; a held one is not, and a denied
  // retarget changes nothing.
  EXPECT_TRUE(registry.Create("vm-c", {1}, true).ok());
  const Status denied = registry.SetMemsAllowed("vm-a", {3, 8});
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(registry.OwnerOf(8), nullptr);
  EXPECT_EQ((*registry.Get("vm-a"))->mems_allowed(), (std::set<uint32_t>{2, 7}));
  EXPECT_EQ(registry.SetMemsAllowed("vm-z", {9}).error().code, ErrorCode::kNotFound);
  // Destroy drops the group's index entries.
  ASSERT_TRUE(registry.Destroy("vm-a").ok());
  EXPECT_EQ(registry.OwnerOf(2), nullptr);
  EXPECT_EQ(registry.OwnerOf(7), nullptr);
  std::vector<std::string> names;
  for (const ControlGroup* group : registry.Groups()) {
    names.push_back(group->name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"vm-b", "vm-c"}));
}

}  // namespace
}  // namespace siloz
