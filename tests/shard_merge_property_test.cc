// Algebraic properties of the shard-merge fold (MemoryController::AbsorbShard
// plus the ShardedEngineResult elapsed/requests fold; DESIGN.md §13).
//
// The merge is the one place shard results recombine, so its algebra is what
// the determinism contract rests on:
//  - the fold is a pure function of the shard sequence (same order, same
//    bits — twice),
//  - integer counters and the busy_ns max are associative under regrouping
//    (total_latency_ns, a double sum, is order-sensitive — which is exactly
//    why MergeShards pins one fixed fold order instead of relying on
//    associativity),
//  - a never-served shard is a fold identity,
//  - absorbing zeroes the source, so a double absorb is a no-op,
//  - shards touch disjoint bank groups, so the census fold is a disjoint
//    union, and
//  - the result-level fold is elapsed = max over shards, requests = sum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/rng.h"
#include "src/memctl/sharded_engine.h"

namespace siloz {
namespace {

EngineConfig TestEngineConfig() {
  EngineConfig config;
  config.max_outstanding = 8;
  config.compute_ns_per_access = 3.0;
  return config;
}

// Serves a deterministic stream confined to `channel` into a fresh
// controller, giving each "shard" a distinct, channel-disjoint footprint.
std::unique_ptr<MemoryController> ServeChannelShard(const DramGeometry& geometry,
                                                    uint32_t channel, uint64_t seed,
                                                    uint64_t count = 20000,
                                                    uint32_t bank_groups_per_queue =
                                                        kDefaultBankGroupsPerQueue) {
  const SkylakeDecoder decoder(geometry);
  auto controller = std::make_unique<MemoryController>(geometry, 0);
  ShardServer server(*controller, TestEngineConfig(), bank_groups_per_queue, channel,
                     /*channels=*/1);
  Rng rng(seed);
  const uint64_t lines = geometry.total_bytes() / kCacheLineBytes;
  for (uint64_t i = 0; i < count; ++i) {
    // Redirect a random address onto the target channel; every other
    // coordinate stays randomized.
    MediaAddress address = *decoder.PhysToMedia(rng.NextBelow(lines) * kCacheLineBytes);
    address.socket = 0;
    address.channel = channel;
    MemRequest request;
    request.address = address;
    request.is_write = rng.NextBernoulli(0.25);
    request.source_socket = 0;
    server.Feed(controller->DecodeCmd(request));
  }
  return controller;
}

bool StatsBitIdentical(const ControllerStats& a, const ControllerStats& b) {
  return a.requests == b.requests && a.row_hits == b.row_hits &&
         a.row_misses == b.row_misses && a.activates == b.activates &&
         a.precharges == b.precharges && a.reads == b.reads && a.writes == b.writes &&
         a.ref_tail_hits == b.ref_tail_hits && a.busy_ns == b.busy_ns &&
         a.total_latency_ns == b.total_latency_ns;
}

TEST(ShardMergePropertyTest, FixedOrderFoldIsDeterministic) {
  const DramGeometry geometry;
  ControllerStats folds[2];
  for (int repeat = 0; repeat < 2; ++repeat) {
    MemoryController target(geometry, 0);
    for (uint32_t channel = 0; channel < 3; ++channel) {
      auto shard = ServeChannelShard(geometry, channel, 100 + channel);
      target.AbsorbShard(*shard);
    }
    folds[repeat] = target.stats();
  }
  EXPECT_TRUE(StatsBitIdentical(folds[0], folds[1]))
      << "same shard sequence, different fold bits";
}

TEST(ShardMergePropertyTest, CounterFoldAssociativeUnderRegrouping) {
  // (target + A) + B  vs  target + (A + B): integer counters, the census,
  // and the busy_ns max must agree; total_latency_ns is excluded because
  // double addition is not associative — the fixed fold order exists
  // precisely so that non-associativity never becomes observable.
  const DramGeometry geometry;
  MemoryController left(geometry, 0);
  {
    auto a = ServeChannelShard(geometry, 0, 7);
    auto b = ServeChannelShard(geometry, 1, 8);
    left.AbsorbShard(*a);
    left.AbsorbShard(*b);
  }
  MemoryController right(geometry, 0);
  {
    auto a = ServeChannelShard(geometry, 0, 7);
    auto b = ServeChannelShard(geometry, 1, 8);
    a->AbsorbShard(*b);
    right.AbsorbShard(*a);
  }
  EXPECT_EQ(left.stats().requests, right.stats().requests);
  EXPECT_EQ(left.stats().row_hits, right.stats().row_hits);
  EXPECT_EQ(left.stats().row_misses, right.stats().row_misses);
  EXPECT_EQ(left.stats().activates, right.stats().activates);
  EXPECT_EQ(left.stats().precharges, right.stats().precharges);
  EXPECT_EQ(left.stats().reads, right.stats().reads);
  EXPECT_EQ(left.stats().writes, right.stats().writes);
  EXPECT_EQ(left.stats().ref_tail_hits, right.stats().ref_tail_hits);
  EXPECT_EQ(left.stats().busy_ns, right.stats().busy_ns);  // max is associative
  for (size_t g = 0; g < left.bank_group_counts().size(); ++g) {
    EXPECT_EQ(left.bank_group_counts()[g].act, right.bank_group_counts()[g].act);
    EXPECT_EQ(left.bank_group_counts()[g].rd, right.bank_group_counts()[g].rd);
    EXPECT_EQ(left.bank_group_counts()[g].wr, right.bank_group_counts()[g].wr);
  }
}

TEST(ShardMergePropertyTest, EmptyShardIsFoldIdentity) {
  const DramGeometry geometry;
  auto target = ServeChannelShard(geometry, 2, 42);
  const ControllerStats before = target->stats();
  MemoryController empty(geometry, 0);  // never served a request
  target->AbsorbShard(empty);
  EXPECT_TRUE(StatsBitIdentical(before, target->stats()))
      << "absorbing an empty shard changed the fold";
}

TEST(ShardMergePropertyTest, AbsorbZeroesSourceSoDoubleAbsorbIsNoOp) {
  const DramGeometry geometry;
  MemoryController target(geometry, 0);
  auto shard = ServeChannelShard(geometry, 1, 9);
  target.AbsorbShard(*shard);
  const ControllerStats after_first = target.stats();
  EXPECT_EQ(shard->stats().requests, 0u);  // source zeroed
  target.AbsorbShard(*shard);              // second absorb folds nothing
  EXPECT_TRUE(StatsBitIdentical(after_first, target.stats()));
  for (const BankGroupCounts& group : shard->bank_group_counts()) {
    EXPECT_EQ(group.act + group.pre + group.rd + group.wr + group.ref, 0u);
  }
}

TEST(ShardMergePropertyTest, ChannelShardsHaveDisjointBankGroupCensuses) {
  // Each channel owns a disjoint bank-index range, so two channel shards can
  // never write the same bank-group slot: the census fold is a disjoint
  // union, and the merged census equals each shard's own census on its
  // groups.
  const DramGeometry geometry;
  auto shard_a = ServeChannelShard(geometry, 0, 11);
  auto shard_b = ServeChannelShard(geometry, 1, 12);
  const std::vector<BankGroupCounts> census_a = shard_a->bank_group_counts();
  const std::vector<BankGroupCounts> census_b = shard_b->bank_group_counts();
  ASSERT_EQ(census_a.size(), census_b.size());
  uint64_t overlap = 0;
  uint64_t populated = 0;
  for (size_t g = 0; g < census_a.size(); ++g) {
    const bool a_active = census_a[g].rd + census_a[g].wr > 0;
    const bool b_active = census_b[g].rd + census_b[g].wr > 0;
    overlap += static_cast<uint64_t>(a_active && b_active);
    populated += static_cast<uint64_t>(a_active || b_active);
  }
  EXPECT_EQ(overlap, 0u) << "channel shards touched a shared bank group";
  EXPECT_GT(populated, 0u);

  MemoryController target(geometry, 0);
  target.AbsorbShard(*shard_a);
  target.AbsorbShard(*shard_b);
  for (size_t g = 0; g < census_a.size(); ++g) {
    EXPECT_EQ(target.bank_group_counts()[g].rd, census_a[g].rd + census_b[g].rd);
    EXPECT_EQ(target.bank_group_counts()[g].act, census_a[g].act + census_b[g].act);
  }
}

TEST(ShardMergePropertyTest, ShardQueueCountAlgebra) {
  // DESIGN.md §15: queues = ceil(banks / (kBanksPerGroup * bgpq)), bgpq >= 1.
  const DramGeometry geometry;  // 32 banks per channel by default
  EXPECT_DEATH(ShardQueueCount(geometry, 1, 0), "bank_groups_per_queue > 0");
  EXPECT_EQ(ShardQueueCount(geometry, 1, 1), geometry.banks_per_channel() / kBanksPerGroup);
  for (uint32_t channels : {1u, 2u, 3u, 6u}) {
    for (uint32_t bgpq : {1u, 2u, 4u, 8u}) {
      const uint32_t queues = ShardQueueCount(geometry, channels, bgpq);
      const uint32_t banks = channels * geometry.banks_per_channel();
      // Ceil division: every bank routes to a queue, and the last queue is
      // non-empty.
      EXPECT_GE(queues * kBanksPerGroup * bgpq, banks);
      EXPECT_LT((queues - 1) * kBanksPerGroup * bgpq, banks);
    }
  }
  // Grouping coarser than the shard degrades to one queue, never zero.
  EXPECT_EQ(ShardQueueCount(geometry, 1, 1000), 1u);
}

TEST(ShardMergePropertyTest, BankGroupQueueRegroupingPreservesInvariantCounts) {
  // Splitting a shard's completion window into per-bank-group queues changes
  // completion *times* only: ServeDecoded runs once per command in the same
  // stream order under every regrouping, so the request/hit/miss/ACT/PRE/
  // read/write censuses are equal across queue shapes (§15). Timing fields
  // (busy_ns, latency, ref_tail_hits) are deliberately excluded — they are
  // exactly what the regrouping is allowed to move.
  const DramGeometry geometry;
  std::vector<ControllerStats> stats;
  for (const uint32_t bgpq : {1u, 2u, 4u, 8u}) {
    stats.push_back(ServeChannelShard(geometry, 1, 77, 20000, bgpq)->stats());
  }
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].requests, stats[0].requests) << "shape " << i;
    EXPECT_EQ(stats[i].row_hits, stats[0].row_hits) << "shape " << i;
    EXPECT_EQ(stats[i].row_misses, stats[0].row_misses) << "shape " << i;
    EXPECT_EQ(stats[i].activates, stats[0].activates) << "shape " << i;
    EXPECT_EQ(stats[i].precharges, stats[0].precharges) << "shape " << i;
    EXPECT_EQ(stats[i].reads, stats[0].reads) << "shape " << i;
    EXPECT_EQ(stats[i].writes, stats[0].writes) << "shape " << i;
  }
}

TEST(ShardMergePropertyTest, SingleQueueShardBitIdenticalToSerialEngine) {
  // A one-channel stream served through one whole-shard queue is the serial
  // engine's closed loop over the same commands — one completion window,
  // one issue cursor — so even the timing fields must match RunClosedLoop
  // bit for bit.
  const DramGeometry geometry;
  const SkylakeDecoder decoder(geometry);
  Rng rng(0x51A6);
  const uint64_t lines = geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  for (uint64_t i = 0; i < 20000; ++i) {
    MemRequest request;
    request.address = *decoder.PhysToMedia(rng.NextBelow(lines) * kCacheLineBytes);
    request.address.socket = 0;
    request.address.channel = 0;
    request.is_write = rng.NextBernoulli(0.25);
    request.source_socket = 0;
    stream.push_back(request);
  }
  MemoryController serial(geometry, 0);
  MemoryController* serial_ptr = &serial;
  const EngineResult reference = RunClosedLoop(stream, {&serial_ptr, 1}, TestEngineConfig());

  MemoryController sharded(geometry, 0);
  MemoryController* sharded_ptr = &sharded;
  ShardedEngineConfig config;
  config.engine = TestEngineConfig();
  config.channels_per_shard = 1;
  config.bank_groups_per_queue = geometry.banks_per_channel() / kBanksPerGroup;
  Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, {&sharded_ptr, 1}, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->shards[0].queues, 1u);
  EXPECT_EQ(result->elapsed_ns, reference.elapsed_ns);
  EXPECT_EQ(result->requests, reference.requests);
  EXPECT_TRUE(StatsBitIdentical(serial.stats(), sharded.stats()))
      << "whole-shard queue diverged from the serial engine";
}

TEST(ShardMergePropertyTest, ResultFoldIsElapsedMaxRequestsSum) {
  const DramGeometry geometry;
  const SkylakeDecoder decoder(geometry);
  Rng rng(0xF01D);
  const uint64_t lines = geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  for (uint64_t i = 0; i < 30000; ++i) {
    MemRequest request;
    request.address = *decoder.PhysToMedia(rng.NextBelow(lines) * kCacheLineBytes);
    request.is_write = rng.NextBernoulli(0.5);
    stream.push_back(request);
  }
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> controllers;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    owned.push_back(std::make_unique<MemoryController>(geometry, socket));
    controllers.push_back(owned.back().get());
  }
  ShardedEngineConfig config;
  config.engine = TestEngineConfig();
  config.channels_per_shard = 1;
  Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, controllers, config);
  ASSERT_TRUE(result.ok());

  double max_elapsed = 0.0;
  uint64_t sum_requests = 0;
  for (const ShardTelemetry& shard : result->shards) {
    max_elapsed = std::max(max_elapsed, shard.elapsed_ns);
    sum_requests += shard.requests;
  }
  EXPECT_EQ(result->elapsed_ns, max_elapsed);
  EXPECT_EQ(result->requests, sum_requests);
  EXPECT_EQ(result->requests, stream.size());
}

}  // namespace
}  // namespace siloz
