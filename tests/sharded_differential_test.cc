// Serial-vs-sharded differential harness for the channel-sharded engine
// (src/memctl/sharded_engine.h, DESIGN.md §13).
//
// Shard-invariant counts — requests, reads, writes, row hits/misses, ACTs,
// PREs, and the per-bank-group command census — are pinned equal between
// the serial reference engine and every sharding of the same stream, over
// >= 100k-command randomized streams on every platform shape (Skylake DDR4,
// DDR5, SNC-2, linear). Per-bank command subsequences are identical under
// the channel partition, so these counts cannot legally differ. (Completion
// *times* differ by design: per-channel queues vs one global MLP window.)
// The same holds under the §15 sub-channel decomposition: queue regrouping
// never reorders ServeDecoded calls.
//
// Plus the experiment-level corollaries: RunWorkload report values are
// bit-identical across thread counts on the sharded path (at the default
// bank_groups_per_queue = 1), and fault-mode flip censuses are identical
// for the serial engine (channels_per_shard = 0) and every sharding.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/rng.h"
#include "src/memctl/sharded_engine.h"
#include "src/sim/experiment.h"

namespace siloz {
namespace {

constexpr uint64_t kStreamCommands = 120000;  // >= 100k per the test contract

// One platform shape under test: a geometry plus the decoder that scatters
// phys addresses over it.
struct Platform {
  std::string name;
  DramGeometry geometry;
  std::unique_ptr<AddressDecoder> decoder;
};

std::vector<Platform> AllPlatforms() {
  std::vector<Platform> platforms;
  {
    Platform p;
    p.name = "skylake_ddr4";
    p.decoder = std::make_unique<SkylakeDecoder>(p.geometry);
    platforms.push_back(std::move(p));
  }
  {
    Platform p;
    p.name = "ddr5";
    p.geometry = Ddr5Geometry();
    p.decoder = std::make_unique<SkylakeDecoder>(p.geometry);
    platforms.push_back(std::move(p));
  }
  {
    Platform p;
    p.name = "snc2";
    p.decoder = std::make_unique<SncDecoder>(p.geometry, 2);
    platforms.push_back(std::move(p));
  }
  {
    Platform p;
    p.name = "linear";
    p.decoder = std::make_unique<LinearDecoder>(p.geometry);
    platforms.push_back(std::move(p));
  }
  return platforms;
}

// Randomized mixed sequential/jumping request stream over the whole machine
// (both sockets, remote issues included), deterministic in `seed`.
std::vector<MemRequest> MakeStream(const Platform& platform, uint64_t seed,
                                   uint64_t count = kStreamCommands) {
  Rng rng(seed);
  const uint64_t lines = platform.geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  stream.reserve(count);
  uint64_t line = rng.NextBelow(lines);
  for (uint64_t i = 0; i < count; ++i) {
    if (!rng.NextBernoulli(0.7)) {
      line = rng.NextBelow(lines);  // jump
    } else {
      line = (line + 1) % lines;  // sequential run
    }
    MemRequest request;
    request.address = *platform.decoder->PhysToMedia(line * kCacheLineBytes);
    request.is_write = rng.NextBernoulli(0.3);
    request.source_socket = rng.NextBernoulli(0.1) ? 1u : 0u;
    stream.push_back(request);
  }
  return stream;
}

// Per-socket controllers plus raw pointers in the span shape the engines
// take.
struct ControllerSet {
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> ptrs;

  explicit ControllerSet(const DramGeometry& geometry) {
    for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
      owned.push_back(std::make_unique<MemoryController>(geometry, socket));
      ptrs.push_back(owned.back().get());
    }
  }
};

EngineConfig TestEngineConfig() {
  EngineConfig config;
  config.max_outstanding = 10;
  config.compute_ns_per_access = 5.0;
  return config;
}

// The counts that must be invariant under sharding (everything the partition
// argument covers). Deliberately excludes busy_ns, total_latency_ns, and
// ref_tail_hits: those depend on completion times, which the sharded engine
// changes by design.
void ExpectShardInvariantCountsEqual(const ControllerStats& serial,
                                     const ControllerStats& sharded,
                                     const std::string& label) {
  EXPECT_EQ(serial.requests, sharded.requests) << label;
  EXPECT_EQ(serial.reads, sharded.reads) << label;
  EXPECT_EQ(serial.writes, sharded.writes) << label;
  EXPECT_EQ(serial.row_hits, sharded.row_hits) << label;
  EXPECT_EQ(serial.row_misses, sharded.row_misses) << label;
  EXPECT_EQ(serial.activates, sharded.activates) << label;
  EXPECT_EQ(serial.precharges, sharded.precharges) << label;
}

TEST(ShardedDifferentialTest, ShardInvariantCountsMatchSerialOnAllPlatforms) {
  for (const Platform& platform : AllPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0xD1FF + 1);
    ControllerSet serial(platform.geometry);
    RunClosedLoop(stream, serial.ptrs, TestEngineConfig());

    for (uint32_t channels_per_shard :
         {1u, 2u, platform.geometry.channels_per_socket}) {
      ControllerSet sharded(platform.geometry);
      ShardedEngineConfig config;
      config.engine = TestEngineConfig();
      config.channels_per_shard = channels_per_shard;
      Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, sharded.ptrs, config);
      ASSERT_TRUE(result.ok()) << platform.name;
      EXPECT_EQ(result->requests, stream.size()) << platform.name;
      for (size_t socket = 0; socket < serial.ptrs.size(); ++socket) {
        ExpectShardInvariantCountsEqual(
            serial.ptrs[socket]->stats(), sharded.ptrs[socket]->stats(),
            platform.name + " cps=" + std::to_string(channels_per_shard) + " socket" +
                std::to_string(socket));
      }
      // Per-bank-group command census: same partition argument, finer grain.
      for (size_t socket = 0; socket < serial.ptrs.size(); ++socket) {
        const auto& lhs = serial.ptrs[socket]->bank_group_counts();
        const auto& rhs = sharded.ptrs[socket]->bank_group_counts();
        ASSERT_EQ(lhs.size(), rhs.size());
        for (size_t group = 0; group < lhs.size(); ++group) {
          EXPECT_EQ(lhs[group].act, rhs[group].act) << platform.name << " group " << group;
          EXPECT_EQ(lhs[group].pre, rhs[group].pre) << platform.name << " group " << group;
          EXPECT_EQ(lhs[group].rd, rhs[group].rd) << platform.name << " group " << group;
          EXPECT_EQ(lhs[group].wr, rhs[group].wr) << platform.name << " group " << group;
        }
      }
    }
  }
}

TEST(ShardedDifferentialTest, SubShardedInvariantCountsMatchSerialOnAllPlatforms) {
  // Claim 1 extended to the §15 sub-channel decomposition: per-bank command
  // subsequences are a pure function of the channel partition, and bank-group
  // queues subdivide *within* a shard without reordering ServeDecoded calls —
  // so for every queue shape the invariant counts and the per-bank-group
  // census still match the serial reference exactly.
  for (const Platform& platform : AllPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0x5B5B);
    ControllerSet serial(platform.geometry);
    RunClosedLoop(stream, serial.ptrs, TestEngineConfig());

    for (const uint32_t bgpq : {1u, 2u, 4u}) {
      ControllerSet sharded(platform.geometry);
      ShardedEngineConfig config;
      config.engine = TestEngineConfig();
      config.channels_per_shard = 2;
      config.bank_groups_per_queue = bgpq;
      Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, sharded.ptrs, config);
      const std::string label = platform.name + " bgpq=" + std::to_string(bgpq);
      ASSERT_TRUE(result.ok()) << label;
      EXPECT_EQ(result->requests, stream.size()) << label;
      // Telemetry reports the §15 queue decomposition per shard.
      for (const ShardTelemetry& shard : result->shards) {
        EXPECT_EQ(shard.queues, ShardQueueCount(platform.geometry, shard.channels, bgpq))
            << label;
      }
      for (size_t socket = 0; socket < serial.ptrs.size(); ++socket) {
        ExpectShardInvariantCountsEqual(serial.ptrs[socket]->stats(),
                                        sharded.ptrs[socket]->stats(),
                                        label + " socket" + std::to_string(socket));
        const auto& lhs = serial.ptrs[socket]->bank_group_counts();
        const auto& rhs = sharded.ptrs[socket]->bank_group_counts();
        ASSERT_EQ(lhs.size(), rhs.size()) << label;
        for (size_t group = 0; group < lhs.size(); ++group) {
          EXPECT_EQ(lhs[group].act, rhs[group].act) << label << " group " << group;
          EXPECT_EQ(lhs[group].pre, rhs[group].pre) << label << " group " << group;
          EXPECT_EQ(lhs[group].rd, rhs[group].rd) << label << " group " << group;
          EXPECT_EQ(lhs[group].wr, rhs[group].wr) << label << " group " << group;
        }
      }
    }
  }
}

TEST(ShardedDifferentialTest, OneShardPerChannelMatchesWiderShards) {
  // Different channels_per_shard values are different *models* and may
  // legally differ in time, but shard-invariant counts must agree among
  // themselves too (the partition argument applies between any two
  // shardings, not just sharded-vs-serial).
  const Platform platform{
      "skylake_ddr4", DramGeometry{}, std::make_unique<SkylakeDecoder>(DramGeometry{})};
  const std::vector<MemRequest> stream = MakeStream(platform, 0x5EED);
  ControllerSet narrow(platform.geometry);
  ControllerSet wide(platform.geometry);
  ShardedEngineConfig config;
  config.engine = TestEngineConfig();
  config.channels_per_shard = 1;
  ASSERT_TRUE(RunShardedClosedLoop(stream, narrow.ptrs, config).ok());
  config.channels_per_shard = 3;
  ASSERT_TRUE(RunShardedClosedLoop(stream, wide.ptrs, config).ok());
  for (size_t socket = 0; socket < narrow.ptrs.size(); ++socket) {
    ExpectShardInvariantCountsEqual(narrow.ptrs[socket]->stats(), wide.ptrs[socket]->stats(),
                                    "cps 1 vs 3 socket" + std::to_string(socket));
  }
}

TEST(ShardedDifferentialTest, RunWorkloadBitIdenticalAcrossThreads) {
  WorkloadSpec spec = *FindWorkload("redis-a");
  spec.accesses = 100000;
  RunnerConfig config;
  config.trials = 3;
  config.vm.memory_bytes = 3ull << 30;
  config.channels_per_shard = 1;
  ASSERT_EQ(config.bank_groups_per_queue, 1u);  // the shared model default

  std::vector<RunMeasurement> runs;
  for (uint32_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    Result<RunMeasurement> run = RunWorkload(config, spec);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    runs.push_back(std::move(*run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].elapsed_ns.mean(), runs[0].elapsed_ns.mean());
    EXPECT_EQ(runs[i].elapsed_ns.stddev(), runs[0].elapsed_ns.stddev());
    EXPECT_EQ(runs[i].bandwidth_gibs.mean(), runs[0].bandwidth_gibs.mean());
    EXPECT_EQ(runs[i].row_hit_rate, runs[0].row_hit_rate);
    EXPECT_EQ(runs[i].shard_requests, runs[0].shard_requests);
  }
  // The sharded engine reported one slot per shard, every request accounted.
  ASSERT_FALSE(runs[0].shard_requests.empty());
  uint64_t total = 0;
  for (uint64_t requests : runs[0].shard_requests) {
    total += requests;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(config.trials) * spec.accesses);
}

TEST(ShardedDifferentialTest, FaultReplayFlipCensusMatchesSerial) {
  // Fault-mode flip identity: the disturbance replay is a function of the
  // trace alone (ACTs stamped by global trace index), so the flip census
  // cannot depend on the serve engine's sharding.
  WorkloadSpec spec = *FindWorkload("redis-a");
  spec.accesses = 60000;
  RunnerConfig config;
  config.trials = 2;
  config.vm.memory_bytes = 3ull << 30;
  config.fault_tracking = true;
  config.dimm_profiles = {DimmProfile{}};

  std::vector<std::vector<uint64_t>> censuses;
  for (uint32_t channels_per_shard : {0u, 1u, 3u}) {
    config.channels_per_shard = channels_per_shard;
    Result<RunMeasurement> run = RunWorkload(config, spec);
    ASSERT_TRUE(run.ok()) << "channels_per_shard=" << channels_per_shard;
    censuses.push_back(std::move(run->flip_phys));
  }
  EXPECT_EQ(censuses[1], censuses[0]) << "sharded(1) flips != serial flips";
  EXPECT_EQ(censuses[2], censuses[0]) << "sharded(3) flips != serial flips";
}

}  // namespace
}  // namespace siloz
