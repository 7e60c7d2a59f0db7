// Concurrency and conservation stress for the sharded engine.
//
// The concurrency leg runs a figure-shaped grid through RunWorkloadGrid —
// every (point, trial) pair a pool task, each serving its trace through the
// sharded engine at channels_per_shard = 1, bank_groups_per_queue = 1 —
// with a real 8-worker pool, and asserts bit-identity against the
// single-worker run, model-domain metrics census included (worker count
// must never be observable). The TSan CI job runs this binary: it is the
// race detector's main course for trials sharing a booted platform while
// each serves its own shard controllers.
//
// The conservation leg drives the sharded engine's served == expected check
// directly: a producer that emits one command more or fewer than announced
// must fail the run with kIntegrityViolation, never return a result; and a
// config asking the engine for worker threads must fail its CHECK.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/rng.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/metrics.h"
#include "src/sim/experiment.h"

namespace siloz {
namespace {

// Baseline and Siloz points over two workloads, three trials each: twelve
// trial tasks, enough for eight workers to genuinely overlap.
std::vector<GridPoint> StressGrid(uint64_t accesses) {
  std::vector<GridPoint> points;
  for (const char* name : {"redis-a", "mlc-stream"}) {
    for (const bool siloz_enabled : {false, true}) {
      GridPoint point;
      point.config.trials = 3;
      point.config.seed = 0x57E55;
      point.config.vm.memory_bytes = 3ull << 30;
      point.config.channels_per_shard = 1;  // max shards per trial
      point.config.bank_groups_per_queue = 1;
      point.config.hypervisor.enabled = siloz_enabled;
      point.workload = *FindWorkload(name);
      point.workload.accesses = accesses;
      points.push_back(point);
    }
  }
  return points;
}

struct GridRun {
  std::vector<RunMeasurement> measurements;
  std::string model_census;
};

GridRun RunGrid(const std::vector<GridPoint>& points, uint32_t threads) {
  obs::Registry::Global().Reset();
  Result<std::vector<RunMeasurement>> grid = RunWorkloadGrid(points, threads);
  EXPECT_TRUE(grid.ok()) << grid.error().ToString();
  GridRun run;
  if (grid.ok()) {
    run.measurements = std::move(*grid);
  }
  run.model_census = obs::Registry::Global().SectionJson(obs::Domain::kModel);
  return run;
}

void ExpectSameGrid(const GridRun& a, const GridRun& b, const std::string& label) {
  ASSERT_EQ(a.measurements.size(), b.measurements.size()) << label;
  for (size_t i = 0; i < a.measurements.size(); ++i) {
    const RunMeasurement& x = a.measurements[i];
    const RunMeasurement& y = b.measurements[i];
    EXPECT_EQ(x.elapsed_ns.mean(), y.elapsed_ns.mean()) << label << " point " << i;
    EXPECT_EQ(x.elapsed_ns.stddev(), y.elapsed_ns.stddev()) << label << " point " << i;
    EXPECT_EQ(x.bandwidth_gibs.mean(), y.bandwidth_gibs.mean()) << label << " point " << i;
    EXPECT_EQ(x.row_hit_rate, y.row_hit_rate) << label << " point " << i;
    EXPECT_EQ(x.shard_requests, y.shard_requests) << label << " point " << i;
  }
  // Byte-identical model-domain metrics, per-shard censuses included.
  EXPECT_EQ(a.model_census, b.model_census) << label;
}

TEST(ShardedStressTest, EightWorkersBitIdenticalToOne) {
  const std::vector<GridPoint> points = StressGrid(200000);
  const GridRun one = RunGrid(points, 1);
  const GridRun eight = RunGrid(points, 8);
  ExpectSameGrid(one, eight, "8 vs 1 workers");

  // Guard against vacuity: every trial went through the sharded engine,
  // one slot per (socket, channel), every request accounted.
  const DramGeometry geometry;
  for (size_t i = 0; i < one.measurements.size(); ++i) {
    const std::vector<uint64_t>& shards = one.measurements[i].shard_requests;
    EXPECT_EQ(shards.size(), static_cast<size_t>(geometry.sockets) *
                                 geometry.channels_per_socket)
        << "point " << i;
    uint64_t served = 0;
    for (uint64_t requests : shards) {
      served += requests;
    }
    EXPECT_EQ(served, uint64_t{points[i].config.trials} * points[i].workload.accesses)
        << "point " << i;
  }
  EXPECT_NE(one.model_census.find("engine.shard0.requests"), std::string::npos);
}

TEST(ShardedStressTest, RepeatedParallelRunsAgree) {
  // Same grid, several 8-worker runs: scheduling jitter across runs must
  // never leak into results.
  const std::vector<GridPoint> points = StressGrid(50000);
  const GridRun reference = RunGrid(points, 8);
  for (int run = 1; run < 3; ++run) {
    ExpectSameGrid(reference, RunGrid(points, 8), "run " + std::to_string(run));
  }
}

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

TEST(ShardedConservationTest, MiscountedStreamIsIntegrityViolation) {
  const DramGeometry geometry;
  const SkylakeDecoder decoder(geometry);
  Rng rng(0xFA11);
  const uint64_t lines = geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  for (uint64_t i = 0; i < 20000; ++i) {
    MemRequest request;
    request.address = *decoder.PhysToMedia(rng.NextBelow(lines) * kCacheLineBytes);
    request.is_write = rng.NextBernoulli(0.3);
    stream.push_back(request);
  }
  ShardedEngineConfig config;
  config.engine.max_outstanding = 10;
  config.engine.compute_ns_per_access = 2.0;

  auto run = [&](uint64_t expected_requests) {
    ControllerSet controllers(geometry);
    return RunShardedFused(
        expected_requests,
        [&](auto&& emit) {
          for (const MemRequest& request : stream) {
            emit(controllers.ptrs[request.address.socket]->DecodeCmd(request),
                 request.address.socket);
          }
        },
        controllers.ptrs, config);
  };

  for (const uint64_t expected : {stream.size() - 1, stream.size() + 1}) {
    Result<ShardedEngineResult> miscounted = run(expected);
    ASSERT_FALSE(miscounted.ok()) << "expected " << expected;
    EXPECT_EQ(miscounted.error().code, ErrorCode::kIntegrityViolation);
    EXPECT_NE(miscounted.error().ToString().find("conservation"), std::string::npos)
        << miscounted.error().ToString();
  }
  Result<ShardedEngineResult> exact = run(stream.size());
  ASSERT_TRUE(exact.ok()) << exact.error().ToString();
  EXPECT_EQ(exact->requests, stream.size());

  // The engine serves on the calling thread only; asking it for workers is
  // a caller bug, not a slower path.
  config.threads = 2;
  EXPECT_DEATH(run(stream.size()), "threads <= 1");
}

}  // namespace
}  // namespace siloz
