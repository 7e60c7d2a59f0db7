#include "src/memctl/sharded_engine.h"

#include <algorithm>
#include <optional>
#include <string>

#include "src/obs/metrics.h"

namespace siloz {
namespace sharded_internal {

Result<ShardedEngineResult> MergeShards(const ShardPlan& plan,
                                        std::span<std::optional<MemoryController>> shard_controllers,
                                        std::span<const EngineResult> shard_results,
                                        std::span<MemoryController* const> controllers,
                                        uint64_t expected_requests,
                                        uint32_t bank_groups_per_queue) {
  SILOZ_CHECK(shard_controllers.size() == plan.shard_count());
  SILOZ_CHECK(shard_results.size() == plan.shard_count());

  // Fixed-order merge: ascending shard index (socket-major, then channel
  // block). AbsorbShard zeroes each shard controller, so their destructors
  // flush nothing — the absorb targets own the metrics export. The
  // model-domain per-shard census stages through ShardMetrics and folds in
  // the same shard order, keeping registry contents thread-count-invariant.
  ShardedEngineResult result;
  result.shards.reserve(plan.shard_count());
  obs::Registry& registry = obs::Registry::Global();
  obs::ShardMetrics staged;
  for (uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
    const ControllerStats& stats = shard_controllers[shard]->stats();
    const std::string prefix = "engine.shard" + std::to_string(shard) + ".";
    staged.Add(prefix + "requests", stats.requests);
    staged.Add(prefix + "row_hits", stats.row_hits);
    staged.Add(prefix + "row_misses", stats.row_misses);
    controllers[plan.SocketOf(shard)]->AbsorbShard(*shard_controllers[shard]);
    const EngineResult& served = shard_results[shard];
    result.elapsed_ns = std::max(result.elapsed_ns, served.elapsed_ns);
    result.requests += served.requests;
    ShardTelemetry telemetry;
    telemetry.socket = plan.SocketOf(shard);
    telemetry.first_channel = plan.FirstChannelOf(shard);
    telemetry.channels = plan.ChannelsOf(shard);
    telemetry.queues = ShardQueueCount(controllers[0]->geometry(), telemetry.channels,
                                       bank_groups_per_queue);
    telemetry.requests = served.requests;
    telemetry.elapsed_ns = served.elapsed_ns;
    result.shards.push_back(telemetry);
  }
  staged.FoldInto(registry);

  // Conservation checker: routing + serve + merge must neither drop nor
  // duplicate a request. A violation here means a shard-routing bug or a
  // producer that emitted the wrong count, not a model disagreement, so it
  // is an integrity error rather than a CHECK.
  if (result.requests != expected_requests) {
    return MakeError(ErrorCode::kIntegrityViolation,
                     "shard conservation violated: served " +
                         std::to_string(result.requests) + " of " +
                         std::to_string(expected_requests) + " requests");
  }
  return result;
}

}  // namespace sharded_internal

Result<ShardedEngineResult> RunShardedClosedLoop(std::span<const MemRequest> requests,
                                                 std::span<MemoryController* const> controllers,
                                                 const ShardedEngineConfig& config) {
  return RunShardedFused(
      requests.size(),
      [&](auto&& emit) {
        for (const MemRequest& request : requests) {
          SILOZ_DCHECK(request.address.socket < controllers.size());
          emit(controllers[request.address.socket]->DecodeCmd(request), request.address.socket);
        }
      },
      controllers, config);
}

}  // namespace siloz
