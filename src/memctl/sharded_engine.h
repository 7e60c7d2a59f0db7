// Sharded closed-loop engine: per-channel command queues.
//
// The serial engine (engine.h) couples every channel through one MLP window:
// request i+1 cannot issue until the globally-oldest in-flight request
// retires, wherever it lives. Real controllers are not built that way —
// each channel owns an independent command queue, and cores sustain their
// MLP against the channel actually servicing the miss. The sharded engine
// models that decomposition (DESIGN.md §13): the request stream is split by
// (socket, channel block) into shards, every shard runs its own closed loop
// against a shard-private MemoryController, and the per-shard results are
// merged in a fixed shard order.
//
// There is one serve path, RunShardedFused: each decoded command feeds its
// shard's closed loop the moment it is produced, with nothing staged in
// between. RunShardedClosedLoop is the adapter for a materialized trace.
// Multi-core scaling comes from the caller's trial grid (RunWorkloadGrid),
// never from inside one stream.
//
// One level below the channel (DESIGN.md §15), each shard splits into
// per-bank-group command queues: every block of bank_groups_per_queue bank
// groups owns its own CompletionWindow, so a request stalls only behind its
// own queue's oldest in-flight miss while the shard's issue cursor keeps the
// command stream in order.
//
// Determinism contract (DESIGN.md §8/§13): the shard decomposition is a
// property of the *model configuration* (channels_per_shard,
// bank_groups_per_queue), and the merge — stats absorption, elapsed fold,
// telemetry — walks shards in ascending shard index.
//
// Relation to the serial engine: per-bank command subsequences are identical
// under partition, so row hits/misses, ACT/PRE censuses, and read/write
// counts match the serial engine exactly (the differential harness in
// tests/sharded_differential_test.cc pins this). Completion *times* differ
// by design — per-channel queues against a global window — which is why both
// engines stay in-tree: serial is the reference semantics, sharded the
// realistic controller shape.
#ifndef SILOZ_SRC_MEMCTL_SHARDED_ENGINE_H_
#define SILOZ_SRC_MEMCTL_SHARDED_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/base/check.h"
#include "src/base/result.h"
#include "src/memctl/engine.h"

namespace siloz {

// The model-shape defaults, shared by every entry point (RunnerConfig,
// ShardedEngineConfig, the bench flags): one command queue shard per
// channel, split into one queue per bank group — the realistic controller
// front-end.
inline constexpr uint32_t kDefaultChannelsPerShard = 1;
inline constexpr uint32_t kDefaultBankGroupsPerQueue = 1;

struct ShardedEngineConfig {
  // Per-shard closed-loop parameters: each shard (channel command queue)
  // sustains its own MLP window and compute gap.
  EngineConfig engine;
  // Channels folded into one shard (clamped to [1, channels_per_socket]).
  // Part of the model configuration: results depend on this knob.
  uint32_t channels_per_shard = kDefaultChannelsPerShard;
  // Sub-channel decomposition of each shard into per-bank-group command
  // queues (DESIGN.md §15), >= 1: each block of N bank groups
  // (kBanksPerGroup banks apiece) owns an independent queue with its own
  // completion window; the queues share the shard's issue cursor. A value
  // covering the whole shard gives one window per shard. Part of the model
  // configuration: completion times depend on this knob — the per-bank
  // command subsequences, and hence every invariant census, do not.
  uint32_t bank_groups_per_queue = kDefaultBankGroupsPerQueue;
  // Set only by the benchmark harness, which records it; the engine serves
  // on the calling thread and CHECK-fails on any value above 1.
  uint32_t threads = 1;
};

// Fixed decomposition of the platform's channels into shards, enumerated
// socket-major then channel-block — the canonical merge order.
class ShardPlan {
 public:
  ShardPlan(const DramGeometry& geometry, uint32_t sockets, uint32_t channels_per_shard)
      : channels_per_socket_(geometry.channels_per_socket),
        channels_per_shard_(
            std::clamp(channels_per_shard, 1u, geometry.channels_per_socket)),
        blocks_per_socket_((geometry.channels_per_socket + channels_per_shard_ - 1) /
                           channels_per_shard_),
        sockets_(sockets),
        block_of_channel_(channels_per_socket_) {
    // ShardOf runs once per command on the sharded hot paths; a prebuilt
    // channel->block table beats the integer divide it replaces.
    for (uint32_t channel = 0; channel < channels_per_socket_; ++channel) {
      block_of_channel_[channel] = channel / channels_per_shard_;
    }
  }

  uint32_t shard_count() const { return sockets_ * blocks_per_socket_; }
  uint32_t blocks_per_socket() const { return blocks_per_socket_; }
  uint32_t channels_per_shard() const { return channels_per_shard_; }

  uint32_t ShardOf(uint32_t socket, uint32_t channel) const {
    return socket * blocks_per_socket_ + block_of_channel_[channel];
  }
  uint32_t SocketOf(uint32_t shard) const { return shard / blocks_per_socket_; }
  uint32_t FirstChannelOf(uint32_t shard) const {
    return (shard % blocks_per_socket_) * channels_per_shard_;
  }
  uint32_t ChannelsOf(uint32_t shard) const {
    return std::min(channels_per_shard_, channels_per_socket_ - FirstChannelOf(shard));
  }

 private:
  uint32_t channels_per_socket_;
  uint32_t channels_per_shard_;
  uint32_t blocks_per_socket_;
  uint32_t sockets_;
  std::vector<uint32_t> block_of_channel_;  // channel -> block (shard within socket)
};

// Bank-group command queues one shard of `channels` channels decomposes
// into: ceil(banks / (kBanksPerGroup * bank_groups_per_queue)). Shared by
// the ShardServer construction, the merge telemetry, and the tests that pin
// the regrouping algebra.
inline uint32_t ShardQueueCount(const DramGeometry& geometry, uint32_t channels,
                                uint32_t bank_groups_per_queue) {
  SILOZ_CHECK(bank_groups_per_queue > 0);
  const uint32_t banks = channels * geometry.banks_per_channel();
  const uint32_t banks_per_queue = kBanksPerGroup * bank_groups_per_queue;
  return (banks + banks_per_queue - 1) / banks_per_queue;
}

// Per-shard slice of a run, reported in shard-plan order.
struct ShardTelemetry {
  uint32_t socket = 0;
  uint32_t first_channel = 0;
  uint32_t channels = 0;
  uint32_t queues = 1;  // bank-group command queues (ShardQueueCount)
  uint64_t requests = 0;
  double elapsed_ns = 0.0;
};

struct ShardedEngineResult {
  // Folded in ascending shard order: elapsed is the max over shards (shards
  // run concurrently in simulated time), requests the sum.
  double elapsed_ns = 0.0;
  uint64_t requests = 0;
  std::vector<ShardTelemetry> shards;

  double bandwidth_gib_per_s(double bytes_per_request = 64.0) const {
    if (elapsed_ns <= 0.0) {
      return 0.0;
    }
    return static_cast<double>(requests) * bytes_per_request / elapsed_ns *
           (1e9 / (1024.0 * 1024.0 * 1024.0));
  }
};

// One shard's closed loop as an incremental consumer: the serial engine's
// window discipline (CompletionWindow, see engine.h) against a shard-private
// controller, fed one pre-decoded command at a time in shard-stream order.
//
// The shard splits into per-bank-group command queues (one CompletionWindow
// per block of kBanksPerGroup * bank_groups_per_queue banks): each command
// stalls only on the oldest in-flight request of *its own* queue, while the
// shard-wide issue cursor keeps issues in stream order across queues. The
// queue routing is a pure function of the command's bank index —
// SocketBankIndex is channel-major, so a shard's banks form one contiguous
// index range and the route is a single LUT read off a shard-local base.
// ServeDecoded is still called once per command in the identical stream
// order, so every invariant census (hits/misses, ACT/PRE, reads/writes)
// matches the serial engine exactly; only completion *times* change.
class ShardServer {
 public:
  // The shard covers `channels` channels starting at `first_channel`; its
  // banks split into ShardQueueCount() bank-group queues. A grouping coarse
  // enough that the whole shard is one queue keeps the single-window Feed
  // path free of the queue indirection (the inline window, not a
  // one-element vector, is what the serve loop's per-command cost budget is
  // built on).
  ShardServer(MemoryController& controller, const EngineConfig& config,
              uint32_t bank_groups_per_queue, uint32_t first_channel, uint32_t channels)
      : controller_(&controller), config_(config), window_(config.max_outstanding) {
    const DramGeometry& geometry = controller.geometry();
    const uint32_t queues = ShardQueueCount(geometry, channels, bank_groups_per_queue);
    if (queues <= 1) {
      return;
    }
    const uint32_t banks_per_channel = geometry.banks_per_channel();
    bank_base_ = first_channel * banks_per_channel;
    const uint32_t banks = channels * banks_per_channel;
    const uint32_t banks_per_queue = kBanksPerGroup * bank_groups_per_queue;
    queue_windows_.reserve(queues);
    for (uint32_t queue = 0; queue < queues; ++queue) {
      queue_windows_.emplace_back(config.max_outstanding);
    }
    queue_of_bank_.resize(banks);
    for (uint32_t bank = 0; bank < banks; ++bank) {
      queue_of_bank_[bank] = static_cast<uint16_t>(bank / banks_per_queue);
    }
    // Raw bases for the per-command route: Feed runs once per request, and
    // re-deriving data pointers through the vector headers each time costs
    // measurable ns/op on the serve loop.
    queue_base_ = queue_windows_.data();
    route_base_ = queue_of_bank_.data();
    multi_queue_ = true;
  }

  // Forced inline: Feed is the per-command body of the serve loop
  // (once per request on the Fig 4 grid), and left to its own devices the
  // linker folds the out-of-line copy with unrelated identical code, hiding
  // a call per command inside the hot loop.
  [[gnu::always_inline]] inline void Feed(const DecodedCmd& cmd) {
    // Same CompletionWindow arithmetic as RunClosedLoopOver (engine.h): both
    // track only the minimum of the same multiset, so results match bit for
    // bit. The only sub-channel twist is *which* window the command queues
    // behind.
    engine_internal::CompletionWindow& window =
        multi_queue_
            ? queue_base_[route_base_[static_cast<uint32_t>(cmd.bank_index) - bank_base_]]
            : window_;
    double completion;
    if (window.full()) {
      const size_t slot = window.MinSlot();
      issue_cursor_ = std::max(issue_cursor_, window.ValueAt(slot));
      completion = controller_->ServeDecoded(cmd, issue_cursor_);
      window.Replace(slot, completion);
    } else {
      completion = controller_->ServeDecoded(cmd, issue_cursor_);
      window.Push(completion);
    }
    last_completion_ = std::max(last_completion_, completion);
    issue_cursor_ += config_.compute_ns_per_access;
    ++requests_;
  }

  EngineResult result() const {
    EngineResult r;
    r.elapsed_ns = last_completion_;
    r.requests = requests_;
    return r;
  }

  uint32_t queue_count() const {
    return multi_queue_ ? static_cast<uint32_t>(queue_windows_.size()) : 1u;
  }

 private:
  MemoryController* controller_;
  EngineConfig config_;
  // In-flight completion times when one queue covers the whole shard: an
  // inline member, so that Feed path pays no vector indirection.
  engine_internal::CompletionWindow window_;
  // Multi-queue shape only: one window per bank-group queue.
  std::vector<engine_internal::CompletionWindow> queue_windows_;
  // Shard-local bank index -> queue. Populated only when multi_queue_.
  std::vector<uint16_t> queue_of_bank_;
  // Cached .data() of the two vectors above (stable: both are sized once in
  // the constructor and never resized).
  engine_internal::CompletionWindow* queue_base_ = nullptr;
  const uint16_t* route_base_ = nullptr;
  uint32_t bank_base_ = 0;  // first bank of the shard (SocketBankIndex space)
  bool multi_queue_ = false;
  double issue_cursor_ = 0.0;
  double last_completion_ = 0.0;
  uint64_t requests_ = 0;
};

namespace sharded_internal {

// The fixed-order merge at the end of every sharded run: walks shards in
// ascending index (socket-major, then channel block), absorbing each shard
// controller into controllers[socket], folding elapsed (max) and requests
// (sum), recording telemetry, and staging + folding the per-shard
// model-domain census into the global metrics registry. Ends with the
// conservation check (sum of per-shard requests == expected_requests); a
// violation is an integrity error, not a CHECK.
Result<ShardedEngineResult> MergeShards(const ShardPlan& plan,
                                        std::span<std::optional<MemoryController>> shard_controllers,
                                        std::span<const EngineResult> shard_results,
                                        std::span<MemoryController* const> controllers,
                                        uint64_t expected_requests,
                                        uint32_t bank_groups_per_queue);

}  // namespace sharded_internal

// The sharded serve path: `for_each` is invoked once with an emit callback
// `(const DecodedCmd&, uint32_t socket)` and must produce the stream's
// commands in trace order (TraceStreamer::ForEachDecoded is the canonical
// producer); each command feeds its shard's closed loop the moment it is
// produced, with no per-shard batch materialization in between. Serves on
// the calling thread: the experiment runner parallelizes at the trial level.
// `expected_requests` must equal the number of commands emitted (the
// conservation check fails the run with kIntegrityViolation otherwise).
template <typename ForEachCmd>
Result<ShardedEngineResult> RunShardedFused(uint64_t expected_requests, ForEachCmd&& for_each,
                                            std::span<MemoryController* const> controllers,
                                            const ShardedEngineConfig& config) {
  SILOZ_CHECK(!controllers.empty());
  SILOZ_CHECK(config.threads <= 1);
  const ShardPlan plan(controllers[0]->geometry(), static_cast<uint32_t>(controllers.size()),
                       config.channels_per_shard);
  std::vector<std::optional<MemoryController>> shard_controllers(plan.shard_count());
  std::vector<ShardServer> servers;
  servers.reserve(plan.shard_count());
  for (uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
    const uint32_t socket = plan.SocketOf(shard);
    shard_controllers[shard].emplace(controllers[socket]->geometry(), socket,
                                     controllers[socket]->timings());
    servers.emplace_back(*shard_controllers[shard], config.engine, config.bank_groups_per_queue,
                         plan.FirstChannelOf(shard), plan.ChannelsOf(shard));
  }
  for_each([&](const DecodedCmd& cmd, uint32_t socket) {
    SILOZ_DCHECK(socket < controllers.size());
    servers[plan.ShardOf(socket, cmd.channel)].Feed(cmd);
  });
  std::vector<EngineResult> shard_results(plan.shard_count());
  for (uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
    shard_results[shard] = servers[shard].result();
  }
  return sharded_internal::MergeShards(plan, shard_controllers, shard_results, controllers,
                                       expected_requests, config.bank_groups_per_queue);
}

// Serves a materialized trace: RunShardedFused over the span, decoding each
// request through its socket's controller.
Result<ShardedEngineResult> RunShardedClosedLoop(std::span<const MemRequest> requests,
                                                 std::span<MemoryController* const> controllers,
                                                 const ShardedEngineConfig& config);

}  // namespace siloz

#endif  // SILOZ_SRC_MEMCTL_SHARDED_ENGINE_H_
