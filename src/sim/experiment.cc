#include "src/sim/experiment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/memctl/engine.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz {
namespace {

// Everything one trial produces; merged into RunMeasurement in trial order.
struct TrialOutcome {
  double elapsed_ns = 0.0;
  double bandwidth_gibs = 0.0;
  double row_hit_rate = 0.0;
  std::vector<uint64_t> flip_phys;       // sorted
  std::vector<uint64_t> shard_requests;  // shard-plan order; empty when serial
};

// Workload identity + hypervisor variant tag mixed into the jitter stream so
// baseline and Siloz runs of one workload draw different (deterministic)
// noise, exactly like back-to-back runs on a real host.
uint64_t VariantTag(const RunnerConfig& config, const WorkloadSpec& spec) {
  uint64_t tag = 0xCBF29CE484222325ull;
  for (char c : spec.name) {
    tag = (tag ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
  }
  tag ^= (static_cast<uint64_t>(config.hypervisor.enabled) << 40) ^
         (static_cast<uint64_t>(config.hypervisor.rows_per_subarray) << 8) ^
         static_cast<uint64_t>(config.hypervisor.ept_protection);
  return tag;
}

// Raw serve numbers for one trial's trace, before jitter is applied.
struct ServeOutcome {
  double elapsed_ns = 0.0;
  uint64_t requests = 0;
  std::vector<uint64_t> shard_requests;  // shard-plan order; empty when serial
};

// Serves one trial's trace through the engine selected by
// config.channels_per_shard (0 = serial reference, >= 1 = sharded;
// DESIGN.md §13). `controllers` is the per-socket absorb-target set —
// trial-private in timing mode, the machine's own in fault mode. When
// `materialized` is non-null (fault mode) the trace is generated up front
// and returned through it, because ReplayDisturbance consumes it a second
// time; otherwise (timing mode) generation streams straight into the serve
// loop. TraceStreamer is the single generator, so both sources yield the
// identical request sequence.
Result<ServeOutcome> ServeTrial(const RunnerConfig& config, const WorkloadSpec& spec,
                                const AddressDecoder& decoder, const Vm& vm,
                                uint64_t trace_seed,
                                std::span<MemoryController* const> controllers,
                                std::vector<MemRequest>* materialized) {
  EngineConfig engine;
  engine.max_outstanding = spec.mlp;
  engine.compute_ns_per_access = spec.compute_ns_per_access;

  if (config.channels_per_shard >= 1) {
    ShardedEngineConfig sharded;
    sharded.engine = engine;
    sharded.channels_per_shard = config.channels_per_shard;
    sharded.bank_groups_per_queue = config.bank_groups_per_queue;
    Result<ShardedEngineResult> result = [&]() -> Result<ShardedEngineResult> {
      if (materialized != nullptr) {
        *materialized =
            GenerateTrace(spec, decoder, vm.regions(), config.vm.socket, trace_seed);
        return RunShardedClosedLoop(*materialized, controllers, sharded);
      }
      // Timing-only runs stream: the streamer emits pre-resolved commands
      // straight into the per-shard closed loops, no MemRequest
      // materialization.
      TraceStreamer stream(spec, decoder, vm.regions(), config.vm.socket, trace_seed);
      return RunShardedFused(
          stream.size(), [&stream](auto&& feed) { stream.ForEachDecoded(feed); },
          controllers, sharded);
    }();
    SILOZ_RETURN_IF_ERROR(result);
    ServeOutcome outcome;
    outcome.elapsed_ns = result->elapsed_ns;
    outcome.requests = result->requests;
    outcome.shard_requests.reserve(result->shards.size());
    for (const ShardTelemetry& shard : result->shards) {
      outcome.shard_requests.push_back(shard.requests);
    }
    return outcome;
  }

  // Serial reference engine, over the same two request sources.
  EngineResult served;
  if (materialized != nullptr) {
    *materialized =
        GenerateTrace(spec, decoder, vm.regions(), config.vm.socket, trace_seed);
    served = RunClosedLoop(*materialized, controllers, engine);
  } else {
    TraceStreamer stream(spec, decoder, vm.regions(), config.vm.socket, trace_seed);
    served = RunClosedLoopOver(
        stream.size(), [&stream]() -> const MemRequest& { return stream.Next(); },
        controllers, engine);
  }
  ServeOutcome outcome;
  outcome.elapsed_ns = served.elapsed_ns;
  outcome.requests = served.requests;
  return outcome;
}

TrialOutcome FinishTrial(const RunnerConfig& config, const ServeOutcome& served,
                         const MemoryController& vm_controller, Rng& noise_rng) {
  TrialOutcome outcome;
  const double jitter = 1.0 + config.os_noise_frac * noise_rng.NextGaussian();
  outcome.elapsed_ns = served.elapsed_ns * jitter;
  outcome.bandwidth_gibs = static_cast<double>(served.requests) * 64.0 /
                           outcome.elapsed_ns * (1e9 / (1024.0 * 1024.0 * 1024.0));
  outcome.row_hit_rate = vm_controller.stats().row_hit_rate();
  outcome.shard_requests = served.shard_requests;
  return outcome;
}

// Timing-mode trial: the booted platform (decoder, VM regions) is shared and
// immutable; all mutable timing state — the per-socket controllers the serve
// loop updates — is private to the trial, so trials stay independent with
// the boot hoisted out of the loop.
Result<TrialOutcome> RunTimingTrial(const RunnerConfig& config, const WorkloadSpec& spec,
                                    uint32_t trial, Rng noise_rng,
                                    const AddressDecoder& decoder, const Vm& vm) {
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> controllers;
  owned.reserve(config.geometry.sockets);
  controllers.reserve(config.geometry.sockets);
  for (uint32_t socket = 0; socket < config.geometry.sockets; ++socket) {
    owned.push_back(
        std::make_unique<MemoryController>(config.geometry, socket, config.timings));
    controllers.push_back(owned.back().get());
  }
  const uint64_t trace_seed = config.seed + trial * 7919;
  Result<ServeOutcome> served =
      ServeTrial(config, spec, decoder, vm, trace_seed, controllers, nullptr);
  SILOZ_RETURN_IF_ERROR(served);
  return FinishTrial(config, *served, *controllers[config.vm.socket], noise_rng);
}

// Fault-mode trial: boots a whole private Machine because the disturbance
// devices (and the flips they record) are per-trial state. The trace is
// materialized once and consumed twice: timing serve, then device replay.
Result<TrialOutcome> RunFaultTrial(const RunnerConfig& config, const WorkloadSpec& spec,
                                   uint32_t trial, Rng noise_rng) {
  MachineConfig machine_config;
  machine_config.geometry = config.geometry;
  machine_config.decoder = config.decoder;
  machine_config.platform = config.platform;
  machine_config.timings = config.timings;
  machine_config.fault_tracking = true;  // timing fidelity (DESIGN.md §4)
  machine_config.dimm_profiles = config.dimm_profiles;
  // Trials run on pool workers: the machine's per-DIMM fan-out stays
  // serial so pools never nest.
  machine_config.threads = 1;
  Machine machine(machine_config);

  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config.hypervisor);
  SILOZ_RETURN_IF_ERROR(hypervisor.Boot());
  Result<VmId> vm_id = hypervisor.CreateVm(config.vm);
  SILOZ_RETURN_IF_ERROR(vm_id);
  Result<Vm*> vm = hypervisor.GetVm(*vm_id);
  SILOZ_RETURN_IF_ERROR(vm);

  const std::vector<MemoryController*> controllers = machine.controllers();
  const uint64_t trace_seed = config.seed + trial * 7919;
  std::vector<MemRequest> trace;
  Result<ServeOutcome> served =
      ServeTrial(config, spec, machine.decoder(), **vm, trace_seed, controllers, &trace);
  SILOZ_RETURN_IF_ERROR(served);

  TrialOutcome outcome =
      FinishTrial(config, *served, *controllers[config.vm.socket], noise_rng);
  ReplayDisturbance(machine, trace);
  for (const PhysFlip& flip : machine.DrainFlips()) {
    outcome.flip_phys.push_back(flip.phys);
  }
  std::sort(outcome.flip_phys.begin(), outcome.flip_phys.end());
  return outcome;
}

// A booted timing-mode platform: machine + hypervisor + measurement VM.
// Immutable once built — trials read only the decoder and the VM's region
// placement, so a platform is shareable across trials, and (in a grid)
// across whole points whose platform configuration compares equal.
struct BootedPlatform {
  explicit BootedPlatform(MachineConfig machine_config)
      : machine(std::move(machine_config)) {}
  Machine machine;
  std::optional<SilozHypervisor> hypervisor;
  const Vm* vm = nullptr;
};

Result<std::shared_ptr<const BootedPlatform>> BootPlatform(const RunnerConfig& config) {
  MachineConfig machine_config;
  machine_config.geometry = config.geometry;
  machine_config.decoder = config.decoder;
  machine_config.platform = config.platform;
  machine_config.timings = config.timings;
  machine_config.fault_tracking = false;
  machine_config.dimm_profiles = config.dimm_profiles;
  auto platform = std::make_shared<BootedPlatform>(std::move(machine_config));
  platform->hypervisor.emplace(platform->machine.decoder(), platform->machine.phys_memory(),
                               config.hypervisor);
  SILOZ_RETURN_IF_ERROR(platform->hypervisor->Boot());
  Result<VmId> vm_id = platform->hypervisor->CreateVm(config.vm);
  SILOZ_RETURN_IF_ERROR(vm_id);
  Result<Vm*> vm = platform->hypervisor->GetVm(*vm_id);
  SILOZ_RETURN_IF_ERROR(vm);
  platform->vm = *vm;
  return std::shared_ptr<const BootedPlatform>(std::move(platform));
}

// True when two timing-mode configs boot byte-identical platforms: boot
// depends on the hypervisor configuration, the decoder, the geometry, and
// the measurement VM. Everything else in RunnerConfig (timings, trials,
// seed, noise, threads, sharding) only shapes per-trial state that each
// trial builds privately.
bool SamePlatformConfig(const RunnerConfig& a, const RunnerConfig& b) {
  return a.hypervisor == b.hypervisor && a.decoder == b.decoder &&
         a.platform == b.platform && a.geometry == b.geometry && a.vm == b.vm;
}

// Deterministic merge of one run's trial outcomes: trial order, lowest-index
// error wins. Shared by the RunWorkload trial loop and the flattened grid,
// so a grid point's measurement is byte-identical to a standalone run's
// (scheduler metrics aside).
Result<RunMeasurement> MergeTrialOutcomes(std::span<const Result<TrialOutcome>> outcomes) {
  RunMeasurement measurement;
  for (const Result<TrialOutcome>& result : outcomes) {
    SILOZ_RETURN_IF_ERROR(result);
    const TrialOutcome& outcome = *result;
    RunningStat elapsed;
    elapsed.Add(outcome.elapsed_ns);
    RunningStat bandwidth;
    bandwidth.Add(outcome.bandwidth_gibs);
    measurement.elapsed_ns.Merge(elapsed);
    measurement.bandwidth_gibs.Merge(bandwidth);
    measurement.row_hit_rate = outcome.row_hit_rate;
    measurement.flip_phys.insert(measurement.flip_phys.end(), outcome.flip_phys.begin(),
                                 outcome.flip_phys.end());
    if (!outcome.shard_requests.empty()) {
      if (measurement.shard_requests.empty()) {
        measurement.shard_requests.assign(outcome.shard_requests.size(), 0);
      }
      SILOZ_CHECK(measurement.shard_requests.size() == outcome.shard_requests.size());
      for (size_t shard = 0; shard < outcome.shard_requests.size(); ++shard) {
        measurement.shard_requests[shard] += outcome.shard_requests[shard];
      }
    }
  }
  return measurement;
}

// The per-trial noise streams of one run, forked up front in trial order so
// they depend only on (seed, variant, trial index) — never on which thread
// runs the trial or in what order trials finish.
std::vector<Rng> ForkNoiseStreams(const RunnerConfig& config, const WorkloadSpec& spec) {
  Rng noise_base(config.seed ^ VariantTag(config, spec));
  std::vector<Rng> noise_rngs;
  noise_rngs.reserve(config.trials);
  for (uint32_t trial = 0; trial < config.trials; ++trial) {
    noise_rngs.push_back(noise_base.Fork(trial));
  }
  return noise_rngs;
}

}  // namespace

Status ApplyPlatform(RunnerConfig& config, std::string_view platform,
                     uint32_t rows_per_subarray) {
  const PlatformInfo* info = FindPlatform(platform);
  if (info == nullptr) {
    std::string names;
    for (const std::string& name : PlatformNames()) {
      names += names.empty() ? name : ", " + name;
    }
    return MakeError(ErrorCode::kInvalidArgument, "unknown platform '" +
                                                      std::string(platform) +
                                                      "' (have: " + names + ")");
  }
  uint32_t subarray = rows_per_subarray == 0 ? info->geometry.rows_per_subarray
                                             : rows_per_subarray;
  if (std::find(info->subarray_sizes.begin(), info->subarray_sizes.end(), subarray) ==
      info->subarray_sizes.end()) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "platform '" + std::string(platform) + "' has no " +
                         std::to_string(subarray) + "-row subarray parts");
  }
  config.platform = std::string(platform);
  config.geometry = info->geometry;
  config.geometry.rows_per_subarray = subarray;
  config.hypervisor.rows_per_subarray = subarray;
  config.hypervisor.uniform_internal_addressing = info->uniform_internal_addressing;
  for (DimmProfile& profile : config.dimm_profiles) {
    profile.remap = info->remap;
    profile.trr = info->trr;
  }
  return Status::Ok();
}

void ReplayDisturbance(Machine& machine, std::span<const MemRequest> trace) {
  const DramGeometry& geometry = machine.config().geometry;
  // Device clocks are monotonic and already advanced by boot-time writes.
  const uint64_t clock0 = machine.clock_ns();
  const uint64_t act_cost = machine.config().act_cost_ns;
  const uint32_t banks_per_socket = geometry.banks_per_socket();

  // Open-row tracker, flat over every bank in the machine (-1 = closed).
  std::vector<int64_t> open_rows(geometry.total_banks(), -1);
  for (uint64_t index = 0; index < trace.size(); ++index) {
    const MediaAddress& media = trace[index].address;
    int64_t& open_row =
        open_rows[media.socket * banks_per_socket + SocketBankIndex(geometry, media)];
    if (open_row == static_cast<int64_t>(media.row)) {
      continue;  // row hit: buffer reuse, no device ACT
    }
    open_row = media.row;
    machine.device(media.socket, media.channel, media.dimm)
        .Activate(media.rank, media.bank, media.row, clock0 + index * act_cost);
  }
}

namespace {

// Trial loop over an optionally pre-booted platform. `platform` non-null
// (timing mode only) skips the boot; the grid passes one platform to every
// point with an equal platform configuration.
Result<RunMeasurement> RunWorkloadOn(const RunnerConfig& config, const WorkloadSpec& spec,
                                     std::shared_ptr<const BootedPlatform> platform) {
  if (!config.trace_out.empty()) {
    obs::Tracer::Global().Enable();
  }
  const std::vector<Rng> noise_rngs = ForkNoiseStreams(config, spec);

  // Timing mode boots the platform once (unless the caller shares one);
  // trials read only its immutable state (decoder LUTs, VM region placement)
  // and own their timing state. Fault mode boots inside each trial instead
  // (RunFaultTrial).
  if (!config.fault_tracking && platform == nullptr) {
    Result<std::shared_ptr<const BootedPlatform>> booted = BootPlatform(config);
    SILOZ_RETURN_IF_ERROR(booted);
    platform = std::move(*booted);
  }

  std::vector<Result<TrialOutcome>> outcomes(config.trials,
                                             Result<TrialOutcome>(TrialOutcome{}));
  PhaseTimer timer("trials");
  PoolMetrics pool_metrics;
  {
    // Scoped so the pool's destructor flushes its scheduler counters before
    // any metrics file below is written.
    ThreadPool pool(config.threads);
    obs::TraceSpan span("trials:" + spec.name);
    ProgressMeter progress("trials:" + spec.name, config.trials);
    pool.ParallelFor(0, config.trials, [&](uint64_t trial) {
      if (config.fault_tracking) {
        outcomes[trial] =
            RunFaultTrial(config, spec, static_cast<uint32_t>(trial), noise_rngs[trial]);
      } else {
        outcomes[trial] =
            RunTimingTrial(config, spec, static_cast<uint32_t>(trial), noise_rngs[trial],
                           platform->machine.decoder(), *platform->vm);
      }
      progress.Tick();
    });
    pool_metrics = pool.metrics();
  }

  Result<RunMeasurement> merged = MergeTrialOutcomes(outcomes);
  SILOZ_RETURN_IF_ERROR(merged);
  RunMeasurement measurement = std::move(*merged);
  measurement.pool = timer.Finish(pool_metrics);
  if (!config.metrics_out.empty()) {
    obs::WriteMetricsJson(config.metrics_out);
  }
  if (!config.trace_out.empty()) {
    obs::WriteTraceJson(config.trace_out);
  }
  return measurement;
}

}  // namespace

Result<RunMeasurement> RunWorkload(const RunnerConfig& config, const WorkloadSpec& spec) {
  return RunWorkloadOn(config, spec, nullptr);
}

Result<std::vector<RunMeasurement>> RunWorkloadGrid(const std::vector<GridPoint>& points,
                                                    uint32_t threads,
                                                    PoolPhaseMetrics* metrics) {
  std::vector<Result<RunMeasurement>> runs(points.size(),
                                           Result<RunMeasurement>(RunMeasurement{}));
  PhaseTimer timer("grid");

  // Boot each distinct timing-mode platform configuration exactly once, on
  // the coordinating thread in point order — a figure grid reuses a handful
  // of platforms (~2 MB each) across dozens of points, and serializing the
  // boots here keeps boot-time model metrics thread-count-invariant. A point
  // whose boot fails records its error and is skipped below; a later point
  // with the same configuration re-attempts the (deterministic) boot.
  std::vector<std::shared_ptr<const BootedPlatform>> point_platform(points.size());
  std::vector<size_t> booted_points;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].config.fault_tracking) {
      continue;  // fault mode boots per trial; nothing shareable
    }
    bool found = false;
    for (size_t prior : booted_points) {
      if (SamePlatformConfig(points[prior].config, points[i].config)) {
        point_platform[i] = point_platform[prior];
        found = true;
        break;
      }
    }
    if (found) {
      continue;
    }
    Result<std::shared_ptr<const BootedPlatform>> booted = BootPlatform(points[i].config);
    if (booted.ok()) {
      point_platform[i] = std::move(*booted);
      booted_points.push_back(i);
    } else {
      runs[i] = booted.error();
    }
  }

  // Flattened schedule: every (point, trial) pair is one pool task, so grid
  // cells and their trials share a single work-stealing schedule instead of
  // nesting a serial trial pool inside each grid task (DESIGN.md §15) — a
  // figure grid's parallelism is points * trials, not points. Noise streams
  // fork per point in trial order up front, exactly the forks RunWorkload
  // draws, so the flattening is invisible in the results. Observability
  // files are never written per point (that would race and interleave); the
  // grid's caller writes once after all points complete.
  struct FlatTask {
    uint32_t point = 0;
    uint32_t trial = 0;
  };
  std::vector<FlatTask> tasks;
  std::vector<std::vector<Rng>> point_noise(points.size());
  std::vector<std::vector<Result<TrialOutcome>>> point_outcomes(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    if (!runs[i].ok()) {
      continue;  // boot failed; the merge below reports it in point order
    }
    const RunnerConfig& config = points[i].config;
    point_noise[i] = ForkNoiseStreams(config, points[i].workload);
    point_outcomes[i].assign(config.trials, Result<TrialOutcome>(TrialOutcome{}));
    for (uint32_t trial = 0; trial < config.trials; ++trial) {
      tasks.push_back(FlatTask{static_cast<uint32_t>(i), trial});
    }
  }

  PoolMetrics pool_metrics;
  {
    ThreadPool pool(threads);
    obs::TraceSpan span("grid");
    ProgressMeter progress("grid", tasks.size());
    pool.ParallelFor(0, tasks.size(), [&](uint64_t t) {
      const FlatTask task = tasks[t];
      const GridPoint& point = points[task.point];
      Result<TrialOutcome>& outcome = point_outcomes[task.point][task.trial];
      if (point.config.fault_tracking) {
        outcome = RunFaultTrial(point.config, point.workload, task.trial,
                                point_noise[task.point][task.trial]);
      } else {
        outcome = RunTimingTrial(point.config, point.workload, task.trial,
                                 point_noise[task.point][task.trial],
                                 point_platform[task.point]->machine.decoder(),
                                 *point_platform[task.point]->vm);
      }
      progress.Tick();
    });
    pool_metrics = pool.metrics();
  }
  if (metrics != nullptr) {
    *metrics = timer.Finish(pool_metrics);
  }

  // Deterministic merge: point order, trial order within each point; the
  // lowest-indexed failure wins, as with the nested loops.
  std::vector<RunMeasurement> measurements;
  measurements.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    SILOZ_RETURN_IF_ERROR(runs[i]);
    Result<RunMeasurement> merged = MergeTrialOutcomes(point_outcomes[i]);
    SILOZ_RETURN_IF_ERROR(merged);
    measurements.push_back(std::move(*merged));
  }
  return measurements;
}

}  // namespace siloz
