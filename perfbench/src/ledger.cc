// Per-layer probes for the traced run. Each probe times calls into one
// layer's public functions on the workload's inputs, inside a span the
// harness owns. Every traced run reports the whole ledger: the figure-layer
// probes run on the workload's own grid for fig4-exec and fig5-tput and on
// the Fig 4 grid otherwise; the Table 3 and fleet probes always run on their
// own inputs at the run's seed.
//
// The library memoizes trace op streams process-wide by seed, so each
// figure probe runs on a seed of its own (PassSeed(seed, 1..3)): no probe is
// served from the traced pass's or another probe's streams, and each sees
// the grid's own reuse between its baseline and Siloz points.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "perfbench/src/harness.h"
#include "perfbench/src/inputs.h"
#include "src/addr/decoder.h"
#include "src/audit/auditor.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/hostmem/buddy.h"
#include "src/hostmem/cgroup.h"
#include "src/memctl/sharded_engine.h"
#include "src/siloz/conservation.h"
#include "src/workload/workloads.h"

namespace perfbench {

using namespace siloz;

namespace {

// Emits metrics, spans and failures for one traced run.
class Ledger {
 public:
  Ledger(Tracer& tracer, uint32_t parent, std::vector<std::string>& failures)
      : tracer_(tracer), parent_(parent), failures_(failures) {}

  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string what) { failures_.push_back(std::move(what)); }
  uint32_t Open(std::string name, uint32_t parent = 0) {
    return tracer_.Open(std::move(name), parent == 0 ? parent_ : parent);
  }
  int64_t Close(uint32_t span) { return tracer_.Close(span); }
  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  Tracer& tracer_;
  uint32_t parent_;
  std::vector<std::string>& failures_;
  std::vector<Metric> metrics_;
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// ---------------------------------------------------------------- figures

// The booted timing platform a grid point's trials share.
struct TimingPlatform {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<SilozHypervisor> hypervisor;
  const Vm* vm = nullptr;
};

Result<TimingPlatform> BootTimingPlatform(const RunnerConfig& config) {
  MachineConfig machine_config;
  machine_config.geometry = config.geometry;
  machine_config.decoder = config.decoder;
  machine_config.timings = config.timings;
  TimingPlatform platform;
  platform.machine = std::make_unique<Machine>(machine_config);
  platform.hypervisor = std::make_unique<SilozHypervisor>(
      platform.machine->decoder(), platform.machine->phys_memory(), config.hypervisor);
  SILOZ_RETURN_IF_ERROR(platform.hypervisor->Boot());
  Result<VmId> id = platform.hypervisor->CreateVm(config.vm);
  SILOZ_RETURN_IF_ERROR(id);
  Result<Vm*> vm = platform.hypervisor->GetVm(*id);
  SILOZ_RETURN_IF_ERROR(vm);
  platform.vm = *vm;
  return platform;
}

void FigureProbes(bool throughput, const Inputs& inputs, uint32_t nproc, Ledger& ledger) {
  auto grid_at = [&](uint64_t k) {
    return FigureGrid(throughput, Inputs{PassSeed(inputs.seed, k), inputs.size});
  };
  const std::vector<GridPoint> grid = grid_at(1);
  const uint32_t root = ledger.Open(throughput ? "probe.fig5" : "probe.fig4");

  int64_t gen_ns = 0;
  int64_t decode_ns = 0;
  int64_t serve_ns = 0;
  uint64_t requests = 0;
  uint64_t decodes = 0;
  uint64_t row_hits = 0;
  std::unique_ptr<TimingPlatform> platform;
  bool platform_siloz = false;
  for (const GridPoint& point : grid) {
    const RunnerConfig& config = point.config;
    if (platform == nullptr || platform_siloz != config.hypervisor.enabled) {
      Result<TimingPlatform> booted = BootTimingPlatform(config);
      if (!booted.ok()) {
        ledger.Fail("timing platform boot: " + booted.error().ToString());
        return;
      }
      platform = std::make_unique<TimingPlatform>(std::move(*booted));
      platform_siloz = config.hypervisor.enabled;
    }
    const AddressDecoder& decoder = platform->machine->decoder();

    uint32_t span = ledger.Open("workload.GenerateTrace", root);
    const std::vector<MemRequest> trace = GenerateTrace(
        point.workload, decoder, platform->vm->regions(), config.vm.socket, config.seed);
    gen_ns += ledger.Close(span);

    span = ledger.Open("addr.PhysToMedia+MediaToPhys", root);
    bool round_trip_ok = true;
    for (const MemRequest& request : trace) {
      const Result<uint64_t> phys = decoder.MediaToPhys(request.address);
      const Result<MediaAddress> media =
          phys.ok() ? decoder.PhysToMedia(*phys) : Result<MediaAddress>(phys.error());
      round_trip_ok &= media.ok() && *media == request.address;
    }
    decode_ns += ledger.Close(span);
    decodes += trace.size();
    if (!round_trip_ok) {
      ledger.Fail("address round trip mismatch in " + point.workload.name);
    }

    std::vector<std::unique_ptr<MemoryController>> owned;
    std::vector<MemoryController*> controllers;
    for (uint32_t socket = 0; socket < config.geometry.sockets; ++socket) {
      owned.push_back(std::make_unique<MemoryController>(config.geometry, socket, config.timings));
      controllers.push_back(owned.back().get());
    }
    ShardedEngineConfig sharded;
    sharded.engine.max_outstanding = point.workload.mlp;
    sharded.engine.compute_ns_per_access = point.workload.compute_ns_per_access;
    sharded.channels_per_shard = config.channels_per_shard;
    sharded.bank_groups_per_queue = config.bank_groups_per_queue;
    sharded.threads = 1;
    span = ledger.Open("memctl.RunShardedClosedLoop", root);
    const Result<ShardedEngineResult> served =
        RunShardedClosedLoop(trace, controllers, sharded);
    serve_ns += ledger.Close(span);
    if (!served.ok() || served->requests != trace.size()) {
      ledger.Fail("serve failed in " + point.workload.name);
      return;
    }
    requests += served->requests;
    for (const MemoryController* controller : controllers) {
      row_hits += controller->stats().row_hits;
    }
  }
  ledger.Add("workload.gen_ns_per_req", static_cast<double>(gen_ns) / requests, "ns");
  ledger.Add("addr.decode_ns", static_cast<double>(decode_ns) / decodes, "ns");
  ledger.Add("memctl.serve_ns_per_req", static_cast<double>(serve_ns) / requests, "ns");
  ledger.Add("memctl.requests", static_cast<double>(requests), "count");
  ledger.Add("memctl.row_hit_rate", static_cast<double>(row_hits) / requests, "frac");

  std::vector<double> trial_ms;
  for (const GridPoint& point : grid_at(2)) {
    RunnerConfig config = point.config;
    config.trials = 1;
    config.threads = 1;
    const uint32_t span = ledger.Open("sim.RunWorkload", root);
    const Result<RunMeasurement> measured = RunWorkload(config, point.workload);
    trial_ms.push_back(Ms(ledger.Close(span)));
    if (!measured.ok()) {
      ledger.Fail("RunWorkload failed: " + measured.error().ToString());
    }
  }
  const double trial_samples = static_cast<double>(trial_ms.size());
  ledger.Add("sim.trial_ms", Percentile(trial_ms, 0.5), "ms");
  ledger.Add("sim.trial_ms.samples", trial_samples, "count");

  PoolPhaseMetrics pool;
  const uint32_t span = ledger.Open("sim.RunWorkloadGrid.nproc", root);
  const Result<std::vector<RunMeasurement>> measured =
      RunWorkloadGrid(grid_at(3), nproc, &pool);
  ledger.Close(span);
  if (!measured.ok()) {
    ledger.Fail("RunWorkloadGrid failed: " + measured.error().ToString());
  }
  ledger.Add("base.pool.busy_cores", pool.wall_ms > 0.0 ? pool.cpu_ms / pool.wall_ms : 0.0,
             "cores");
  ledger.Add("base.pool.tasks", static_cast<double>(pool.pool.tasks), "count");
  ledger.Add("base.pool.steals", static_cast<double>(pool.pool.steals), "count");
  ledger.Close(root);
}

// ---------------------------------------------------------------- table 3

void TableThreeProbes(const Inputs& inputs, Ledger& ledger) {
  const uint32_t root = ledger.Open("probe.table3");
  MachineConfig machine_config;
  machine_config.fault_tracking = true;
  machine_config.dimm_profiles = TableThreeDimms(inputs);
  Machine machine(machine_config);
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), SilozConfig{});
  uint32_t span = ledger.Open("siloz.Boot.table2", root);
  const Status boot = hypervisor.Boot();
  ledger.Add("siloz.boot_ms", Ms(ledger.Close(span)), "ms");
  Result<VmId> attacker =
      boot.ok() ? hypervisor.CreateVm({.name = "blacksmith", .memory_bytes = 6_GiB})
                : Result<VmId>(boot.error());
  if (!attacker.ok()) {
    ledger.Fail("table3 platform: " + attacker.error().ToString());
    return;
  }
  std::vector<PhysRange> pinned;
  for (uint32_t group : (*hypervisor.GetVm(*attacker))->guest_groups()) {
    for (const PhysRange& range : hypervisor.group_map().RangesOf(group)) {
      pinned.push_back(range);
    }
  }

  // Aggressor-style ACTs and ECC reads at row addresses drawn from the
  // attacker's groups.
  Rng rng(SeedShift(inputs, 0xAC7));
  std::vector<uint64_t> aggressors;
  while (aggressors.size() < 32) {
    const PhysRange& range = pinned[rng.NextBelow(pinned.size())];
    aggressors.push_back(range.begin + (rng.NextBelow(range.end - range.begin) & ~uint64_t{63}));
  }
  const uint32_t rounds = inputs.size == Size::kSmall ? 200 : 8000;
  span = ledger.Open("dram.ActivatePhys", root);
  for (uint32_t round = 0; round < rounds; ++round) {
    for (uint64_t phys : aggressors) {
      machine.ActivatePhys(phys);
    }
  }
  ledger.Add("dram.act_ns",
             static_cast<double>(ledger.Close(span)) / (rounds * aggressors.size()), "ns");

  std::vector<MediaAddress> media;
  for (uint64_t phys : aggressors) {
    media.push_back(*machine.decoder().PhysToMedia(phys));
  }
  uint8_t line[64];
  const uint32_t read_rounds = rounds / 4;
  span = ledger.Open("dram.DramDevice::Read", root);
  for (uint32_t round = 0; round < read_rounds; ++round) {
    for (const MediaAddress& m : media) {
      machine.device(m.socket, m.channel, m.dimm)
          .Read(m.rank, m.bank, m.row, m.column, line, machine.clock_ns());
    }
  }
  ledger.Add("dram.read_ecc_ns",
             static_cast<double>(ledger.Close(span)) / (read_rounds * media.size()), "ns");

  machine.AdvanceClock(24ull * 3600 * 1'000'000'000);
  span = ledger.Open("dram.Machine::PatrolScrubAll", root);
  machine.PatrolScrubAll();
  ledger.Add("dram.scrub_ms", Ms(ledger.Close(span)), "ms");
  (void)machine.DrainFlips();

  std::vector<double> pattern_ms;
  for (uint64_t k = 0; k < 6; ++k) {
    BlacksmithConfig one = CampaignConfig(inputs);
    one.patterns = 1;
    one.seed += k;
    span = ledger.Open("attack.BlacksmithFuzzer::Run", root);
    (void)BlacksmithFuzzer(one).Run(machine, pinned);
    pattern_ms.push_back(Ms(ledger.Close(span)));
  }
  ledger.Add("attack.pattern_ms", Percentile(pattern_ms, 0.5), "ms");

  audit::Options options;
  options.threads = 1;
  span = ledger.Open("audit.Auditor::Run", root);
  const audit::Report audit = audit::Auditor(hypervisor, RemapConfig{}, options).Run();
  ledger.Add("audit.scan_ms", Ms(ledger.Close(span)), "ms");
  if (!audit.ok()) {
    ledger.Fail(std::to_string(audit.findings.size()) + " auditor findings on the Table-2 plan");
  }

  span = ledger.Open("attack.campaign", root);
  const Result<CampaignOutcome> campaign = RunCampaign(inputs, 1);
  ledger.Close(span);
  if (!campaign.ok()) {
    ledger.Fail("campaign: " + campaign.error().ToString());
    return;
  }
  const double acts = static_cast<double>(campaign->report.activations);
  ledger.Add("attack.acts", acts, "count");
  ledger.Add("attack.flips_per_mact",
             static_cast<double>(campaign->report.flips.size()) / (acts / 1e6), "1/Mact");
  ledger.Close(root);
}

// ---------------------------------------------------------------- fleet

struct FleetPlatform {
  std::unique_ptr<SkylakeDecoder> decoder;
  std::unique_ptr<FlatPhysMemory> memory;
  std::unique_ptr<SilozHypervisor> hypervisor;
};

FleetPlatform MakeFleetPlatform(const FleetConfig& config) {
  FleetPlatform platform;
  platform.decoder = std::make_unique<SkylakeDecoder>(config.geometry);
  platform.memory = std::make_unique<FlatPhysMemory>();
  SilozConfig hv_config = config.hypervisor;
  hv_config.rows_per_subarray = config.geometry.rows_per_subarray;
  platform.hypervisor =
      std::make_unique<SilozHypervisor>(*platform.decoder, *platform.memory, hv_config);
  return platform;
}

// The fleet's arrival size mix: Zipfian over the size classes, 1 GiB pages
// for VMs of 4 GiB and more, 2 MiB pages otherwise (as src/sim/fleet.cc).
struct SizeMix {
  explicit SizeMix(const FleetConfig& config) : classes(config.size_classes_bytes) {
    for (size_t r = 0; r < classes.size(); ++r) {
      mass += 1.0 / std::pow(static_cast<double>(r + 1), config.size_theta);
      cdf.push_back(mass);
    }
  }
  uint64_t Draw(Rng& rng) const {
    const double draw = rng.NextDouble() * mass;
    size_t r = 0;
    while (r + 1 < cdf.size() && draw >= cdf[r]) {
      ++r;
    }
    return classes[r];
  }
  std::vector<uint64_t> classes;
  std::vector<double> cdf;
  double mass = 0.0;
};

// A fleet departure: DestroyVm, then ReleaseVmNodes to return the VM's
// nodes (src/sim/fleet.cc times the pair as one teardown).
Status Teardown(SilozHypervisor& hv, VmId id) {
  const Status destroyed = hv.DestroyVm(id);
  return destroyed.ok() ? hv.ReleaseVmNodes(id) : destroyed;
}

VmConfig FleetVm(std::string name, uint64_t bytes, uint32_t socket) {
  VmConfig vm;
  vm.name = std::move(name);
  vm.memory_bytes = bytes;
  vm.socket = socket;
  vm.backing = bytes >= (4ull << 30) ? PageSize::k1G : PageSize::k2M;
  return vm;
}

// Samples of one replay.
struct ReplayTimes {
  std::vector<double> create_us;
  std::vector<double> destroy_us;
  uint64_t attempts = 0;
  uint64_t no_memory = 0;
  std::string error;  // first unexpected error
};

// Fills `sockets` of the fleet to `population` VMs, then churns `churn`
// destroy+create pairs at that population. Live VMs are left in `live`.
void ChurnReplay(SilozHypervisor& hv, const SizeMix& mix, const std::vector<uint32_t>& sockets,
                 uint64_t population, uint64_t churn, Rng& rng, const std::string& prefix,
                 std::vector<VmId>& live, ReplayTimes& times) {
  uint64_t next_name = 0;
  auto create = [&]() {
    const uint32_t socket = sockets[rng.NextBelow(sockets.size())];
    const VmConfig vm = FleetVm(prefix + std::to_string(next_name++), mix.Draw(rng), socket);
    const int64_t start = WallNs();
    const Result<VmId> id = hv.CreateVm(vm);
    times.create_us.push_back(Us(WallNs() - start));
    ++times.attempts;
    if (id.ok()) {
      live.push_back(*id);
    } else if (id.error().code == ErrorCode::kNoMemory) {
      ++times.no_memory;
    } else if (times.error.empty()) {
      times.error = id.error().ToString();
    }
  };
  auto destroy = [&]() {
    const size_t pick = rng.NextBelow(live.size());
    std::swap(live[pick], live.back());
    const int64_t start = WallNs();
    const Status status = Teardown(hv, live.back());
    times.destroy_us.push_back(Us(WallNs() - start));
    live.pop_back();
    if (!status.ok() && times.error.empty()) {
      times.error = status.error().ToString();
    }
  };
  // Fill: stop after as many failed attempts in a row as the target, so a
  // full fleet cannot loop forever.
  uint64_t misses = 0;
  while (live.size() < population && misses < population) {
    const size_t before = live.size();
    create();
    misses = live.size() > before ? 0 : misses + 1;
  }
  for (uint64_t step = 0; step < churn && !live.empty(); ++step) {
    destroy();
    create();
  }
}

void FleetProbes(const Inputs& inputs, uint32_t nproc, Ledger& ledger) {
  const uint32_t root = ledger.Open("probe.fleet");
  const FleetConfig config = FleetShape(inputs, 1);
  const SizeMix mix(config);
  const bool small = inputs.size == Size::kSmall;
  const uint64_t population = small ? 100 : 2500;  // fleet-churn's peak concurrency
  const uint64_t churn = small ? 100 : 1500;
  const uint64_t migrations = small ? 20 : 200;
  std::vector<uint32_t> all_sockets;
  for (uint32_t s = 0; s < config.geometry.sockets; ++s) {
    all_sockets.push_back(s);
  }

  // One thread.
  FleetPlatform platform = MakeFleetPlatform(config);
  SilozHypervisor& hv = *platform.hypervisor;
  uint32_t span = ledger.Open("siloz.Boot.fleet", root);
  const Status boot = hv.Boot();
  ledger.Add("siloz.boot_ms.fleet", Ms(ledger.Close(span)), "ms");
  if (!boot.ok()) {
    ledger.Fail("fleet boot: " + boot.error().ToString());
    return;
  }
  const ConservationSnapshot booted = CaptureConservation(hv);
  Rng rng(SeedShift(inputs, 0xF1EE7));
  std::vector<VmId> live;
  ReplayTimes times;
  span = ledger.Open("siloz.churn_replay", root);
  ChurnReplay(hv, mix, all_sockets, population, churn, rng, "v", live, times);
  ledger.Close(span);

  std::vector<double> conservation_ms;
  for (int k = 0; k < 3; ++k) {
    span = ledger.Open("siloz.CaptureConservation", root);
    (void)CaptureConservation(hv);
    conservation_ms.push_back(Ms(ledger.Close(span)));
  }
  ledger.Add("siloz.conservation_ms", Percentile(conservation_ms, 0.5), "ms");

  // Migrate at half population, so targets have room.
  while (live.size() > population / 2) {
    const int64_t start = WallNs();
    const Status status = Teardown(hv, live.back());
    times.destroy_us.push_back(Us(WallNs() - start));
    live.pop_back();
    if (!status.ok() && times.error.empty()) {
      times.error = status.error().ToString();
    }
  }
  std::vector<double> migrate_ms;
  span = ledger.Open("siloz.MigrateVm", root);
  for (uint64_t k = 0; k < migrations && !live.empty(); ++k) {
    const VmId id = live[rng.NextBelow(live.size())];
    const uint32_t from = (*hv.GetVm(id))->config().socket;
    const auto target = static_cast<uint32_t>(
        (from + 1 + rng.NextBelow(config.geometry.sockets - 1)) % config.geometry.sockets);
    const int64_t start = WallNs();
    const Status moved = hv.MigrateVm(id, target);
    if (moved.ok()) {
      migrate_ms.push_back(Ms(WallNs() - start));
    } else if (moved.error().code != ErrorCode::kNoMemory && times.error.empty()) {
      times.error = moved.error().ToString();
    }
  }
  ledger.Close(span);
  for (VmId id : live) {
    const int64_t start = WallNs();
    const Status status = Teardown(hv, id);
    times.destroy_us.push_back(Us(WallNs() - start));
    if (!status.ok() && times.error.empty()) {
      times.error = status.error().ToString();
    }
  }
  const std::string leak = DiffConservation(booted, CaptureConservation(hv));
  if (!leak.empty()) {
    ledger.Fail("churn replay did not drain clean: " + leak);
  }
  if (!times.error.empty()) {
    ledger.Fail("churn replay: " + times.error);
  }
  const double creates = static_cast<double>(times.create_us.size());
  const double destroys = static_cast<double>(times.destroy_us.size());
  const double migrated = static_cast<double>(migrate_ms.size());
  ledger.Add("siloz.create_us.p50", Percentile(times.create_us, 0.50), "us");
  ledger.Add("siloz.create_us.p99", Percentile(times.create_us, 0.99), "us");
  ledger.Add("siloz.create_us.samples", creates, "count");
  ledger.Add("siloz.destroy_us.p50", Percentile(times.destroy_us, 0.50), "us");
  ledger.Add("siloz.destroy_us.p99", Percentile(times.destroy_us, 0.99), "us");
  ledger.Add("siloz.destroy_us.samples", destroys, "count");
  ledger.Add("siloz.migrate_ms.p50", Percentile(migrate_ms, 0.50), "ms");
  ledger.Add("siloz.migrate_ms.p90", Percentile(migrate_ms, 0.90), "ms");
  ledger.Add("siloz.migrate_ms.samples", migrated, "count");
  ledger.Add("siloz.create_fail_frac",
             static_cast<double>(times.no_memory) / static_cast<double>(times.attempts), "frac");

  // The same fill and churn from `nproc` threads over disjoint sockets.
  FleetPlatform shared = MakeFleetPlatform(config);
  if (!shared.hypervisor->Boot().ok()) {
    ledger.Fail("fleet boot (nproc)");
    return;
  }
  const uint32_t workers = std::min<uint32_t>(nproc, config.geometry.sockets);
  std::vector<ReplayTimes> per_thread(workers);
  std::vector<std::vector<VmId>> per_thread_live(workers);
  span = ledger.Open("siloz.churn_replay.nproc", root);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint32_t> mine;
      for (uint32_t s = t; s < config.geometry.sockets; s += workers) {
        mine.push_back(s);
      }
      Rng thread_rng(SeedShift(inputs, 0xF1EE7) + t + 1);
      const uint64_t share = population * mine.size() / config.geometry.sockets;
      ChurnReplay(*shared.hypervisor, mix, mine, share,
                  churn * mine.size() / config.geometry.sockets, thread_rng,
                  "t" + std::to_string(t) + "-", per_thread_live[t], per_thread[t]);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ledger.Close(span);
  std::vector<double> create_nproc;
  for (uint32_t t = 0; t < workers; ++t) {
    create_nproc.insert(create_nproc.end(), per_thread[t].create_us.begin(),
                        per_thread[t].create_us.end());
    if (!per_thread[t].error.empty()) {
      ledger.Fail("churn replay (nproc): " + per_thread[t].error);
    }
    for (VmId id : per_thread_live[t]) {
      (void)Teardown(*shared.hypervisor, id);
    }
  }
  const double nproc_samples = static_cast<double>(create_nproc.size());
  ledger.Add("siloz.create_us.p99_nproc", Percentile(create_nproc, 0.99), "us");
  ledger.Add("siloz.create_us.nproc_samples", nproc_samples, "count");

  // Buddy Allocate+Free pairs on the fleet's order mix, half full.
  BuddyAllocator buddy({PhysRange{64ull << 30, 128ull << 30}});
  std::vector<std::pair<uint64_t, uint32_t>> held;
  auto order_of = [&](uint64_t bytes) { return bytes >= (4ull << 30) ? kOrder1G : kOrder2M; };
  while (buddy.free_bytes() > buddy.total_bytes() / 2) {
    const uint32_t order = order_of(mix.Draw(rng));
    const Result<uint64_t> block = buddy.Allocate(order);
    if (!block.ok()) {
      break;
    }
    held.emplace_back(*block, order);
  }
  const uint64_t pairs = small ? 2000 : 200'000;
  span = ledger.Open("hostmem.BuddyAllocator", root);
  for (uint64_t k = 0; k < pairs; ++k) {
    const uint32_t order = order_of(mix.Draw(rng));
    const Result<uint64_t> block = buddy.Allocate(order);
    if (!block.ok() || !buddy.Free(*block, order).ok()) {
      ledger.Fail("buddy Allocate+Free failed at order " + std::to_string(order));
      break;
    }
  }
  ledger.Add("hostmem.buddy_ns", static_cast<double>(ledger.Close(span)) / pairs, "ns");

  // Cgroup Create+Destroy with the registry at peak population.
  CgroupRegistry cgroups;
  for (uint64_t g = 0; g < population; ++g) {
    (void)cgroups.Create("vm" + std::to_string(g), {static_cast<uint32_t>(g)}, false);
  }
  const uint64_t cgroup_pairs = small ? 200 : 2000;
  span = ledger.Open("hostmem.CgroupRegistry", root);
  for (uint64_t k = 0; k < cgroup_pairs; ++k) {
    const std::string name = "probe" + std::to_string(k);
    const Result<ControlGroup*> group =
        cgroups.Create(name, {static_cast<uint32_t>(population + k)}, false);
    if (!group.ok() || !cgroups.Destroy(name).ok()) {
      ledger.Fail("cgroup Create+Destroy failed");
      break;
    }
  }
  ledger.Add("hostmem.cgroup_create_us", Us(ledger.Close(span)) / cgroup_pairs, "us");
  ledger.Close(root);
}

}  // namespace

std::vector<Metric> RunLedger(std::string_view workload, const Inputs& inputs, uint32_t nproc,
                              Tracer& tracer, uint32_t parent,
                              std::vector<std::string>& failures) {
  Ledger ledger(tracer, parent, failures);
  FigureProbes(workload == "fig5-tput", inputs, nproc, ledger);
  TableThreeProbes(inputs, ledger);
  FleetProbes(inputs, nproc, ledger);
  return ledger.Take();
}

}  // namespace perfbench
