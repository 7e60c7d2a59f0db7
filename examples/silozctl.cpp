// silozctl: command-line front end over the simulated platform — inspect
// topology, run attack campaigns, compare kernels, and audit isolation.
//
// Usage: silozctl <command> [flags]. `silozctl <command> --help` prints the
// command's flags, generated from their declarations (src/base/flags.h).
// Every command also takes --metrics-out FILE and --trace-out FILE
// (observability exports; written after the command completes, never mixed
// into stdout). --platform selects a registered platform (skylake,
// cascadelake, zen, ddr5): decoder family, geometry, and DDR-generation
// semantics together; it replaces the legacy --snc/--ddr5 geometry toggles
// where both are given. Exit codes: 0 OK, 1 runtime or boot failure, 2 usage
// error or a failed audit.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/addr/platform.h"
#include "src/attack/blacksmith.h"
#include "src/audit/auditor.h"
#include "src/base/flags.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/sim/experiment.h"
#include "src/sim/fleet.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"
#include "src/workload/workloads.h"

using namespace siloz;

namespace {

// One command's flags plus the exports every command takes.
struct CommandLine {
  FlagSet flags;
  ObsFlags obs;
  int argc;
  char** argv;

  // Call after declaring the command's own flags.
  void Parse() {
    obs.Declare(flags);
    flags.Parse(argc, argv);
    obs.Start();
  }
};

int CmdTopology(CommandLine& command) {
  std::string platform;
  bool snc = false;
  bool ddr5 = false;
  std::optional<uint32_t> subarray_rows;
  DeclarePlatform(command.flags, &platform);
  command.flags.Bool("--snc", &snc, "legacy toggle: SNC-2 decoder")
      .Bool("--ddr5", &ddr5, "legacy toggle: DDR5 geometry");
  DeclareSubarrayRows(command.flags, &subarray_rows);
  command.Parse();
  DramGeometry geometry = ddr5 ? Ddr5Geometry() : DramGeometry{};
  SilozConfig config;
  std::unique_ptr<AddressDecoder> decoder;
  if (!platform.empty()) {
    const PlatformInfo& info = *FindPlatform(platform);
    geometry = info.geometry;
    geometry.rows_per_subarray = subarray_rows.value_or(geometry.rows_per_subarray);
    config.uniform_internal_addressing = info.uniform_internal_addressing;
    Result<std::unique_ptr<AddressDecoder>> made = MakePlatformDecoder(platform, geometry);
    if (!made.ok()) {
      std::fprintf(stderr, "platform '%s': %s\n", platform.c_str(),
                   made.error().ToString().c_str());
      return 1;
    }
    decoder = std::move(*made);
  } else if (snc) {
    decoder = std::make_unique<SncDecoder>(geometry, 2);
  } else {
    decoder = std::make_unique<SkylakeDecoder>(geometry);
  }
  config.rows_per_subarray = subarray_rows.value_or(geometry.rows_per_subarray);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(*decoder, memory, config);
  if (Status status = hypervisor.Boot(); !status.ok()) {
    std::fprintf(stderr, "boot: %s\n", status.error().ToString().c_str());
    return 1;
  }
  std::printf("platform : %s\n", geometry.ToString().c_str());
  std::printf("decoder  : %s\n", decoder->name().c_str());
  std::printf("groups   : %u/socket x %lu MiB%s\n", hypervisor.group_map().groups_per_socket(),
              static_cast<unsigned long>(hypervisor.group_map().group_bytes() >> 20),
              hypervisor.using_artificial_groups() ? " (artificial)" : "");
  std::printf("nodes    : %zu total (%zu host, %zu guest)\n", hypervisor.nodes().node_count(),
              hypervisor.nodes().NodesOfKind(NodeKind::kHostReserved).size(),
              hypervisor.nodes().NodesOfKind(NodeKind::kGuestReserved).size());
  std::printf("EPT block: %lu KiB reserved (%.4f%% of DRAM), %zu pool pages/socket\n",
              static_cast<unsigned long>(hypervisor.ept_reserved_bytes() >> 10),
              100.0 * static_cast<double>(hypervisor.ept_reserved_bytes()) /
                  static_cast<double>(geometry.total_bytes()),
              hypervisor.ept_pool_free(0));
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    std::printf("socket %u : %zu guest nodes available\n", socket,
                hypervisor.AvailableGuestNodes(socket).size());
  }
  return 0;
}

int CmdAttack(CommandLine& command) {
  bool baseline = false;
  BlacksmithConfig fuzz;
  fuzz.patterns = 12;
  fuzz.seed = 0xB1AC5;
  command.flags.Bool("--baseline", &baseline, "boot the unmodified Linux/KVM kernel")
      .Uint("--patterns", &fuzz.patterns, "fuzzing patterns");
  DeclareSeed(command.flags, &fuzz.seed);
  command.Parse();
  MachineConfig machine_config;
  machine_config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 2500.0;
  profile.trr.enabled = true;
  profile.trr.act_threshold = 400;
  machine_config.dimm_profiles = {profile};
  Machine machine(machine_config);

  SilozConfig config;
  config.enabled = !baseline;
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
  SILOZ_CHECK(hypervisor.Boot().ok());
  const VmId attacker = *hypervisor.CreateVm({.name = "attacker", .memory_bytes = 3_GiB});
  const VmId victim = *hypervisor.CreateVm({.name = "victim", .memory_bytes = 3_GiB});
  Vm& attacker_vm = **hypervisor.GetVm(attacker);

  std::vector<PhysRange> reachable;
  for (const VmRegion& region : attacker_vm.regions()) {
    reachable.push_back(PhysRange{region.hpa, region.hpa + region.bytes});
  }
  std::printf("kernel=%s patterns=%u seed=%lu ... ", baseline ? "baseline" : "siloz",
              fuzz.patterns, static_cast<unsigned long>(fuzz.seed));
  std::fflush(stdout);
  const FuzzReport report = BlacksmithFuzzer(fuzz).Run(machine, reachable);

  uint64_t in_victim = 0;
  Vm& victim_vm = **hypervisor.GetVm(victim);
  for (const PhysFlip& flip : report.flips) {
    for (const VmRegion& region : victim_vm.regions()) {
      in_victim += (flip.phys >= region.hpa && flip.phys < region.hpa + region.bytes);
    }
  }
  std::printf("done\n%lu activations, %zu flips, %lu in the victim VM\n",
              static_cast<unsigned long>(report.activations), report.flips.size(),
              static_cast<unsigned long>(in_victim));
  const Status audit_a = hypervisor.AuditVmIsolation(attacker);
  const Status audit_v = hypervisor.AuditVmIsolation(victim);
  std::printf("audits: attacker=%s victim=%s\n", audit_a.ok() ? "PASS" : "FAIL",
              audit_v.ok() ? "PASS" : "FAIL");
  return 0;
}

int CmdAudit(CommandLine& command) {
  audit::Options options;
  options.probe_stride = 4_MiB;
  options.random_probes = 512;
  bool flip_ept = false;
  bool json = false;
  command.flags.Bool("--flip-ept", &flip_ept, "inject a bit flip into an EPT table page")
      .Uint("--stride", &options.probe_stride, "physical probe stride in bytes");
  DeclareThreads(command.flags, &options.threads);
  command.flags.Bool("--json", &json, "machine-readable report");
  command.Parse();
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  SILOZ_CHECK(hypervisor.Boot().ok());
  const VmId vm = *hypervisor.CreateVm({.name = "tenant", .memory_bytes = 3_GiB});
  if (flip_ept) {
    Vm& tenant = **hypervisor.GetVm(vm);
    memory.FlipBit(tenant.ept()->table_pages().back() + 4, 2);
    std::printf("injected a bit flip into an EPT table page\n");
  }

  // Static pass first: prove the boot-time plan upholds the four isolation
  // invariants, then check this VM's live EPT bytes against it.
  audit::Auditor auditor(hypervisor, RemapConfig{}, options);
  audit::Report report = auditor.Run();
  auditor.CheckVmContainment(**hypervisor.GetVm(vm), report);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf("%s", report.ToText().c_str());
  }
  // Kept out of the report itself so stdout stays identical for every N.
  std::fprintf(stderr, "blast-radius scan: %u workers, %llu tasks (%llu stolen), wall %.1f ms\n",
               report.scan_pool.workers, static_cast<unsigned long long>(report.scan_pool.tasks),
               static_cast<unsigned long long>(report.scan_pool.steals), report.scan_wall_ms);

  const Status audit = hypervisor.AuditVmIsolation(vm);
  std::printf("EPT walk audit: %s\n", audit.ok() ? "PASS" : audit.error().ToString().c_str());
  return (audit.ok() && report.ok()) ? 0 : 2;
}

int CmdRun(CommandLine& command) {
  // The controller-backed experiment path: boots a machine + hypervisor per
  // trial and serves the workload through the memory controllers, so the
  // exported metrics include per-bank-group ACT/PRE/RD/WR/REF counts on top
  // of the hypervisor allocation counters. Model metrics are identical for
  // every --threads N (DESIGN.md §9).
  std::string name = "redis-a";
  std::optional<uint64_t> accesses;
  std::string platform;
  bool baseline = false;
  RunnerConfig config;
  config.trials = 5;
  config.seed = 42;
  command.flags.String("workload", &name, "workload model", WorkloadNames())
      .Uint("--accesses", &accesses, "requests per trial (default: the workload's)");
  DeclarePlatform(command.flags, &platform);
  command.flags.Bool("--baseline", &baseline, "boot the unmodified Linux/KVM kernel")
      .Uint("--trials", &config.trials, "trials");
  DeclareSeed(command.flags, &config.seed);
  DeclareThreads(command.flags, &config.threads);
  command.flags.Bool("--faults", &config.fault_tracking, "track Rowhammer bit flips");
  command.Parse();
  Result<WorkloadSpec> spec = FindWorkload(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 1;
  }
  spec->accesses = accesses.value_or(spec->accesses);
  if (!platform.empty()) {
    if (Status applied = ApplyPlatform(config, platform); !applied.ok()) {
      std::fprintf(stderr, "--platform: %s\n", applied.error().ToString().c_str());
      return 1;
    }
  }
  config.hypervisor.enabled = !baseline;
  Result<RunMeasurement> run = RunWorkload(config, *spec);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.error().ToString().c_str());
    return 1;
  }
  std::printf("workload=%s kernel=%s platform=%s trials=%u\n", spec->name.c_str(),
              config.hypervisor.enabled ? "siloz" : "baseline",
              config.platform.empty() ? "skylake" : config.platform.c_str(), config.trials);
  std::printf("elapsed   : %.3f ms/trial (stddev %.3f)\n", run->elapsed_ns.mean() / 1e6,
              run->elapsed_ns.stddev() / 1e6);
  std::printf("bandwidth : %.3f GiB/s\n", run->bandwidth_gibs.mean());
  std::printf("row hits  : %.1f%%\n", 100.0 * run->row_hit_rate);
  if (config.fault_tracking) {
    std::printf("bit flips : %zu\n", run->flip_phys.size());
  }
  return 0;
}

int CmdFleet(CommandLine& command) {
  // Fleet churn on the 8-socket fleet platform (§7 operational costs).
  // Model output (stdout) is bit-identical for every --threads N; the
  // wall-clock latency tails go to stderr so stdout stays comparable.
  FleetConfig config;
  std::string policy = AdmissionPolicyName(config.policy);
  bool json = false;
  command.flags.String("--policy", &policy, "admission policy", {"reject", "queue", "defrag"});
  DeclareSeed(command.flags, &config.seed);
  DeclareThreads(command.flags, &config.threads);
  command.flags.Double("--duration", &config.duration_s, "arrival window in seconds")
      .Double("--rate", &config.arrivals_per_s, "base arrivals per second")
      .Double("--burst", &config.burst_amplitude, "diurnal modulation depth")
      .Double("--epoch", &config.epoch_s, "defrag and census cadence in seconds")
      .Double("--timeout", &config.queue_timeout_s, "queue abandonment timeout in seconds")
      .Bool("--json", &json, "machine-readable report");
  command.Parse();
  config.policy = *ParseAdmissionPolicy(policy);
  Result<FleetReport> report = RunFleetChurn(config);
  if (!report.ok()) {
    std::fprintf(stderr, "fleet: %s\n", report.error().ToString().c_str());
    return 1;
  }
  if (json) {
    std::printf("%s\n", report->ModelJson().c_str());
  } else {
    std::printf("%s", report->ModelText().c_str());
  }
  std::fprintf(stderr, "%s", FleetReport::LatencyText().c_str());
  return report->drained_clean ? 0 : 2;
}

int CmdGroupOf(CommandLine& command) {
  std::optional<uint64_t> phys;
  std::string platform;
  command.flags.Uint("phys-address", &phys, "physical address (required)");
  DeclarePlatform(command.flags, &platform);
  command.Parse();
  if (!phys) {
    command.flags.UsageError("missing <phys-address>");
  }
  // A registered platform's own geometry always builds its decoder.
  std::unique_ptr<AddressDecoder> decoder = std::make_unique<SkylakeDecoder>(DramGeometry{});
  if (!platform.empty()) {
    decoder = MakePlatformDecoder(platform).value();
  }
  const DramGeometry& geometry = decoder->geometry();
  SubarrayGroupMap map = *SubarrayGroupMap::Build(*decoder, geometry.rows_per_subarray);
  Result<uint32_t> group = map.GroupOfPhys(*phys);
  if (!group.ok()) {
    std::fprintf(stderr, "%s\n", group.error().ToString().c_str());
    return 1;
  }
  const MediaAddress media = *decoder->PhysToMedia(*phys);
  std::printf("phys 0x%lx -> %s -> subarray group %u (socket %u, subarray %u)\n",
              static_cast<unsigned long>(*phys), media.ToString().c_str(), *group,
              map.SocketOfGroup(*group), map.IndexInCluster(*group));
  return 0;
}

struct Command {
  const char* name;
  const char* summary;
  int (*run)(CommandLine& command);
};

constexpr Command kCommands[] = {
    {"topology", "print the logical NUMA topology Siloz boots", CmdTopology},
    {"attack", "run a Blacksmith campaign from one VM against a co-located victim", CmdAttack},
    {"audit", "audit the boot plan's isolation invariants and one live VM's EPT", CmdAudit},
    {"run", "serve one workload through the memory controllers", CmdRun},
    {"fleet", "replay fleet churn on the 8-socket fleet platform", CmdFleet},
    {"groupof", "print the subarray group of a physical address", CmdGroupOf},
};

std::string Usage() {
  std::string usage = "usage: silozctl <command> [flags]  (silozctl <command> --help lists them)\n";
  for (const Command& command : kCommands) {
    usage += "  " + std::string(command.name) + std::string(10 - std::strlen(command.name), ' ') +
             command.summary + "\n";
  }
  return usage;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc >= 2 ? argv[1] : "";
  if (name == "--help" || name == "-h") {
    std::fputs(Usage().c_str(), stdout);
    return 0;
  }
  for (const Command& command : kCommands) {
    if (name == command.name) {
      CommandLine line{FlagSet("silozctl " + name, command.summary), ObsFlags{}, argc - 1,
                       argv + 1};
      // Commands keep all simulated objects function-local, so their
      // destructors have flushed every model counter by the time run returns.
      const int status = command.run(line);
      return line.obs.Write() ? status : 1;
    }
  }
  std::fprintf(stderr, "silozctl: %s\n%s",
               name.empty() ? "missing command" : ("unknown command '" + name + "'").c_str(),
               Usage().c_str());
  return 2;
}
