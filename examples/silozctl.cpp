// silozctl: command-line front end over the simulated platform — inspect
// topology, run attack campaigns, compare kernels, and audit isolation.
//
// Usage:
//   silozctl topology [--platform NAME] [--snc] [--ddr5] [--subarray-rows N]
//   silozctl attack   [--baseline] [--patterns N] [--seed N]
//   silozctl audit    [--flip-ept] [--stride BYTES] [--threads N] [--json]
//   silozctl run      [workload] [--platform NAME] [--baseline] [--trials N]
//                     [--threads N] [--faults]
//   silozctl fleet    [--policy reject|queue|defrag] [--seed N] [--threads N]
//                     [--duration S] [--rate R] [--burst A] [--epoch S]
//                     [--timeout S] [--json]
//   silozctl groupof  <phys-address> [--platform NAME]
//
// --platform selects a registered platform (skylake, cascadelake, zen,
// ddr5): decoder family, geometry, and DDR-generation semantics together.
// It replaces the legacy --snc/--ddr5 geometry toggles where both are given.
//
// Every command additionally accepts --metrics-out FILE and --trace-out FILE
// (observability exports; written after the command completes, never mixed
// into stdout). --threads 0 (the default) auto-detects: $SILOZ_THREADS if
// set, else the hardware concurrency.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/addr/platform.h"
#include "src/attack/blacksmith.h"
#include "src/audit/auditor.h"
#include "src/base/parse.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/sim/fleet.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"
#include "src/workload/workloads.h"

using namespace siloz;

namespace {

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: silozctl <command>\n"
               "  topology [--platform NAME] [--snc] [--ddr5] [--subarray-rows N]\n"
               "  attack   [--baseline] [--patterns N] [--seed N]\n"
               "  run      [workload] [--platform NAME] [--baseline] [--trials N]\n"
               "           [--threads N] [--faults]\n"
               "  fleet    [--policy reject|queue|defrag] [--seed N] [--threads N]\n"
               "           [--duration S] [--rate R] [--burst A] [--epoch S]\n"
               "           [--timeout S] [--json]\n"
               "  audit    [--flip-ept] [--stride BYTES] [--threads N] [--json]\n"
               "  groupof  <phys-address> [--platform NAME]\n"
               "common: --threads N         worker count (0 = auto: $SILOZ_THREADS,\n"
               "                            else hardware concurrency)\n"
               "        --platform NAME     registered platform (skylake, cascadelake,\n"
               "                            zen, ddr5): decoder family + geometry\n"
               "        --metrics-out FILE  write the metrics registry as JSON\n"
               "        --trace-out FILE    record + write a Chrome trace-event log\n");
}

// Parses `text` as an unsigned integer of type T in C syntax (decimal, 0x
// hex, leading-0 octal). A sign, an empty value, trailing characters or a
// value outside T print usage to stderr and exit 2 before the command
// writes anything to stdout (`--trials abc` used to run 0 trials and exit 0).
template <typename T>
T UintArg(const char* what, const char* text) {
  const std::optional<uint64_t> value = ParseUint(text, 0, std::numeric_limits<T>::max());
  if (!value) {
    std::fprintf(stderr, "silozctl: %s expects an unsigned integer, got '%s'\n", what, text);
    PrintUsage();
    std::exit(2);
  }
  return static_cast<T>(*value);
}

template <typename T>
T FlagValue(int argc, char** argv, const char* flag, T fallback) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return UintArg<T>(flag, i + 1 < argc ? argv[i + 1] : "");
    }
  }
  return fallback;
}

std::string FlagString(int argc, char** argv, const char* flag) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return "";
}

double FlagDouble(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtod(argv[i + 1], nullptr);
    }
  }
  return fallback;
}

int CmdTopology(int argc, char** argv) {
  const std::string platform = FlagString(argc, argv, "--platform");
  DramGeometry geometry = HasFlag(argc, argv, "--ddr5") ? Ddr5Geometry() : DramGeometry{};
  SilozConfig config;
  std::unique_ptr<AddressDecoder> decoder;
  if (!platform.empty()) {
    const PlatformInfo* info = FindPlatform(platform);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown platform '%s'\n", platform.c_str());
      return 1;
    }
    geometry = info->geometry;
    geometry.rows_per_subarray =
        FlagValue<uint32_t>(argc, argv, "--subarray-rows", geometry.rows_per_subarray);
    config.uniform_internal_addressing = info->uniform_internal_addressing;
    Result<std::unique_ptr<AddressDecoder>> made = info->make(geometry);
    if (!made.ok()) {
      std::fprintf(stderr, "platform '%s': %s\n", platform.c_str(),
                   made.error().ToString().c_str());
      return 1;
    }
    decoder = std::move(*made);
  } else if (HasFlag(argc, argv, "--snc")) {
    decoder = std::make_unique<SncDecoder>(geometry, 2);
  } else {
    decoder = std::make_unique<SkylakeDecoder>(geometry);
  }
  config.rows_per_subarray =
      FlagValue<uint32_t>(argc, argv, "--subarray-rows", geometry.rows_per_subarray);
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

int CmdAttack(int argc, char** argv) {
  const bool baseline = HasFlag(argc, argv, "--baseline");
  BlacksmithConfig fuzz;
  fuzz.patterns = FlagValue<uint32_t>(argc, argv, "--patterns", 12);
  fuzz.seed = FlagValue<uint64_t>(argc, argv, "--seed", 0xB1AC5);
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

int CmdAudit(int argc, char** argv) {
  audit::Options options;
  options.probe_stride = FlagValue<uint64_t>(argc, argv, "--stride", 4_MiB);
  options.random_probes = 512;
  options.threads = FlagValue<uint32_t>(argc, argv, "--threads", 0);
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  SILOZ_CHECK(hypervisor.Boot().ok());
  const VmId vm = *hypervisor.CreateVm({.name = "tenant", .memory_bytes = 3_GiB});
  if (HasFlag(argc, argv, "--flip-ept")) {
    Vm& tenant = **hypervisor.GetVm(vm);
    memory.FlipBit(tenant.ept()->table_pages().back() + 4, 2);
    std::printf("injected a bit flip into an EPT table page\n");
  }

  // Static pass first: prove the boot-time plan upholds the four isolation
  // invariants, then check this VM's live EPT bytes against it.
  audit::Auditor auditor(hypervisor, RemapConfig{}, options);
  audit::Report report = auditor.Run();
  auditor.CheckVmContainment(**hypervisor.GetVm(vm), report);
  if (HasFlag(argc, argv, "--json")) {
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

int CmdRun(int argc, char** argv) {
  // The controller-backed experiment path: boots a machine + hypervisor per
  // trial and serves the workload through the memory controllers, so the
  // exported metrics include per-bank-group ACT/PRE/RD/WR/REF counts on top
  // of the hypervisor allocation counters. Model metrics are identical for
  // every --threads N (DESIGN.md §9).
  const std::string name = (argc >= 3 && argv[2][0] != '-') ? argv[2] : "redis-a";
  Result<WorkloadSpec> spec = FindWorkload(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 1;
  }
  spec->accesses = FlagValue<uint64_t>(argc, argv, "--accesses", spec->accesses);
  RunnerConfig config;
  const std::string platform = FlagString(argc, argv, "--platform");
  if (!platform.empty()) {
    if (Status applied = ApplyPlatform(config, platform); !applied.ok()) {
      std::fprintf(stderr, "--platform: %s\n", applied.error().ToString().c_str());
      return 1;
    }
  }
  config.hypervisor.enabled = !HasFlag(argc, argv, "--baseline");
  config.trials = FlagValue<uint32_t>(argc, argv, "--trials", 5);
  config.seed = FlagValue<uint64_t>(argc, argv, "--seed", 42);
  config.threads = FlagValue<uint32_t>(argc, argv, "--threads", 0);
  config.fault_tracking = HasFlag(argc, argv, "--faults");
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

int CmdFleet(int argc, char** argv) {
  // Fleet churn on the 8-socket fleet platform (§7 operational costs).
  // Model output (stdout) is bit-identical for every --threads N; the
  // wall-clock latency tails go to stderr so stdout stays comparable.
  FleetConfig config;
  const std::string policy = FlagString(argc, argv, "--policy");
  if (!policy.empty()) {
    Result<AdmissionPolicy> parsed = ParseAdmissionPolicy(policy);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--policy: %s\n", parsed.error().ToString().c_str());
      return 1;
    }
    config.policy = *parsed;
  }
  config.seed = FlagValue<uint64_t>(argc, argv, "--seed", config.seed);
  config.threads = FlagValue<uint32_t>(argc, argv, "--threads", 0);
  config.duration_s = FlagDouble(argc, argv, "--duration", config.duration_s);
  config.arrivals_per_s = FlagDouble(argc, argv, "--rate", config.arrivals_per_s);
  config.burst_amplitude = FlagDouble(argc, argv, "--burst", config.burst_amplitude);
  config.epoch_s = FlagDouble(argc, argv, "--epoch", config.epoch_s);
  config.queue_timeout_s = FlagDouble(argc, argv, "--timeout", config.queue_timeout_s);
  Result<FleetReport> report = RunFleetChurn(config);
  if (!report.ok()) {
    std::fprintf(stderr, "fleet: %s\n", report.error().ToString().c_str());
    return 1;
  }
  if (HasFlag(argc, argv, "--json")) {
    std::printf("%s\n", report->ModelJson().c_str());
  } else {
    std::printf("%s", report->ModelText().c_str());
  }
  std::fprintf(stderr, "%s", FleetReport::LatencyText().c_str());
  return report->drained_clean ? 0 : 2;
}

int CmdGroupOf(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: silozctl groupof <phys-address> [--platform NAME]\n");
    return 1;
  }
  const std::string platform = FlagString(argc, argv, "--platform");
  DramGeometry geometry;
  std::unique_ptr<AddressDecoder> decoder;
  if (!platform.empty()) {
    const PlatformInfo* info = FindPlatform(platform);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown platform '%s'\n", platform.c_str());
      return 1;
    }
    geometry = info->geometry;
    Result<std::unique_ptr<AddressDecoder>> made = info->make(geometry);
    if (!made.ok()) {
      std::fprintf(stderr, "platform '%s': %s\n", platform.c_str(),
                   made.error().ToString().c_str());
      return 1;
    }
    decoder = std::move(*made);
  } else {
    decoder = std::make_unique<SkylakeDecoder>(geometry);
  }
  SubarrayGroupMap map = *SubarrayGroupMap::Build(*decoder, geometry.rows_per_subarray);
  const uint64_t phys = UintArg<uint64_t>("phys-address", argv[2]);
  Result<uint32_t> group = map.GroupOfPhys(phys);
  if (!group.ok()) {
    std::fprintf(stderr, "%s\n", group.error().ToString().c_str());
    return 1;
  }
  const MediaAddress media = *decoder->PhysToMedia(phys);
  std::printf("phys 0x%lx -> %s -> subarray group %u (socket %u, subarray %u)\n",
              static_cast<unsigned long>(phys), media.ToString().c_str(), *group,
              map.SocketOfGroup(*group), map.IndexInCluster(*group));
  return 0;
}

}  // namespace

int Dispatch(int argc, char** argv, const std::string& command) {
  if (command == "topology") {
    return CmdTopology(argc, argv);
  }
  if (command == "attack") {
    return CmdAttack(argc, argv);
  }
  if (command == "audit") {
    return CmdAudit(argc, argv);
  }
  if (command == "run") {
    return CmdRun(argc, argv);
  }
  if (command == "fleet") {
    return CmdFleet(argc, argv);
  }
  if (command == "groupof") {
    return CmdGroupOf(argc, argv);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  const std::string metrics_out = FlagString(argc, argv, "--metrics-out");
  const std::string trace_out = FlagString(argc, argv, "--trace-out");
  if (!trace_out.empty()) {
    obs::Tracer::Global().Enable();
  }
  // Commands keep all simulated objects function-local, so their destructors
  // have flushed every model counter by the time Dispatch returns.
  const int status = Dispatch(argc, argv, command);
  if (!metrics_out.empty() && !obs::WriteMetricsJson(metrics_out)) {
    return 1;
  }
  if (!trace_out.empty() && !obs::WriteTraceJson(trace_out)) {
    return 1;
  }
  return status;
}
