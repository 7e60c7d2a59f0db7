// siloz_audit: stand-alone static isolation-domain analyzer.
//
// Proves the four Siloz isolation invariants (decoder invertibility, domain
// closure, guard fencing, blast-radius containment) for a machine
// configuration without running any workload. Exit codes: 0 = all invariants
// hold, 2 = findings, 1 = usage/boot error. CI runs this on the default
// dual-socket Skylake platform and fails on any finding.
//
// Usage:
//   siloz_audit [--platform NAME] [--decoder skylake|snc2|linear] [--ddr5]
//               [--subarray-rows N] [--silicon-rows N] [--host-groups N]
//               [--ept-block N] [--ept-offset N] [--stride BYTES]
//               [--random-probes N] [--exhaustive] [--max-findings N]
//               [--corrupt none|shifted-jump|broken-inverse]
//               [--scrambling] [--threads N] [--json]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/addr/decoder.h"
#include "src/addr/platform.h"
#include "src/audit/auditor.h"
#include "src/audit/corrupt_decoder.h"
#include "src/base/units.h"
#include "src/dram/remap.h"
#include "src/ept/phys_memory.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/siloz/conservation.h"
#include "src/siloz/hypervisor.h"

using namespace siloz;

namespace {

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

uint64_t FlagValue(int argc, char** argv, const char* flag, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 0);
    }
  }
  return fallback;
}

const char* FlagString(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

int Usage() {
  std::fprintf(stderr,
               "usage: siloz_audit [options]\n"
               "  --platform NAME                 registered platform (skylake, cascadelake,\n"
               "                                  zen, ddr5): decoder family, geometry, and\n"
               "                                  remap semantics; overrides --decoder/--ddr5\n"
               "  --decoder skylake|snc2|linear   platform decoder (default skylake)\n"
               "  --ddr5                          DDR5 geometry + remap semantics\n"
               "  --subarray-rows N               boot parameter (default 1024)\n"
               "  --silicon-rows N                silicon ground truth (default = boot value)\n"
               "  --host-groups N                 host groups per socket (default 2)\n"
               "  --ept-block N / --ept-offset N  guard-row block geometry (default 32/12)\n"
               "  --stride BYTES                  physical probe stride (default 256 KiB)\n"
               "  --random-probes N               extra seeded probes (default 4096)\n"
               "  --exhaustive                    probe every 4 KiB page\n"
               "  --max-findings N                findings kept per invariant (default 16)\n"
               "  --corrupt none|shifted-jump|broken-inverse\n"
               "                                  audit against a deliberately wrong decoder\n"
               "  --scrambling                    model vendor row-bit scrambling\n"
               "  --threads N                     audit scan workers (0 = auto,\n"
               "                                  1 = serial; findings identical for all N)\n"
               "  --fault-sweep                   instead of the static audit, run the\n"
               "                                  CreateVm and MigrateVm fault-injection\n"
               "                                  sweeps: fail each allocation point once\n"
               "                                  and verify the lifecycle conservation\n"
               "                                  invariants (migration needs >= 2 sockets)\n"
               "  --json                          machine-readable report\n"
               "  --metrics-out FILE              write the metrics registry as JSON (model\n"
               "                                  values identical for every --threads)\n"
               "  --trace-out FILE                record + write a Chrome trace-event log\n");
  return 1;
}

// A CI gate must not silently ignore a typo'd flag and report PASS.
bool ValidateFlags(int argc, char** argv) {
  static const char* kValueFlags[] = {"--platform",  "--decoder",       "--subarray-rows",
                                      "--silicon-rows", "--host-groups", "--ept-block",
                                      "--ept-offset", "--stride",       "--random-probes",
                                      "--max-findings", "--corrupt",    "--threads",
                                      "--metrics-out", "--trace-out"};
  static const char* kBoolFlags[] = {"--ddr5",  "--exhaustive", "--scrambling", "--json",
                                     "--fault-sweep", "--help", "-h"};
  for (int i = 1; i < argc; ++i) {
    bool known = false;
    for (const char* flag : kValueFlags) {
      if (std::strcmp(argv[i], flag) == 0) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s requires a value\n", flag);
          return false;
        }
        ++i;
        known = true;
        break;
      }
    }
    for (const char* flag : kBoolFlags) {
      known = known || std::strcmp(argv[i], flag) == 0;
    }
    if (!known) {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!ValidateFlags(argc, argv)) {
    return Usage();
  }
  if (HasFlag(argc, argv, "--help") || HasFlag(argc, argv, "-h")) {
    return Usage();
  }

  const bool ddr5 = HasFlag(argc, argv, "--ddr5");
  const std::string platform = FlagString(argc, argv, "--platform", "");
  const PlatformInfo* platform_info = nullptr;
  if (!platform.empty()) {
    platform_info = FindPlatform(platform);
    if (platform_info == nullptr) {
      std::fprintf(stderr, "unknown platform '%s'\n", platform.c_str());
      return Usage();
    }
  }
  DramGeometry geometry = platform_info != nullptr ? platform_info->geometry
                          : ddr5                   ? Ddr5Geometry()
                                                   : DramGeometry{};

  SilozConfig config;
  config.rows_per_subarray =
      static_cast<uint32_t>(FlagValue(argc, argv, "--subarray-rows", geometry.rows_per_subarray));
  config.host_groups_per_socket =
      static_cast<uint32_t>(FlagValue(argc, argv, "--host-groups", config.host_groups_per_socket));
  config.ept_block_row_groups =
      static_cast<uint32_t>(FlagValue(argc, argv, "--ept-block", config.ept_block_row_groups));
  config.ept_row_group_offset =
      static_cast<uint32_t>(FlagValue(argc, argv, "--ept-offset", config.ept_row_group_offset));
  config.uniform_internal_addressing =
      ddr5 || (platform_info != nullptr && platform_info->uniform_internal_addressing);
  geometry.rows_per_subarray = config.rows_per_subarray;

  const std::string decoder_name = FlagString(argc, argv, "--decoder", "skylake");
  std::unique_ptr<AddressDecoder> decoder;
  if (platform_info != nullptr) {
    Result<std::unique_ptr<AddressDecoder>> made = platform_info->make(geometry);
    if (!made.ok()) {
      std::fprintf(stderr, "platform '%s': %s\n", platform.c_str(),
                   made.error().ToString().c_str());
      return 1;
    }
    decoder = std::move(*made);
  } else if (decoder_name == "skylake") {
    decoder = std::make_unique<SkylakeDecoder>(geometry);
  } else if (decoder_name == "snc2") {
    decoder = std::make_unique<SncDecoder>(geometry, 2);
  } else if (decoder_name == "linear") {
    decoder = std::make_unique<LinearDecoder>(geometry);
  } else {
    std::fprintf(stderr, "unknown decoder '%s'\n", decoder_name.c_str());
    return Usage();
  }

  RemapConfig remap = platform_info != nullptr ? platform_info->remap
                      : ddr5                   ? Ddr5RemapConfig()
                                               : RemapConfig{};
  remap.vendor_scrambling = HasFlag(argc, argv, "--scrambling");

  if (HasFlag(argc, argv, "--fault-sweep")) {
    // Lifecycle mode: prove every CreateVm error path conserves resources
    // (DESIGN.md §11) on this platform configuration.
    FlatPhysMemory memory;
    SilozHypervisor hypervisor(*decoder, memory, config);
    Status boot = hypervisor.Boot();
    if (!boot.ok()) {
      std::fprintf(stderr, "boot failed: %s\n", boot.error().ToString().c_str());
      return 1;
    }
    // A VM touching every reservation class: multi-run RAM, ROM, an MMIO
    // window, and EPT table pages.
    VmConfig vm;
    vm.name = "fault-sweep";
    vm.memory_bytes = 8_MiB;
    vm.rom_bytes = 2_MiB;
    vm.mmio_bytes = 64_KiB;
    vm.socket = 0;
    Result<FaultSweepReport> sweep = RunCreateVmFaultSweep(hypervisor, vm);
    if (!sweep.ok()) {
      std::fprintf(stderr, "fault sweep FAILED: %s\n", sweep.error().ToString().c_str());
      return 2;
    }
    std::printf(
        "fault sweep PASS: %llu points probed, %llu faults injected "
        "(%llu failed the create, %llu tolerated); all error paths conserved\n",
        static_cast<unsigned long long>(sweep->points_probed),
        static_cast<unsigned long long>(sweep->faults_injected),
        static_cast<unsigned long long>(sweep->creates_failed),
        static_cast<unsigned long long>(sweep->creates_survived));
    // The same treatment for MigrateVm: fail each allocation point of the
    // cross-socket move and verify the VM stays intact on its source (or,
    // when the fault is tolerated, passes the isolation audit on its
    // target). Needs a second socket to migrate to.
    if (geometry.sockets < 2) {
      std::printf("migrate sweep SKIPPED: platform has %u socket(s)\n", geometry.sockets);
      return 0;
    }
    Result<FaultSweepReport> migrate_sweep =
        RunMigrateVmFaultSweep(hypervisor, vm, /*target_socket=*/1);
    if (!migrate_sweep.ok()) {
      std::fprintf(stderr, "migrate sweep FAILED: %s\n",
                   migrate_sweep.error().ToString().c_str());
      return 2;
    }
    std::printf(
        "migrate sweep PASS: %llu points probed, %llu faults injected "
        "(%llu failed the migration, %llu tolerated); all error paths conserved\n",
        static_cast<unsigned long long>(migrate_sweep->points_probed),
        static_cast<unsigned long long>(migrate_sweep->faults_injected),
        static_cast<unsigned long long>(migrate_sweep->creates_failed),
        static_cast<unsigned long long>(migrate_sweep->creates_survived));
    return 0;
  }

  audit::Options options;
  options.silicon_rows_per_subarray =
      static_cast<uint32_t>(FlagValue(argc, argv, "--silicon-rows", 0));
  options.probe_stride = FlagValue(argc, argv, "--stride", options.probe_stride);
  options.random_probes = FlagValue(argc, argv, "--random-probes", options.random_probes);
  options.exhaustive = HasFlag(argc, argv, "--exhaustive");
  options.max_findings_per_invariant =
      static_cast<size_t>(FlagValue(argc, argv, "--max-findings", 16));
  options.threads = static_cast<uint32_t>(FlagValue(argc, argv, "--threads", 0));

  // Optional negative mode: the machine's "real" mapping deviates from the
  // decoder the hypervisor boots with, so the audit should FAIL.
  const std::string corrupt = FlagString(argc, argv, "--corrupt", "none");
  std::unique_ptr<audit::CorruptedDecoder> corrupted;
  const AddressDecoder* truth = decoder.get();
  if (corrupt != "none") {
    // The mapping-jump period to shift by: the platform's own for --platform
    // runs (XOR-matrix decoders have no skx region), the skx region otherwise.
    const uint64_t region = platform_info != nullptr
                                ? ShiftedJumpPeriod(*platform_info, geometry)
                                : SkylakeDecoder(geometry).region_bytes();
    if (corrupt == "shifted-jump") {
      corrupted = std::make_unique<audit::CorruptedDecoder>(
          *decoder, audit::Corruption::kShiftedJump, region);
    } else if (corrupt == "broken-inverse") {
      corrupted = std::make_unique<audit::CorruptedDecoder>(
          *decoder, audit::Corruption::kBrokenInverse, region);
    } else {
      std::fprintf(stderr, "unknown corruption '%s'\n", corrupt.c_str());
      return Usage();
    }
    truth = corrupted.get();
  }

  const std::string metrics_out = FlagString(argc, argv, "--metrics-out", "");
  const std::string trace_out = FlagString(argc, argv, "--trace-out", "");
  if (!trace_out.empty()) {
    obs::Tracer::Global().Enable();
  }

  Result<audit::Report> report =
      audit::AuditProvisioningPlan(*decoder, *truth, config, remap, options);
  if (!report.ok()) {
    std::fprintf(stderr, "audit setup failed: %s\n", report.error().ToString().c_str());
    return 1;
  }
  if (HasFlag(argc, argv, "--json")) {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    std::printf("platform: %s, decoder %s (audited against %s)\n", geometry.ToString().c_str(),
                decoder->name().c_str(), truth->name().c_str());
    std::printf("%s", report->ToText().c_str());
  }
  // Scheduler/timing metrics go to stderr so the report on stdout (and the
  // JSON) stays byte-identical across thread counts.
  std::fprintf(stderr, "blast-radius scan: %u workers, %llu tasks (%llu stolen), wall %.1f ms\n",
               report->scan_pool.workers,
               static_cast<unsigned long long>(report->scan_pool.tasks),
               static_cast<unsigned long long>(report->scan_pool.steals), report->scan_wall_ms);
  // AuditProvisioningPlan keeps its hypervisor and pool function-local, so
  // every model counter has been flushed by now.
  if (!metrics_out.empty() && !obs::WriteMetricsJson(metrics_out)) {
    return 1;
  }
  if (!trace_out.empty() && !obs::WriteTraceJson(trace_out)) {
    return 1;
  }
  return report->ok() ? 0 : 2;
}
