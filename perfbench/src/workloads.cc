// The four benchmark workloads: their inputs, one pass of the real entry
// point each, and the output checks of every pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench/src/harness.h"
#include "perfbench/src/inputs.h"
#include "src/audit/auditor.h"
#include "src/base/units.h"

namespace perfbench {

using namespace siloz;

// ---------------------------------------------------------------- helpers

void Digest::Bytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    state_ = (state_ ^ bytes[i]) * 0x100000001B3ull;
  }
}

std::string Digest::Hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(state_));
  return text;
}

uint32_t Tracer::Open(std::string name, uint32_t parent) {
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = WallNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t Tracer::Close(uint32_t id) {
  Span& span = spans_[id - 1];
  span.end_ns = WallNs();
  return span.end_ns - span.start_ns;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "  {\"id\": " << span.id << ", \"parent\": " << span.parent << ", \"name\": \""
        << span.name << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

// ---------------------------------------------------------------- inputs

// Seed 42 reproduces the committed benches' inputs exactly; any other seed
// shifts every derived seed by a multiple of the golden ratio.
uint64_t SeedShift(const Inputs& inputs, uint64_t base) {
  return base + (inputs.seed - 42) * 0x9E3779B97F4A7C15ull;
}

std::vector<GridPoint> FigureGrid(bool throughput, const Inputs& inputs) {
  std::vector<WorkloadSpec> specs =
      throughput ? ThroughputWorkloads() : ExecutionTimeWorkloads();
  RunnerConfig runner;
  // The shape bench_fig4_exec_time and bench_fig5_throughput print, pinned
  // field by field so a change of RunnerConfig defaults cannot change the
  // benchmark's traffic.
  runner.decoder = DecoderKind::kSkylake;
  runner.platform.clear();
  runner.geometry = DramGeometry{};
  runner.trials = 5;
  runner.seed = inputs.seed;
  runner.threads = 1;  // RunWorkloadGrid takes the pass's thread count
  runner.channels_per_shard = 1;
  runner.bank_groups_per_queue = 1;
  runner.fault_tracking = false;
  if (inputs.size == Size::kSmall) {
    specs.resize(2);
    for (WorkloadSpec& spec : specs) {
      spec.accesses = 20'000;
    }
    runner.trials = 2;
  }
  std::vector<GridPoint> points;
  for (const bool siloz : {false, true}) {
    runner.hypervisor = SilozConfig{};
    runner.hypervisor.enabled = siloz;
    runner.hypervisor.rows_per_subarray = 1024;
    for (const WorkloadSpec& spec : specs) {
      points.push_back(GridPoint{runner, spec});
    }
  }
  return points;
}

std::vector<DimmProfile> TableThreeDimms(const Inputs& inputs) {
  // bench_table3_containment's six personalities.
  const struct {
    const char* name;
    double threshold;
    double spread;
    bool scrambling;
  } specs[] = {
      {"A", 2400.0, 0.15, false}, {"B", 3000.0, 0.20, false}, {"C", 2100.0, 0.10, true},
      {"D", 2800.0, 0.25, false}, {"E", 2500.0, 0.15, true},  {"F", 3300.0, 0.20, false},
  };
  std::vector<DimmProfile> dimms;
  for (const auto& spec : specs) {
    DimmProfile dimm;
    dimm.name = spec.name;
    dimm.disturbance.threshold_mean = spec.threshold;
    dimm.disturbance.threshold_spread = spec.spread;
    dimm.disturbance.seed = SeedShift(inputs, 0x51102 + static_cast<uint64_t>(dimm.name[0]));
    dimm.remap.vendor_scrambling = spec.scrambling;
    dimm.trr.enabled = true;
    dimm.trr.act_threshold = 400;
    dimms.push_back(dimm);
  }
  return dimms;
}

BlacksmithConfig CampaignConfig(const Inputs& inputs) {
  BlacksmithConfig fuzz;
  fuzz.patterns = inputs.size == Size::kSmall ? 12 : 36;
  fuzz.rounds = 1500;
  fuzz.min_pairs = 8;
  fuzz.max_pairs = 16;
  fuzz.seed = SeedShift(inputs, fuzz.seed);
  return fuzz;
}

FleetConfig FleetShape(const Inputs& inputs, uint32_t threads) {
  // bench_fleet_churn's shape: ~4000 arrivals, ~2500 concurrent, and enough
  // pressure that the defrag loop migrates.
  FleetConfig config;
  config.policy = AdmissionPolicy::kDefrag;
  config.seed = inputs.seed;
  config.threads = threads;
  config.duration_s = 200.0;
  config.arrivals_per_s = 20.0;
  config.min_lifetime_s = 60.0;
  config.max_lifetime_s = 240.0;
  if (inputs.size == Size::kSmall) {
    config.geometry.sockets = 8;
    config.geometry.rows_per_bank = 16384;
    config.duration_s = 60.0;
  }
  return config;
}

Result<CampaignOutcome> RunCampaign(const Inputs& inputs, uint32_t threads) {
  MachineConfig machine_config;
  machine_config.fault_tracking = true;
  machine_config.dimm_profiles = TableThreeDimms(inputs);
  Machine machine(machine_config);
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), SilozConfig{});
  SILOZ_RETURN_IF_ERROR(hypervisor.Boot());
  Result<VmId> attacker = hypervisor.CreateVm({.name = "blacksmith", .memory_bytes = 6_GiB});
  SILOZ_RETURN_IF_ERROR(attacker);
  Result<Vm*> vm = hypervisor.GetVm(*attacker);
  SILOZ_RETURN_IF_ERROR(vm);
  CampaignOutcome outcome;
  for (uint32_t group : (*vm)->guest_groups()) {
    for (const PhysRange& range : hypervisor.group_map().RangesOf(group)) {
      outcome.pinned.push_back(range);
    }
  }
  outcome.report = BlacksmithFuzzer(CampaignConfig(inputs)).Run(machine, outcome.pinned);
  // The paper's 24-hour soak: the patrol scrub surfaces latent flips.
  machine.AdvanceClock(24ull * 3600 * 1'000'000'000);
  outcome.scrubbed = machine.PatrolScrubAll();
  std::vector<PhysFlip> late = machine.DrainFlips();
  outcome.report.flips.insert(outcome.report.flips.end(), late.begin(), late.end());
  outcome.census = ClassifyFlips(outcome.report.flips, hypervisor.group_map(), outcome.pinned);
  for (const PhysFlip& flip : outcome.report.flips) {
    bool inside = false;
    for (const PhysRange& range : outcome.pinned) {
      inside |= range.Contains(flip.phys);
    }
    if (inside) {
      ++outcome.inside_per_dimm[flip.dimm_name];
    }
  }
  audit::Options options;
  options.threads = threads;
  const audit::Report audit = audit::Auditor(hypervisor, RemapConfig{}, options).Run();
  outcome.audit_findings = audit.findings.size() + audit.suppressed;
  outcome.audit_probes = audit.total_probes();
  return outcome;
}

// ---------------------------------------------------------------- workloads

namespace {

class FigureWorkload final : public Workload {
 public:
  FigureWorkload(bool throughput, const Inputs& inputs)
      : throughput_(throughput), points_(FigureGrid(throughput, inputs)) {}

  PassOutcome RunPass(uint32_t threads) const override {
    PassOutcome outcome;
    for (const GridPoint& point : points_) {
      outcome.operations += point.config.trials;
    }
    Result<std::vector<RunMeasurement>> grid = RunWorkloadGrid(points_, threads);
    if (!grid.ok()) {
      outcome.failures.push_back("grid failed: " + grid.error().ToString());
      return outcome;
    }
    Digest digest;
    for (size_t p = 0; p < points_.size(); ++p) {
      const GridPoint& point = points_[p];
      const RunMeasurement& m = (*grid)[p];
      uint64_t requests = 0;
      for (uint64_t shard : m.shard_requests) {
        requests += shard;
      }
      const uint64_t expected = point.config.trials * point.workload.accesses;
      if (m.elapsed_ns.count() != point.config.trials || requests != expected ||
          !(m.elapsed_ns.mean() > 0.0) || !(m.bandwidth_gibs.mean() > 0.0)) {
        outcome.failures.push_back("point " + point.workload.name + ": " +
                                   std::to_string(m.elapsed_ns.count()) + " trials, " +
                                   std::to_string(requests) + " of " +
                                   std::to_string(expected) + " requests served");
      }
      for (const RunningStat* stat : {&m.elapsed_ns, &m.bandwidth_gibs}) {
        digest.U64(stat->count());
        digest.F64(stat->mean());
        digest.F64(stat->stddev());
        digest.F64(stat->min());
        digest.F64(stat->max());
      }
      digest.U64(m.shard_requests.size());
      for (uint64_t shard : m.shard_requests) {
        digest.U64(shard);
      }
    }
    outcome.digest = digest.Hex();
    return outcome;
  }

  std::string ShapeJson() const override {
    const GridPoint& first = points_.front();
    std::ostringstream out;
    out << "{\"figure\": \"" << (throughput_ ? "fig5" : "fig4")
        << "\", \"platform\": \"table2-skylake\", \"rows_per_subarray\": 1024"
        << ", \"channels_per_shard\": " << first.config.channels_per_shard
        << ", \"bank_groups_per_queue\": " << first.config.bank_groups_per_queue
        << ", \"trials\": " << first.config.trials << ", \"points\": " << points_.size()
        << "}";
    return out.str();
  }

 private:
  bool throughput_;
  std::vector<GridPoint> points_;
};

class TableThreeWorkload final : public Workload {
 public:
  explicit TableThreeWorkload(const Inputs& inputs) : inputs_(inputs) {}

  PassOutcome RunPass(uint32_t threads) const override {
    PassOutcome outcome;
    const BlacksmithConfig fuzz = CampaignConfig(inputs_);
    outcome.operations = fuzz.patterns;
    Result<CampaignOutcome> campaign = RunCampaign(inputs_, threads);
    if (!campaign.ok()) {
      outcome.failures.push_back("campaign failed: " + campaign.error().ToString());
      return outcome;
    }
    const CampaignOutcome& c = *campaign;
    if (c.census.inside == 0) {
      outcome.failures.push_back("no flip inside the attacker's groups");
    }
    // Flips on every DIMM is Table 3's row for the reference campaign (seed
    // 42). A campaign is 36 single-bank patterns, so on other inputs it can
    // miss a DIMM by chance; the isolation checks below hold on every input.
    if (inputs_.seed == 42) {
      for (const DimmProfile& dimm : TableThreeDimms(inputs_)) {
        if (c.inside_per_dimm.count(dimm.name) == 0) {
          outcome.failures.push_back("no flip inside the group on DIMM " + dimm.name);
        }
      }
    }
    if (c.census.outside != 0) {
      outcome.failures.push_back(std::to_string(c.census.outside) +
                                 " flips outside the attacker's groups");
    }
    if (c.audit_findings != 0) {
      outcome.failures.push_back(std::to_string(c.audit_findings) + " auditor findings");
    }
    if (c.report.patterns_run != fuzz.patterns) {
      outcome.failures.push_back("ran " + std::to_string(c.report.patterns_run) + " of " +
                                 std::to_string(fuzz.patterns) + " patterns");
    }
    Digest digest;
    digest.U64(c.report.patterns_run);
    digest.U64(c.report.activations);
    digest.U64(c.report.flips.size());
    digest.U64(c.scrubbed);
    digest.U64(c.census.inside);
    digest.U64(c.census.outside);
    for (const auto& [dimm, count] : c.census.per_dimm) {
      digest.Str(dimm);
      digest.U64(count);
    }
    for (uint32_t group : c.census.groups_hit) {
      digest.U64(group);
    }
    digest.U64(c.audit_probes);
    outcome.digest = digest.Hex();
    return outcome;
  }

  std::string ShapeJson() const override {
    const BlacksmithConfig fuzz = CampaignConfig(inputs_);
    std::ostringstream out;
    out << "{\"platform\": \"table2-skylake\", \"rows_per_subarray\": 1024, \"dimms\": 6"
        << ", \"patterns\": " << fuzz.patterns << ", \"rounds\": " << fuzz.rounds
        << ", \"pairs\": [" << fuzz.min_pairs << ", " << fuzz.max_pairs << "]}";
    return out.str();
  }

 private:
  Inputs inputs_;
};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const Inputs& inputs) : inputs_(inputs) {}

  PassOutcome RunPass(uint32_t threads) const override {
    PassOutcome outcome;
    Result<FleetReport> report = RunFleetChurn(FleetShape(inputs_, threads));
    if (!report.ok()) {
      outcome.failures.push_back("fleet failed: " + report.error().ToString());
      return outcome;
    }
    outcome.operations = report->trace_vms;
    if (!report->drained_clean) {
      outcome.failures.push_back("fleet drain not clean: " + report->drain_diff);
    }
    if (report->migrations == 0 || report->recovered_bytes == 0) {
      outcome.failures.push_back("defrag recovered nothing: " +
                                 std::to_string(report->migrations) + " migrations, " +
                                 std::to_string(report->recovered_bytes) + " bytes");
    }
    Digest digest;
    digest.Str(report->ModelText());
    outcome.digest = digest.Hex();
    return outcome;
  }

  std::string ShapeJson() const override {
    const FleetConfig config = FleetShape(inputs_, 1);
    std::ostringstream out;
    out << "{\"policy\": \"" << AdmissionPolicyName(config.policy)
        << "\", \"sockets\": " << config.geometry.sockets
        << ", \"rows_per_bank\": " << config.geometry.rows_per_bank
        << ", \"duration_s\": " << config.duration_s
        << ", \"arrivals_per_s\": " << config.arrivals_per_s << ", \"lifetime_s\": ["
        << config.min_lifetime_s << ", " << config.max_lifetime_s << "]}";
    return out.str();
  }

 private:
  Inputs inputs_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, const Inputs& inputs) {
  if (name == "fig4-exec") {
    return std::make_unique<FigureWorkload>(false, inputs);
  }
  if (name == "fig5-tput") {
    return std::make_unique<FigureWorkload>(true, inputs);
  }
  if (name == "table3-contain") {
    return std::make_unique<TableThreeWorkload>(inputs);
  }
  if (name == "fleet-churn") {
    return std::make_unique<FleetWorkload>(inputs);
  }
  return nullptr;
}

}  // namespace perfbench
