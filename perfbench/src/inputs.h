// The workloads' inputs, shared by the timed passes and the layer probes so
// that both run on the same data.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/attack/blacksmith.h"
#include "src/sim/experiment.h"
#include "src/sim/fleet.h"

namespace perfbench {

// `base` at seed 42, a seed-dependent shift of it otherwise.
uint64_t SeedShift(const Inputs& inputs, uint64_t base);

// The Fig 4 (throughput = false) or Fig 5 grid: baseline and Siloz-1024 over
// the figure's workload set, 5 trials, at the committed benches' shape.
std::vector<siloz::GridPoint> FigureGrid(bool throughput, const Inputs& inputs);

// Table 3's six DIMM personalities and its Blacksmith campaign.
std::vector<siloz::DimmProfile> TableThreeDimms(const Inputs& inputs);
siloz::BlacksmithConfig CampaignConfig(const Inputs& inputs);

// The fleet-churn shape with the defrag policy.
siloz::FleetConfig FleetShape(const Inputs& inputs, uint32_t threads);

// One Table 3 pass: fresh fault-tracking machine and hypervisor, campaign,
// 24 h soak and patrol scrub, flip census, static audit of the plan.
struct CampaignOutcome {
  std::vector<siloz::PhysRange> pinned;  // the attacker VM's groups
  siloz::FuzzReport report;
  uint64_t scrubbed = 0;
  siloz::FlipCensus census;
  std::map<std::string, uint64_t> inside_per_dimm;
  uint64_t audit_findings = 0;
  uint64_t audit_probes = 0;
};
siloz::Result<CampaignOutcome> RunCampaign(const Inputs& inputs, uint32_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
