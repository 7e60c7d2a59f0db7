// Tests for the Blacksmith-style fuzzer (src/attack).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/attack/blacksmith.h"
#include "src/base/units.h"

namespace siloz {
namespace {

MachineConfig FaultConfig(bool trr_enabled = false) {
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 2500.0;
  profile.disturbance.threshold_spread = 0.15;
  profile.trr.enabled = trr_enabled;
  profile.trr.act_threshold = 400;
  config.dimm_profiles = {profile};
  return config;
}

BlacksmithConfig FastFuzz(uint64_t seed = 7) {
  BlacksmithConfig config;
  config.patterns = 4;
  config.rounds = 1200;
  config.min_pairs = 6;
  config.max_pairs = 12;
  config.seed = seed;
  return config;
}

TEST(BlacksmithTest, FindsFlipsWithinAccessibleRegion) {
  Machine machine(FaultConfig());
  // Attacker owns subarray group 3 of socket 0: phys [4.5 GiB, 6 GiB).
  const uint64_t group_bytes = machine.decoder().geometry().subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  BlacksmithFuzzer fuzzer(FastFuzz());
  const FuzzReport report = fuzzer.Run(machine, {&region, 1});
  EXPECT_GT(report.patterns_run, 0u);
  EXPECT_GT(report.activations, 0u);
  ASSERT_FALSE(report.flips.empty());
  // Physics: all flips stay inside the attacker's subarray group.
  for (const PhysFlip& flip : report.flips) {
    EXPECT_TRUE(region.Contains(flip.phys))
        << "flip at phys " << flip.phys << " escaped the subarray group";
  }
}

TEST(BlacksmithTest, DefeatsTrr) {
  // Many-sided patterns must produce flips even with TRR enabled (the
  // paper's premise: deployed mitigations are insufficient, §2.5).
  Machine machine(FaultConfig(/*trr_enabled=*/true));
  const uint64_t group_bytes = machine.decoder().geometry().subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  BlacksmithConfig config = FastFuzz(11);
  config.min_pairs = 10;  // enough sides to exhaust the tracker
  config.max_pairs = 16;
  config.patterns = 6;
  BlacksmithFuzzer fuzzer(config);
  const FuzzReport report = fuzzer.Run(machine, {&region, 1});
  EXPECT_FALSE(report.flips.empty()) << "fuzzer failed to bypass TRR";
}

TEST(BlacksmithTest, RowPressProducesFlips) {
  Machine machine(FaultConfig());
  const uint64_t group_bytes = machine.decoder().geometry().subarray_group_bytes();
  const PhysRange region{0, group_bytes};
  BlacksmithFuzzer fuzzer(FastFuzz(13));
  const FuzzReport report = fuzzer.RunRowPress(machine, {&region, 1});
  EXPECT_FALSE(report.flips.empty());
  for (const PhysFlip& flip : report.flips) {
    EXPECT_TRUE(region.Contains(flip.phys));
  }
}

TEST(BlacksmithTest, CensusClassifiesInsideOutside) {
  Machine machine(FaultConfig());
  SubarrayGroupMap map = *SubarrayGroupMap::Build(machine.decoder(), 1024);
  std::vector<PhysFlip> flips(3);
  flips[0].phys = 100;  // group 0
  flips[0].dimm_name = "A";
  flips[1].phys = 100 + map.group_bytes();  // group 1
  flips[1].dimm_name = "B";
  flips[2].phys = 200;  // group 0
  flips[2].dimm_name = "A";
  const PhysRange inside{0, map.group_bytes()};
  const FlipCensus census = ClassifyFlips(flips, map, {&inside, 1});
  EXPECT_EQ(census.inside, 2u);
  EXPECT_EQ(census.outside, 1u);
  EXPECT_EQ(census.per_dimm.at("A"), 2u);
  EXPECT_EQ(census.per_dimm.at("B"), 1u);
  EXPECT_EQ(census.groups_hit.size(), 2u);
}

// Every field of two flip lists, in order.
void ExpectSameFlips(const std::vector<PhysFlip>& actual, const std::vector<PhysFlip>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    const PhysFlip& a = actual[i];
    const PhysFlip& b = expected[i];
    SCOPED_TRACE("flip " + std::to_string(i));
    EXPECT_EQ(a.phys, b.phys);
    EXPECT_EQ(a.media.ToString(), b.media.ToString());
    EXPECT_EQ(a.record.rank, b.record.rank);
    EXPECT_EQ(a.record.bank, b.record.bank);
    EXPECT_EQ(a.record.media_row, b.record.media_row);
    EXPECT_EQ(a.record.internal_row, b.record.internal_row);
    EXPECT_EQ(a.record.side, b.record.side);
    EXPECT_EQ(a.record.byte_in_row, b.record.byte_in_row);
    EXPECT_EQ(a.record.bit_in_byte, b.record.bit_in_byte);
    EXPECT_EQ(a.record.time_ns, b.record.time_ns);
    EXPECT_EQ(a.dimm_name, b.dimm_name);
  }
}

void ExpectSameReport(const FuzzReport& actual, const FuzzReport& expected) {
  EXPECT_EQ(actual.patterns_run, expected.patterns_run);
  EXPECT_EQ(actual.activations, expected.activations);
  ExpectSameFlips(actual.flips, expected.flips);
}

TEST(BlacksmithTest, DeterministicForSeed) {
  const uint64_t group_bytes = DramGeometry{}.subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  auto run = [&](uint64_t seed) {
    Machine machine(FaultConfig());
    BlacksmithFuzzer fuzzer(FastFuzz(seed));
    return fuzzer.Run(machine, {&region, 1});
  };
  const FuzzReport a = run(21);
  const FuzzReport b = run(21);
  ASSERT_FALSE(a.flips.empty());
  ExpectSameReport(a, b);
  const FuzzReport c = run(22);
  EXPECT_NE(a.activations, c.activations);
}

// --- Per-DIMM campaign replay vs the serial reference ----------------------

// Table 3's six DIMM personalities (bench_table3_containment), TRR on.
std::vector<DimmProfile> TableThreeDimms() {
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
    dimm.disturbance.seed = 0x51102 + dimm.name[0];
    dimm.remap.vendor_scrambling = spec.scrambling;
    dimm.trr.enabled = true;
    dimm.trr.act_threshold = 400;
    dimms.push_back(dimm);
  }
  return dimms;
}

MachineConfig TableThreeMachine(uint32_t threads) {
  MachineConfig config;
  config.fault_tracking = true;
  config.dimm_profiles = TableThreeDimms();
  config.threads = threads;
  return config;
}

BlacksmithConfig CampaignFuzz() {
  BlacksmithConfig config;
  config.patterns = 10;
  config.rounds = 1500;
  config.min_pairs = 8;
  config.max_pairs = 16;
  config.seed = 0x7AB1E3;
  return config;
}

// One subarray group on each socket: patterns land on DIMMs of both.
std::vector<PhysRange> CampaignRegions() {
  const DramGeometry geometry;
  const uint64_t group = geometry.subarray_group_bytes();
  const uint64_t socket1 = geometry.socket_bytes();
  return {PhysRange{3 * group, 4 * group}, PhysRange{socket1 + 5 * group, socket1 + 6 * group}};
}

// Everything a campaign leaves behind: the report, the clock, every
// device's counters, then the 24 h soak's scrub count, late flips and
// post-scrub counters.
struct CampaignOutcome {
  FuzzReport report;
  uint64_t clock_ns = 0;
  std::vector<DeviceCounters> counters;
  uint64_t scrubbed = 0;
  std::vector<PhysFlip> late_flips;
  std::vector<DeviceCounters> soaked_counters;
};

std::vector<DeviceCounters> AllCounters(Machine& machine) {
  const DramGeometry& geometry = machine.config().geometry;
  std::vector<DeviceCounters> counters;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    for (uint32_t channel = 0; channel < geometry.channels_per_socket; ++channel) {
      for (uint32_t dimm = 0; dimm < geometry.dimms_per_channel; ++dimm) {
        counters.push_back(machine.device(socket, channel, dimm).counters());
      }
    }
  }
  return counters;
}

CampaignOutcome Finish(Machine& machine, FuzzReport report) {
  CampaignOutcome outcome;
  outcome.report = std::move(report);
  outcome.clock_ns = machine.clock_ns();
  outcome.counters = AllCounters(machine);
  machine.AdvanceClock(24ull * 3600 * 1'000'000'000);
  outcome.scrubbed = machine.PatrolScrubAll();
  outcome.late_flips = machine.DrainFlips();
  outcome.soaked_counters = AllCounters(machine);
  return outcome;
}

// The serial definition of a campaign: one ActivatePhys per scheduled ACT,
// one refresh window of AdvanceClock after each pattern.
CampaignOutcome SerialReference(const std::vector<PhysRange>& regions) {
  Machine machine(TableThreeMachine(1));
  BlacksmithFuzzer planner(CampaignFuzz());
  const std::vector<HammerBurst> bursts = planner.PlanCampaign(machine.decoder(), regions);
  FuzzReport report;
  for (const HammerBurst& burst : bursts) {
    EXPECT_EQ(burst.rounds, CampaignFuzz().rounds);
    EXPECT_EQ(burst.gap_ns, kRefreshWindowNs);
    std::vector<uint64_t> schedule;
    for (const MediaAddress& media : burst.schedule) {
      schedule.push_back(*machine.decoder().MediaToPhys(media));
    }
    for (uint32_t round = 0; round < burst.rounds; ++round) {
      for (uint64_t phys : schedule) {
        machine.ActivatePhys(phys);
        ++report.activations;
      }
    }
    machine.AdvanceClock(kRefreshWindowNs);
    ++report.patterns_run;
  }
  report.flips = machine.DrainFlips();
  return Finish(machine, std::move(report));
}

TEST(CampaignDeterminismTest, PerDimmReplayMatchesSerialReference) {
  const std::vector<PhysRange> regions = CampaignRegions();
  const CampaignOutcome reference = SerialReference(regions);
  ASSERT_EQ(reference.report.patterns_run, CampaignFuzz().patterns);
  ASSERT_FALSE(reference.report.flips.empty());
  // The campaign must exercise the fan-out: flips on several DIMMs of both
  // sockets, and TRR actually refreshing victims.
  std::set<std::string> dimms;
  std::set<uint32_t> sockets;
  for (const PhysFlip& flip : reference.report.flips) {
    dimms.insert(flip.dimm_name);
    sockets.insert(flip.media.socket);
  }
  EXPECT_GE(dimms.size(), 3u);
  EXPECT_EQ(sockets.size(), 2u);
  uint64_t trr_refreshes = 0;
  for (const DeviceCounters& counters : reference.counters) {
    trr_refreshes += counters.trr_victim_refreshes;
  }
  EXPECT_GT(trr_refreshes, 0u);

  for (uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Machine machine(TableThreeMachine(threads));
    const CampaignOutcome outcome =
        Finish(machine, BlacksmithFuzzer(CampaignFuzz()).Run(machine, regions));
    ExpectSameReport(outcome.report, reference.report);
    EXPECT_EQ(outcome.clock_ns, reference.clock_ns);
    ASSERT_EQ(outcome.counters.size(), reference.counters.size());
    for (size_t d = 0; d < outcome.counters.size(); ++d) {
      EXPECT_TRUE(outcome.counters[d] == reference.counters[d]) << "device " << d;
      EXPECT_TRUE(outcome.soaked_counters[d] == reference.soaked_counters[d]) << "device " << d;
    }
    EXPECT_EQ(outcome.scrubbed, reference.scrubbed);
    ExpectSameFlips(outcome.late_flips, reference.late_flips);
  }
}

TEST(BlacksmithTest, HammerPhysAddressesCountsActs) {
  Machine machine(FaultConfig());
  const uint64_t stride = machine.decoder().geometry().row_group_bytes() * 32;
  const uint64_t aggressors[] = {0, stride};
  EXPECT_EQ(HammerPhysAddresses(machine, aggressors, 100), 200u);
}

}  // namespace
}  // namespace siloz
