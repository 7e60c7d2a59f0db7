// Tests for sim::Machine composition (src/sim/machine.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/sim/machine.h"

namespace siloz {
namespace {

MachineConfig FaultConfig() {
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 3000.0;
  profile.disturbance.threshold_spread = 0.1;
  profile.trr.enabled = false;
  config.dimm_profiles = {profile};
  return config;
}

TEST(MachineTest, TimingModeHasControllersAndFlatMemory) {
  MachineConfig config;
  Machine machine(config);
  EXPECT_FALSE(machine.fault_tracking());
  EXPECT_EQ(machine.controllers().size(), 2u);
  machine.phys_memory().WriteU64(1_GiB, 42);
  EXPECT_EQ(machine.phys_memory().ReadU64(1_GiB), 42u);
}

TEST(MachineTest, DramBackedMemoryRoundTrips) {
  Machine machine(FaultConfig());
  // Spans multiple cache lines, rows, channels, and devices.
  std::vector<uint8_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  const uint64_t probes[] = {0, 100_MiB + 24, 191_GiB, 300_GiB};
  for (uint64_t phys : probes) {
    machine.phys_memory().WritePhys(phys, data);
    std::vector<uint8_t> out(data.size());
    machine.phys_memory().ReadPhys(phys, out);
    EXPECT_EQ(out, data) << "at phys " << phys;
  }
}

TEST(MachineTest, DramBackedMemoryDefaultsZero) {
  Machine machine(FaultConfig());
  EXPECT_EQ(machine.phys_memory().ReadU64(17_GiB + 8), 0u);
}

TEST(MachineTest, ActivatePhysAdvancesClockAndCountsActs) {
  Machine machine(FaultConfig());
  const uint64_t start = machine.clock_ns();
  machine.ActivatePhys(0);
  machine.ActivatePhys(100_MiB);  // different row
  EXPECT_EQ(machine.clock_ns(), start + 2 * machine.config().act_cost_ns);
  // The ACT landed on the device the decoder says it should.
  const MediaAddress media = *machine.decoder().PhysToMedia(0);
  EXPECT_GE(machine.device(media.socket, media.channel, media.dimm).counters().activates, 1u);
}

TEST(MachineTest, HammeringViaPhysProducesPhysResolvedFlips) {
  Machine machine(FaultConfig());
  // Alternate two same-bank rows to force real ACTs.
  const uint64_t row_stride = machine.decoder().geometry().row_group_bytes() * 32;
  for (int i = 0; i < 10000; ++i) {
    machine.ActivatePhys(i % 2 == 0 ? 0 : row_stride);
  }
  std::vector<PhysFlip> flips = machine.DrainFlips();
  ASSERT_FALSE(flips.empty());
  for (const PhysFlip& flip : flips) {
    // The resolved phys must decode back to the flip's media coordinates.
    const MediaAddress media = *machine.decoder().PhysToMedia(flip.phys);
    EXPECT_EQ(media.row, flip.record.media_row);
    EXPECT_EQ(media.rank, flip.record.rank);
    EXPECT_EQ(media.bank, flip.record.bank);
    EXPECT_EQ(media.socket, flip.media.socket);
  }
  // Drain clears.
  EXPECT_TRUE(machine.DrainFlips().empty());
}

TEST(MachineTest, DimmProfilesCycleAcrossDevices) {
  MachineConfig config = FaultConfig();
  config.dimm_profiles.clear();
  for (const char* name : {"A", "B", "C", "D", "E", "F"}) {
    DimmProfile profile;
    profile.name = name;
    config.dimm_profiles.push_back(profile);
  }
  Machine machine(config);
  EXPECT_EQ(machine.device(0, 0, 0).name(), "A");
  EXPECT_EQ(machine.device(0, 5, 0).name(), "F");
  EXPECT_EQ(machine.device(1, 0, 0).name(), "A");  // cycles per socket
}

TEST(MachineTest, PatrolScrubRepairsInjectedSingleFlips) {
  Machine machine(FaultConfig());
  machine.phys_memory().WriteU64(64_MiB, 0xAAAAAAAAAAAAAAAAull);
  const MediaAddress media = *machine.decoder().PhysToMedia(64_MiB);
  machine.device(media.socket, media.channel, media.dimm)
      .InjectFlip(media.rank, media.bank, media.row, media.column, 0, machine.clock_ns());
  machine.AdvanceClock(1000);
  EXPECT_EQ(machine.PatrolScrubAll(), 1u);
  EXPECT_EQ(machine.phys_memory().ReadU64(64_MiB), 0xAAAAAAAAAAAAAAAAull);
}

// RunHammerBursts fans the replay out per DIMM; it must leave exactly the
// state of the serial ActivatePhys/AdvanceClock loop, for bursts spanning
// several devices, back-to-back bursts (gap 0), and a gap long enough to
// hit DramDevice::AdvanceTo's per-call REF-tick clamp.
TEST(MachineTest, HammerBurstsMatchSerialLoop) {
  // Even device indices refresh victims through TRR, odd ones flip.
  MachineConfig config = FaultConfig();
  config.dimm_profiles[0].disturbance.threshold_mean = 1500.0;
  config.dimm_profiles.push_back(config.dimm_profiles[0]);
  config.dimm_profiles[0].trr.enabled = true;
  config.dimm_profiles[0].trr.act_threshold = 400;
  auto media = [](uint32_t socket, uint32_t channel, uint32_t bank, uint32_t row) {
    MediaAddress address;
    address.socket = socket;
    address.channel = channel;
    address.bank = bank;
    address.row = row;
    return address;
  };
  std::vector<HammerBurst> bursts(4);
  bursts[0].schedule = {media(0, 0, 1, 100), media(0, 3, 2, 200), media(0, 0, 1, 102),
                        media(0, 3, 2, 202), media(1, 5, 7, 300), media(1, 5, 7, 302)};
  bursts[0].rounds = 3000;
  bursts[0].gap_ns = kRefreshWindowNs;
  bursts[1].schedule = {media(0, 3, 4, 500), media(0, 3, 4, 502)};
  bursts[1].rounds = 500;
  bursts[1].gap_ns = 0;
  bursts[2].schedule = bursts[0].schedule;
  bursts[2].rounds = 2000;
  bursts[2].gap_ns = 2'000'000'000;  // > 65536 tREFI
  bursts[3].schedule = {media(1, 0, 0, 700), media(0, 0, 1, 101), media(1, 0, 0, 702)};
  bursts[3].rounds = 2500;
  bursts[3].gap_ns = 5'000;

  struct Outcome {
    uint64_t acts = 0;
    uint64_t clock_ns = 0;
    std::vector<DeviceCounters> counters;
    std::vector<PhysFlip> flips;
  };
  auto finish = [](Machine& machine, uint64_t acts) {
    Outcome outcome;
    outcome.acts = acts;
    outcome.clock_ns = machine.clock_ns();
    for (uint32_t socket = 0; socket < 2; ++socket) {
      for (uint32_t channel = 0; channel < 6; ++channel) {
        outcome.counters.push_back(machine.device(socket, channel, 0).counters());
      }
    }
    outcome.flips = machine.DrainFlips();
    return outcome;
  };

  config.threads = 1;
  Machine serial(config);
  serial.AdvanceClock(12'345);  // start off the zero clock
  uint64_t serial_acts = 0;
  for (const HammerBurst& burst : bursts) {
    for (uint32_t round = 0; round < burst.rounds; ++round) {
      for (const MediaAddress& address : burst.schedule) {
        serial.ActivatePhys(*serial.decoder().MediaToPhys(address));
        ++serial_acts;
      }
    }
    serial.AdvanceClock(burst.gap_ns);
  }
  const Outcome expected = finish(serial, serial_acts);
  ASSERT_FALSE(expected.flips.empty());
  uint64_t trr_refreshes = 0;
  for (const DeviceCounters& counters : expected.counters) {
    trr_refreshes += counters.trr_victim_refreshes;
  }
  EXPECT_GT(trr_refreshes, 0u);

  for (uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config.threads = threads;
    Machine machine(config);
    machine.AdvanceClock(12'345);
    const Outcome actual = finish(machine, machine.RunHammerBursts(bursts));
    EXPECT_EQ(actual.acts, expected.acts);
    EXPECT_EQ(actual.clock_ns, expected.clock_ns);
    for (size_t d = 0; d < expected.counters.size(); ++d) {
      EXPECT_TRUE(actual.counters[d] == expected.counters[d]) << "device " << d;
    }
    ASSERT_EQ(actual.flips.size(), expected.flips.size());
    for (size_t i = 0; i < expected.flips.size(); ++i) {
      EXPECT_EQ(actual.flips[i].phys, expected.flips[i].phys) << i;
      EXPECT_EQ(actual.flips[i].record.time_ns, expected.flips[i].record.time_ns) << i;
      EXPECT_EQ(actual.flips[i].record.internal_row, expected.flips[i].record.internal_row) << i;
      EXPECT_EQ(actual.flips[i].dimm_name, expected.flips[i].dimm_name) << i;
    }
  }
}

TEST(MachineTest, LinearAndSncDecodersSelectable) {
  MachineConfig config;
  config.decoder = DecoderKind::kLinear;
  Machine linear(config);
  EXPECT_EQ(linear.decoder().name(), "linear");
  config.decoder = DecoderKind::kSnc2;
  Machine snc(config);
  EXPECT_EQ(snc.decoder().name(), "snc2");
  EXPECT_EQ(snc.decoder().clusters_per_socket(), 2u);
}

}  // namespace
}  // namespace siloz
