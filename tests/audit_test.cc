// Tests for the static isolation-domain analyzer (src/audit).
//
// The positive case proves all four invariants on the paper's dual-socket
// evaluation platform; the negative cases corrupt one layer each (decoder
// mapping jump, decoder inverse, guard-band geometry, presumed subarray
// size) and require the auditor to produce findings with correct decoded
// coordinates for exactly the violated invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "src/addr/decoder.h"
#include "src/audit/auditor.h"
#include "src/audit/corrupt_decoder.h"
#include "src/base/units.h"
#include "src/dram/remap.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

using audit::Auditor;
using audit::CorruptedDecoder;
using audit::Corruption;
using audit::Finding;
using audit::Invariant;
using audit::Options;
using audit::Report;

// Fast-but-representative probing for unit tests: every pass still runs, the
// physical sweeps just stride coarsely.
Options TestOptions() {
  Options options;
  options.probe_stride = 16_MiB;
  options.random_probes = 256;
  return options;
}

uint64_t Violations(const Report& report, Invariant invariant) {
  return report.StatsFor(invariant).violations;
}

std::vector<Finding> FindingsOf(const Report& report, Invariant invariant) {
  std::vector<Finding> result;
  for (const Finding& finding : report.findings) {
    if (finding.invariant == invariant) {
      result.push_back(finding);
    }
  }
  return result;
}

TEST(AuditorTest, DefaultPlatformUpholdsAllInvariants) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  Result<Report> report = audit::AuditPlatform(decoder, SilozConfig{}, RemapConfig{},
                                               TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  // Every invariant must actually have run and probed something.
  for (Invariant invariant :
       {Invariant::kDecoderInvertibility, Invariant::kDomainClosure, Invariant::kGuardFencing,
        Invariant::kBlastRadius}) {
    EXPECT_TRUE(report->StatsFor(invariant).ran);
    EXPECT_GT(report->StatsFor(invariant).probes, 0u);
  }
}

TEST(AuditorTest, SncPlatformUpholdsAllInvariants) {
  DramGeometry geometry;
  SncDecoder decoder(geometry, 2);
  Result<Report> report = audit::AuditPlatform(decoder, SilozConfig{}, RemapConfig{},
                                               TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
}

TEST(AuditorTest, Ddr5PlatformUpholdsAllInvariants) {
  DramGeometry geometry = Ddr5Geometry();
  SkylakeDecoder decoder(geometry);
  SilozConfig config;
  config.uniform_internal_addressing = true;
  Result<Report> report =
      audit::AuditPlatform(decoder, config, Ddr5RemapConfig(), TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
}

TEST(AuditorTest, VendorScramblingStillUpholdsInvariants) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  RemapConfig remap;
  remap.vendor_scrambling = true;
  Result<Report> report = audit::AuditPlatform(decoder, SilozConfig{}, remap, TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
}

TEST(AuditorTest, BaselineModeIsRejected) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  SilozConfig config;
  config.enabled = false;
  Result<Report> report = audit::AuditPlatform(decoder, config, RemapConfig{}, TestOptions());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kInvalidArgument);
}

// Negative case 1a: the machine's mapping jumps land one region off from
// what the hypervisor assumed at boot. Still a bijection, so invertibility
// holds — but half of all pages decode into the neighbouring subarray group,
// which domain closure must catch.
TEST(AuditorTest, ShiftedMappingJumpBreaksDomainClosure) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  CorruptedDecoder truth(decoder, Corruption::kShiftedJump, decoder.region_bytes());
  Result<Report> report = audit::AuditProvisioningPlan(decoder, truth, SilozConfig{},
                                                       RemapConfig{}, TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->ok());
  EXPECT_EQ(Violations(*report, Invariant::kDecoderInvertibility), 0u);
  EXPECT_GT(Violations(*report, Invariant::kDomainClosure), 0u);

  // Verify the finding's decoded coordinates against the corrupted truth:
  // the reported media address must be what the "real machine" serves at the
  // reported physical address, and its subarray must disagree with the one
  // the provisioning plan assumed (the intact decoder's view).
  const std::vector<Finding> findings = FindingsOf(*report, Invariant::kDomainClosure);
  ASSERT_FALSE(findings.empty());
  for (const Finding& finding : findings) {
    const MediaAddress real = *truth.PhysToMedia(finding.phys);
    EXPECT_EQ(real, finding.media) << finding.ToString();
    const MediaAddress assumed = *decoder.PhysToMedia(finding.phys);
    EXPECT_NE(SubarrayOfRow(geometry, assumed.row), SubarrayOfRow(geometry, real.row))
        << finding.ToString();
  }
}

// Negative case 1b: the forward map is fine but the inverse is off by one
// page — invertibility must fail, pinned to the exact mismatching address.
TEST(AuditorTest, BrokenInverseBreaksInvertibility) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  CorruptedDecoder truth(decoder, Corruption::kBrokenInverse, decoder.region_bytes());
  Result<Report> report = audit::AuditProvisioningPlan(decoder, truth, SilozConfig{},
                                                       RemapConfig{}, TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->ok());
  EXPECT_GT(Violations(*report, Invariant::kDecoderInvertibility), 0u);

  const std::vector<Finding> findings = FindingsOf(*report, Invariant::kDecoderInvertibility);
  ASSERT_FALSE(findings.empty());
  for (const Finding& finding : findings) {
    // The decoded coordinates must genuinely round-trip to a different page.
    const Result<MediaAddress> media = truth.PhysToMedia(finding.phys);
    if (media.ok()) {
      EXPECT_NE(*truth.MediaToPhys(*media), finding.phys) << finding.ToString();
    }
  }
}

// Negative case 2: a guard band of one row cannot absorb a distance-2 blast
// radius — guard fencing must fail on rows adjacent to the EPT row.
TEST(AuditorTest, UndersizedGuardBandBreaksGuardFencing) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  SilozConfig config;
  config.ept_block_row_groups = 2;
  config.ept_row_group_offset = 1;
  Result<Report> report = audit::AuditPlatform(decoder, config, RemapConfig{}, TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->ok());
  EXPECT_GT(Violations(*report, Invariant::kGuardFencing), 0u);
  // The shrunken guard band is a fencing defect, not a decoding one.
  EXPECT_EQ(Violations(*report, Invariant::kDecoderInvertibility), 0u);
  EXPECT_EQ(Violations(*report, Invariant::kDomainClosure), 0u);

  // Each finding must name an allocatable row within blast radius of the EPT
  // row in internal space.
  const std::vector<Finding> findings = FindingsOf(*report, Invariant::kGuardFencing);
  ASSERT_FALSE(findings.empty());
  for (const Finding& finding : findings) {
    const MediaAddress media = *decoder.PhysToMedia(finding.phys);
    EXPECT_EQ(media, finding.media) << finding.ToString();
    RowRemapper remapper(geometry, RemapConfig{});
    // The reported internal row is a genuine neighbour of the reported
    // media row's internal image on at least one rank/side.
    bool adjacent = false;
    for (uint32_t rank = 0; rank < geometry.ranks_per_dimm; ++rank) {
      for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
        const uint32_t internal = remapper.ToInternal(media.row, rank, media.bank, side);
        adjacent |= internal == finding.internal_row;
      }
    }
    EXPECT_TRUE(adjacent) << finding.ToString();
  }
}

// Negative case 3: Siloz booted believing subarrays have 512 rows, but the
// silicon uses 1024 — domains tile at half the true subarray size, so
// disturbance crosses logical-node boundaries inside one silicon subarray.
TEST(AuditorTest, WrongPresumedSubarraySizeBreaksBlastRadius) {
  DramGeometry geometry;
  geometry.rows_per_subarray = 512;
  SkylakeDecoder decoder(geometry);
  SilozConfig config;
  config.rows_per_subarray = 512;
  Options options = TestOptions();
  options.silicon_rows_per_subarray = 1024;
  Result<Report> report = audit::AuditPlatform(decoder, config, RemapConfig{}, options);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->ok());
  EXPECT_GT(Violations(*report, Invariant::kBlastRadius), 0u);
  // The plan itself is consistent at the presumed size.
  EXPECT_EQ(Violations(*report, Invariant::kDomainClosure), 0u);
  EXPECT_EQ(Violations(*report, Invariant::kDecoderInvertibility), 0u);

  // Findings sit at a 512-row domain boundary interior to a 1024-row silicon
  // subarray: the neighbour's presumed group differs from the row's.
  const std::vector<Finding> findings = FindingsOf(*report, Invariant::kBlastRadius);
  ASSERT_FALSE(findings.empty());
  for (const Finding& finding : findings) {
    EXPECT_NE(finding.group, Finding::kNoGroup);
    // Internal neighbour distance is within the blast radius of the
    // reported row's internal image inside the true silicon subarray.
    EXPECT_EQ(finding.internal_row / 1024,
              RowRemapper(geometry, RemapConfig{})
                      .ToInternal(finding.media.row, finding.media.rank, finding.media.bank,
                                  HalfRowSide::kA) /
                  1024)
        << finding.ToString();
  }
}

// And the same misconfiguration in the other direction is safe: presuming
// 1024-row subarrays on 512-row silicon over-isolates but never leaks.
TEST(AuditorTest, OverestimatedSubarraySizeStillContains) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  Options options = TestOptions();
  options.silicon_rows_per_subarray = 512;
  Result<Report> report = audit::AuditPlatform(decoder, SilozConfig{}, RemapConfig{}, options);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
}

TEST(AuditorTest, SecureEptModeSkipsGuardFencing) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  SilozConfig config;
  config.ept_protection = EptProtection::kSecureEpt;
  Result<Report> report = audit::AuditPlatform(decoder, config, RemapConfig{}, TestOptions());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_FALSE(report->StatsFor(Invariant::kGuardFencing).ran);
  EXPECT_NE(report->ToText().find("skipped"), std::string::npos);
}

// --- Live-VM containment pass ---

TEST(AuditorTest, VmContainmentPassesForHealthyVm) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  ASSERT_TRUE(hypervisor.Boot().ok());
  const VmId vm = *hypervisor.CreateVm({.name = "tenant", .memory_bytes = 3_GiB});

  Auditor auditor(hypervisor, RemapConfig{}, TestOptions());
  Report report;
  auditor.CheckVmContainment(**hypervisor.GetVm(vm), report);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_GT(report.StatsFor(Invariant::kDomainClosure).probes, 0u);
}

TEST(AuditorTest, VmContainmentCatchesHammeredPte) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  ASSERT_TRUE(hypervisor.Boot().ok());
  const VmId vm = *hypervisor.CreateVm({.name = "tenant", .memory_bytes = 3_GiB});
  Vm& tenant = **hypervisor.GetVm(vm);
  // Flip a frame bit in a leaf PTE, as a successful Rowhammer attack would.
  memory.FlipBit(tenant.ept()->table_pages().back() + 4, 2);

  Auditor auditor(hypervisor, RemapConfig{}, TestOptions());
  Report report;
  auditor.CheckVmContainment(tenant, report);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(Violations(report, Invariant::kDomainClosure), 0u);
}

// --- Report formatting ---

TEST(ReportTest, TextAndJsonRoundTripKeyFacts) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  SilozConfig config;
  config.ept_block_row_groups = 2;
  config.ept_row_group_offset = 1;
  Result<Report> report = audit::AuditPlatform(decoder, config, RemapConfig{}, TestOptions());
  ASSERT_TRUE(report.ok());
  const std::string text = report->ToText();
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("guard-fencing"), std::string::npos);
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"invariant\":\"guard-fencing\""), std::string::npos);
  // Balanced braces as a cheap structural sanity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ReportTest, FindingCapSuppressesButCounts) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  CorruptedDecoder truth(decoder, Corruption::kBrokenInverse, decoder.region_bytes());
  Options options = TestOptions();
  options.max_findings_per_invariant = 3;
  Result<Report> report =
      audit::AuditProvisioningPlan(decoder, truth, SilozConfig{}, RemapConfig{}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(FindingsOf(*report, Invariant::kDecoderInvertibility).size(), 3u);
  EXPECT_GT(report->suppressed, 0u);
  EXPECT_GT(Violations(*report, Invariant::kDecoderInvertibility), 3u);
}

// --- Sharded scans: one report for every thread count ----------------------

void ExpectSameAuditReport(const Report& actual, const Report& expected) {
  EXPECT_EQ(actual.ToText(), expected.ToText());
  EXPECT_EQ(actual.ToJson(), expected.ToJson());
  ASSERT_EQ(actual.findings.size(), expected.findings.size());
  for (size_t i = 0; i < actual.findings.size(); ++i) {
    const Finding& a = actual.findings[i];
    const Finding& b = expected.findings[i];
    SCOPED_TRACE("finding " + std::to_string(i));
    EXPECT_EQ(a.invariant, b.invariant);
    EXPECT_EQ(a.phys, b.phys);
    EXPECT_EQ(a.media, b.media);
    EXPECT_EQ(a.internal_row, b.internal_row);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.detail, b.detail);
  }
  for (Invariant invariant : {Invariant::kDecoderInvertibility, Invariant::kDomainClosure,
                              Invariant::kGuardFencing, Invariant::kBlastRadius}) {
    SCOPED_TRACE(audit::InvariantName(invariant));
    EXPECT_EQ(actual.StatsFor(invariant).probes, expected.StatsFor(invariant).probes);
    EXPECT_EQ(actual.StatsFor(invariant).violations, expected.StatsFor(invariant).violations);
    EXPECT_EQ(actual.StatsFor(invariant).ran, expected.StatsFor(invariant).ran);
  }
  EXPECT_EQ(actual.suppressed, expected.suppressed);
}

struct ShardedCase {
  const char* name;
  std::optional<Corruption> corruption;
  size_t max_findings;
  Invariant violated;  // the invariant the case must trip (if corrupted)
  uint64_t stride;
};

// Invertibility and closure at 1, 2 and 8 workers, on the intact platform
// and under the corrupted-decoder negative controls, with the finding cap
// both binding and not: the sharded scans must reproduce the serial
// report's findings, their order, every counter, and the suppression count.
TEST(AuditDeterminismTest, ShardedInvertibilityAndClosureMatchSerial) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  ASSERT_TRUE(hypervisor.Boot().ok());
  const ShardedCase cases[] = {
      // 128 KiB: a 1.5 GiB node range holds 12288 strided probes, so it
      // splits into two closure slices (8192 per slice).
      {"intact", std::nullopt, 16, Invariant::kDecoderInvertibility, 128_KiB},
      // 4 MiB: ~100K strided probes, a dozen invertibility slices.
      {"shifted-jump", Corruption::kShiftedJump, 16, Invariant::kDomainClosure, 4_MiB},
      {"shifted-jump cap 3", Corruption::kShiftedJump, 3, Invariant::kDomainClosure, 4_MiB},
      {"broken-inverse", Corruption::kBrokenInverse, 16, Invariant::kDecoderInvertibility,
       4_MiB},
      {"broken-inverse cap 1", Corruption::kBrokenInverse, 1, Invariant::kDecoderInvertibility,
       4_MiB},
      // ~8% of closure probes violate here, so 2000 kept findings come from
      // several shards and the cap binds mid-merge.
      {"shifted-jump cap 2000", Corruption::kShiftedJump, 2000, Invariant::kDomainClosure,
       4_MiB},
  };
  for (const ShardedCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::optional<CorruptedDecoder> corrupted;
    if (c.corruption.has_value()) {
      corrupted.emplace(decoder, *c.corruption, decoder.region_bytes());
    }
    const AddressDecoder& truth =
        corrupted.has_value() ? static_cast<const AddressDecoder&>(*corrupted) : decoder;
    auto run = [&](uint32_t threads) {
      Options options = TestOptions();
      options.probe_stride = c.stride;
      options.max_findings_per_invariant = c.max_findings;
      options.threads = threads;
      const Auditor auditor(hypervisor, truth, RemapConfig{}, options);
      Report report;
      auditor.CheckDecoderInvertibility(report);
      auditor.CheckDomainClosure(report);
      return report;
    };
    const Report serial = run(1);
    // The serial probe plan, counted independently of the shards: strided
    // sweep + last line + random fill + the media sweep (4-8 distinct rows
    // per bank, two columns each) ...
    const uint64_t stride = c.stride;
    const uint64_t media_points = static_cast<uint64_t>(geometry.sockets) *
                                  geometry.channels_per_socket * geometry.dimms_per_channel *
                                  geometry.ranks_per_dimm * geometry.banks_per_rank * 2;
    const uint64_t phys_points = geometry.total_bytes() / stride + 1 + TestOptions().random_probes;
    EXPECT_GE(serial.StatsFor(Invariant::kDecoderInvertibility).probes,
              phys_points + 4 * media_points);
    EXPECT_LE(serial.StatsFor(Invariant::kDecoderInvertibility).probes,
              phys_points + 8 * media_points);
    // ... and per node range: strided pages + last line + 16 random, then
    // every row of every rank and side through the remap chain.
    uint64_t closure_probes =
        static_cast<uint64_t>(geometry.ranks_per_dimm) * 2 * geometry.rows_per_bank;
    for (const NumaNode* node : hypervisor.nodes().AllNodes()) {
      for (const PhysRange& range : node->ranges()) {
        closure_probes += (range.size() + stride - 1) / stride + 17;
      }
    }
    EXPECT_EQ(serial.StatsFor(Invariant::kDomainClosure).probes, closure_probes);
    EXPECT_GT(closure_probes, 3 * 8192u);
    if (c.corruption.has_value()) {
      EXPECT_GT(Violations(serial, c.violated), c.max_findings);
      const std::vector<Finding> kept = FindingsOf(serial, c.violated);
      EXPECT_EQ(kept.size(), c.max_findings);
      if (c.violated == Invariant::kDecoderInvertibility) {
        // Every probe violates, so the kept findings are the first strided
        // probes, in sweep order.
        for (size_t i = 0; i < kept.size(); ++i) {
          EXPECT_EQ(kept[i].phys, i * stride) << i;
        }
      }
      if (c.max_findings == 2000) {
        // Kept findings name several nodes: a shard never spans two node
        // ranges, so they come from several shards.
        std::set<std::string> nodes;
        for (const Finding& finding : kept) {
          nodes.insert(finding.detail.substr(0, finding.detail.find(" decodes")));
        }
        EXPECT_GE(nodes.size(), 2u);
      }
    } else {
      EXPECT_TRUE(serial.ok()) << serial.ToText();
    }
    for (uint32_t threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectSameAuditReport(run(threads), serial);
    }
  }
}


// The sharded scans build only the findings the report keeps (a counting
// pass, then a re-scan of the shards that contribute), so the cap must
// still select the serial scan's first findings: at caps 1, the default
// and 20000, and at 1 and 4 workers, the report bytes do not depend on the
// worker count, the counters do not depend on the cap, and each cap's
// findings are the larger cap's findings up to that cap per invariant.
TEST(AuditDeterminismTest, FindingCapKeepsTheSerialFirstFindingsAtAnyWorkerCount) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  const size_t kCaps[] = {1, Options{}.max_findings_per_invariant, 20000};
  for (Corruption corruption : {Corruption::kBrokenInverse, Corruption::kShiftedJump}) {
    CorruptedDecoder truth(decoder, corruption, decoder.region_bytes());
    SCOPED_TRACE(CorruptionName(corruption));
    auto run = [&](size_t cap, uint32_t threads) {
      Options options = TestOptions();
      options.max_findings_per_invariant = cap;
      options.threads = threads;
      Result<Report> report =
          audit::AuditProvisioningPlan(decoder, truth, SilozConfig{}, RemapConfig{}, options);
      EXPECT_TRUE(report.ok());
      return report.ok() ? *report : Report{};
    };
    const Report widest = run(kCaps[2], 1);
    ASSERT_FALSE(widest.ok());
    if (corruption == Corruption::kBrokenInverse) {
      // Every invertibility probe violates: the cap binds inside the fold.
      EXPECT_GT(Violations(widest, Invariant::kDecoderInvertibility), kCaps[2]);
    }
    for (size_t cap : kCaps) {
      SCOPED_TRACE("cap=" + std::to_string(cap));
      const Report serial = run(cap, 1);
      ExpectSameAuditReport(run(cap, 4), serial);
      uint64_t violations = 0;
      for (size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(serial.stats[k].probes, widest.stats[k].probes);
        EXPECT_EQ(serial.stats[k].violations, widest.stats[k].violations);
        EXPECT_EQ(serial.stats[k].kept, std::min<uint64_t>(cap, widest.stats[k].violations));
        violations += serial.stats[k].violations;
      }
      std::vector<std::string> expected;
      uint64_t taken[4] = {};
      for (const Finding& finding : widest.findings) {
        if (taken[static_cast<size_t>(finding.invariant)]++ < cap) {
          expected.push_back(finding.ToString());
        }
      }
      std::vector<std::string> actual;
      for (const Finding& finding : serial.findings) {
        actual.push_back(finding.ToString());
      }
      EXPECT_EQ(actual, expected);
      EXPECT_EQ(serial.suppressed, violations - serial.findings.size());
    }
  }
}

}  // namespace
}  // namespace siloz
