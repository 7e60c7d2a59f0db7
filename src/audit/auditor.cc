#include "src/audit/auditor.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/hostmem/buddy.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz::audit {
namespace {

// Strided probes per shard of the invertibility and closure sweeps: under a
// millisecond of work, and enough shards to balance any worker count. A
// constant, not derived from the worker count, so every --threads value
// scans the same shards.
constexpr uint64_t kProbesPerShard = 8192;

std::string Hex(uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

}  // namespace

Auditor::Auditor(const SilozHypervisor& hypervisor, const AddressDecoder& truth,
                 const RemapConfig& remap, Options options)
    : hypervisor_(hypervisor),
      truth_(truth),
      remapper_(truth.geometry(), remap),
      options_(options),
      effective_rows_(hypervisor.effective_rows_per_subarray()),
      silicon_rows_(options.silicon_rows_per_subarray != 0 ? options.silicon_rows_per_subarray
                                                           : hypervisor.effective_rows_per_subarray()) {
  SILOZ_CHECK(hypervisor_.booted()) << "the audit inspects a boot-time plan; call Boot() first";
  SILOZ_CHECK_GT(options_.blast_radius, 0u);
  SILOZ_CHECK_GT(options_.probe_stride, 0u);
  nodes_by_id_ = hypervisor_.nodes().AllNodes();
}

Auditor::Auditor(const SilozHypervisor& hypervisor, const RemapConfig& remap, Options options)
    : Auditor(hypervisor, hypervisor.decoder(), remap, options) {}

Report Auditor::Run() const {
  obs::TraceSpan span("audit.Run");
  Report report;
  CheckDecoderInvertibility(report);
  // The remaining invariants are statements about the Siloz provisioning
  // plan; a baseline-mode hypervisor has no subarray-group plan to audit.
  if (hypervisor_.config().enabled) {
    CheckDomainClosure(report);
    CheckGuardFencing(report);
    CheckBlastRadius(report);
  }
  // Probe census per invariant. Probe counts depend only on geometry and
  // options, never on scheduling, so these counters join the determinism
  // contract alongside the report bytes.
  obs::Registry& registry = obs::Registry::Global();
  for (Invariant invariant :
       {Invariant::kDecoderInvertibility, Invariant::kDomainClosure, Invariant::kGuardFencing,
        Invariant::kBlastRadius}) {
    const InvariantStats& stats = report.StatsFor(invariant);
    if (!stats.ran) {
      continue;
    }
    const std::string name = InvariantName(invariant);
    registry.GetCounter("audit.probes." + name).Add(stats.probes);
    if (stats.violations > 0) {
      registry.GetCounter("audit.violations." + name).Add(stats.violations);
    }
  }
  return report;
}

Result<uint32_t> Auditor::GroupOfRow(uint32_t socket, uint32_t cluster, uint32_t row) const {
  return hypervisor_.group_map().GroupAt(socket, cluster, row / effective_rows_);
}

Result<Auditor::RowStatus> Auditor::StatusOfRow(uint32_t socket, uint32_t cluster, uint32_t rank,
                                                uint32_t row) const {
  const DramGeometry& geom = truth_.geometry();
  Result<uint32_t> group = GroupOfRow(socket, cluster, row);
  SILOZ_RETURN_IF_ERROR(group);
  Result<uint32_t> node_id = hypervisor_.NodeOfGroup(*group);
  SILOZ_RETURN_IF_ERROR(node_id);
  SILOZ_CHECK_LT(*node_id, nodes_by_id_.size());
  const NumaNode* node = nodes_by_id_[*node_id];

  // Representative page of the row: bank 0 of the rank, first column, first
  // channel of the cluster. Guard offlining and EPT seeding operate on whole
  // row groups, so one page's status stands for the row's.
  MediaAddress media;
  media.socket = socket;
  media.channel = cluster * (geom.channels_per_socket / truth_.clusters_per_socket());
  media.rank = rank;
  media.row = row;
  Result<uint64_t> phys = truth_.MediaToPhys(media);
  SILOZ_RETURN_IF_ERROR(phys);

  RowStatus status;
  status.node = *node_id;
  status.kind = node->kind();
  status.offlined = node->allocator().IsOfflined(*phys);
  status.phys = *phys;
  for (const PhysRange& range : hypervisor_.ept_pool_ranges(socket)) {
    if (range.Contains(*phys)) {
      status.ept_pool = true;
      break;
    }
  }
  return status;
}

template <typename Detail>
void Auditor::AddFinding(Report& report, Invariant invariant, uint64_t phys, uint32_t internal_row,
                         Detail&& detail) const {
  if (report.Full(invariant, options_.max_findings_per_invariant)) {
    report.Suppress(invariant);
    return;
  }
  Finding finding;
  finding.invariant = invariant;
  finding.severity = Severity::kCritical;
  finding.phys = phys;
  finding.internal_row = internal_row;
  finding.detail = detail();
  Result<MediaAddress> media = truth_.PhysToMedia(phys);
  if (media.ok()) {
    finding.media = *media;
    Result<uint32_t> group =
        GroupOfRow(media->socket, truth_.ClusterOf(*media), media->row);
    if (group.ok()) {
      finding.group = *group;
    }
  }
  report.Add(std::move(finding), options_.max_findings_per_invariant);
}

// --- Sharded scans ----------------------------------------------------------

std::vector<Report> Auditor::ScanShards(uint64_t count,
                                        const std::function<void(uint64_t, Report&)>& scan,
                                        Report& report, PoolMetrics* pool_metrics) const {
  ThreadPool pool(options_.threads);
  // Pass 1: count every shard's probes and violations, keeping nothing.
  std::vector<Report> counted(count);
  pool.ParallelFor(0, count, [&](uint64_t i) {
    std::fill(std::begin(counted[i].keep_limit), std::end(counted[i].keep_limit), 0);
    scan(i, counted[i]);
  });
  // Hand out the room left under the cap in shard order: a shard keeps the
  // first `share` violations of each invariant, as the serial scan would.
  uint64_t room[4];
  for (size_t k = 0; k < 4; ++k) {
    room[k] = options_.max_findings_per_invariant -
              std::min<uint64_t>(report.stats[k].kept, options_.max_findings_per_invariant);
  }
  std::vector<uint64_t> keepers;  // shards contributing at least one finding
  std::vector<Report> kept;       // their second-pass reports, in shard order
  for (uint64_t i = 0; i < count; ++i) {
    Report share;
    bool contributes = false;
    for (size_t k = 0; k < 4; ++k) {
      share.keep_limit[k] = std::min(counted[i].stats[k].violations, room[k]);
      room[k] -= share.keep_limit[k];
      contributes |= share.keep_limit[k] > 0;
    }
    if (contributes) {
      keepers.push_back(i);
      kept.push_back(std::move(share));
    }
  }
  // Pass 2: re-scan only the contributing shards, each up to its share.
  pool.ParallelFor(0, keepers.size(), [&](uint64_t j) { scan(keepers[j], kept[j]); });
  if (pool_metrics != nullptr) {
    *pool_metrics = pool.metrics();
  }

  uint64_t violations = 0;
  for (const Report& shard : counted) {
    for (size_t k = 0; k < 4; ++k) {
      report.stats[k].probes += shard.stats[k].probes;
      report.stats[k].violations += shard.stats[k].violations;
      report.stats[k].ran |= shard.stats[k].ran;
      violations += shard.stats[k].violations;
    }
  }
  uint64_t findings = 0;
  for (Report& shard : kept) {
    for (size_t k = 0; k < 4; ++k) {
      SILOZ_CHECK_EQ(shard.stats[k].kept, shard.keep_limit[k]) << "a re-scanned shard diverged";
      report.stats[k].kept += shard.stats[k].kept;
    }
    findings += shard.findings.size();
    std::move(shard.findings.begin(), shard.findings.end(), std::back_inserter(report.findings));
  }
  report.suppressed += violations - findings;
  return counted;
}

// --- Invariant 1: phys <-> media is a bijection -----------------------------

void Auditor::ProbePhysRoundTrip(uint64_t phys, Report& report) const {
  ++report.StatsFor(Invariant::kDecoderInvertibility).probes;
  const DramGeometry& geom = truth_.geometry();
  Result<MediaAddress> media = truth_.PhysToMedia(phys);
  if (!media.ok()) {
    AddFinding(report, Invariant::kDecoderInvertibility, phys, 0, [&] {
      return "physical address does not decode: " + media.error().ToString();
    });
    return;
  }
  if (Status valid = ValidateAddress(geom, *media); !valid.ok()) {
    AddFinding(report, Invariant::kDecoderInvertibility, phys, 0, [&] {
      return "decoded media address out of geometry bounds: " + valid.error().ToString();
    });
    return;
  }
  Result<uint64_t> back = truth_.MediaToPhys(*media);
  if (!back.ok()) {
    AddFinding(report, Invariant::kDecoderInvertibility, phys, 0, [&] {
      return "media address does not map back: " + back.error().ToString();
    });
  } else if (*back != phys) {
    AddFinding(report, Invariant::kDecoderInvertibility, phys, 0, [&] {
      return "round trip returns " + Hex(*back) + " instead of " + Hex(phys) +
             ": decoder is not its own inverse";
    });
  }
}

void Auditor::ProbeMediaRoundTrip(const MediaAddress& media, Report& report) const {
  ++report.StatsFor(Invariant::kDecoderInvertibility).probes;
  const uint64_t total = truth_.geometry().total_bytes();
  Result<uint64_t> phys = truth_.MediaToPhys(media);
  if (!phys.ok()) {
    AddFinding(report, Invariant::kDecoderInvertibility, 0, 0, [&] {
      return "media address " + media.ToString() + " has no physical image: " +
             phys.error().ToString();
    });
    return;
  }
  if (*phys >= total) {
    AddFinding(report, Invariant::kDecoderInvertibility, *phys, 0, [&] {
      return "media address " + media.ToString() + " maps outside the physical space";
    });
    return;
  }
  Result<MediaAddress> back = truth_.PhysToMedia(*phys);
  if (!back.ok() || !(*back == media)) {
    AddFinding(report, Invariant::kDecoderInvertibility, *phys, 0, [&] {
      return "media round trip through " + Hex(*phys) + " does not return " + media.ToString();
    });
  }
}

void Auditor::CheckDecoderInvertibility(Report& report) const {
  report.StatsFor(Invariant::kDecoderInvertibility).ran = true;
  const DramGeometry& geom = truth_.geometry();
  const uint64_t total = geom.total_bytes();

  // Stratified physical sweep: fixed stride plus seeded random fill, so every
  // interleave period is sampled without 10^8 exhaustive probes (available
  // via options.exhaustive). All random draws happen here, in the serial
  // order, before any shard runs.
  const uint64_t stride = options_.exhaustive ? kPage4K : options_.probe_stride;
  Rng rng(options_.seed);
  std::vector<uint64_t> tail = {total - kCacheLineBytes};
  for (uint64_t i = 0; i < options_.random_probes; ++i) {
    tail.push_back(rng.NextBelow(total));
  }

  // Media-space sweep: the inverse direction, over every (socket, channel,
  // dimm, rank, bank) combination at subarray-boundary and random rows.
  std::set<uint32_t> rows = {0, effective_rows_ - 1, geom.rows_per_bank - 1};
  if (effective_rows_ < geom.rows_per_bank) {
    rows.insert(effective_rows_);
  }
  for (int i = 0; i < 4; ++i) {
    rows.insert(static_cast<uint32_t>(rng.NextBelow(geom.rows_per_bank)));
  }
  const uint32_t last_column = static_cast<uint32_t>(geom.row_bytes - kCacheLineBytes);

  // Shards in serial probe order: slices of the strided sweep, the tail
  // (last line + random fill), then the media sweep per (socket, channel).
  const uint64_t strided = (total + stride - 1) / stride;
  const uint64_t sweep_shards = (strided + kProbesPerShard - 1) / kProbesPerShard;
  const uint64_t media_shards = static_cast<uint64_t>(geom.sockets) * geom.channels_per_socket;
  auto scan = [&](uint64_t shard, Report& local) {
    if (shard < sweep_shards) {
      const uint64_t end = std::min(strided, (shard + 1) * kProbesPerShard);
      for (uint64_t i = shard * kProbesPerShard; i < end; ++i) {
        ProbePhysRoundTrip(i * stride, local);
      }
      return;
    }
    if (shard == sweep_shards) {
      for (uint64_t phys : tail) {
        ProbePhysRoundTrip(phys, local);
      }
      return;
    }
    const uint64_t socket_channel = shard - sweep_shards - 1;
    MediaAddress media;
    media.socket = static_cast<uint32_t>(socket_channel / geom.channels_per_socket);
    media.channel = static_cast<uint32_t>(socket_channel % geom.channels_per_socket);
    for (media.dimm = 0; media.dimm < geom.dimms_per_channel; ++media.dimm) {
      for (media.rank = 0; media.rank < geom.ranks_per_dimm; ++media.rank) {
        for (media.bank = 0; media.bank < geom.banks_per_rank; ++media.bank) {
          for (uint32_t row : rows) {
            media.row = row;
            media.column = 0;
            ProbeMediaRoundTrip(media, local);
            media.column = last_column;
            ProbeMediaRoundTrip(media, local);
          }
        }
      }
    }
  };
  ScanShards(sweep_shards + 1 + media_shards, scan, report);
}

// --- Invariant 2: every node's pages stay inside its groups -----------------

void Auditor::ProbeNodePage(const NumaNode& node, uint64_t phys, Report& report) const {
  ++report.StatsFor(Invariant::kDomainClosure).probes;
  Result<MediaAddress> media = truth_.PhysToMedia(phys);
  if (!media.ok()) {
    AddFinding(report, Invariant::kDomainClosure, phys, 0, [&] {
      return "page of node " + std::to_string(node.id()) + " does not decode: " +
             media.error().ToString();
    });
    return;
  }
  if (media->socket != node.physical_socket()) {
    AddFinding(report, Invariant::kDomainClosure, phys, 0, [&] {
      return "page of node " + std::to_string(node.id()) + " decodes to socket " +
             std::to_string(media->socket) + ", node is pinned to socket " +
             std::to_string(node.physical_socket());
    });
    return;
  }
  Result<uint32_t> group = GroupOfRow(media->socket, truth_.ClusterOf(*media), media->row);
  if (!group.ok()) {
    AddFinding(report, Invariant::kDomainClosure, phys, 0, [&] {
      return "page has no subarray group: " + group.error().ToString();
    });
    return;
  }
  Result<uint32_t> owner = hypervisor_.NodeOfGroup(*group);
  if (!owner.ok() || *owner != node.id()) {
    AddFinding(report, Invariant::kDomainClosure, phys, 0, [&] {
      return "page provisioned to node " + std::to_string(node.id()) +
             " decodes into subarray group " + std::to_string(*group) + " owned by " +
             (owner.ok() ? "node " + std::to_string(*owner) : "nobody") +
             ": the node spans a group boundary";
    });
  }
}

void Auditor::ScanRemapBlocks(uint32_t rank, HalfRowSide side, uint32_t bank,
                              uint32_t row_begin, uint32_t row_end, Report& report) const {
  InvariantStats& stats = report.StatsFor(Invariant::kDomainClosure);
  for (uint32_t base = row_begin; base < row_end; base += effective_rows_) {
    const uint32_t block = remapper_.ToInternal(base, rank, bank, side) / effective_rows_;
    for (uint32_t row = base; row < std::min(base + effective_rows_, row_end); ++row) {
      ++stats.probes;
      const uint32_t internal = remapper_.ToInternal(row, rank, bank, side);
      if (internal / effective_rows_ != block) {
        MediaAddress media;
        media.rank = rank;
        media.bank = bank;
        media.row = row;
        Result<uint64_t> phys = truth_.MediaToPhys(media);
        AddFinding(report, Invariant::kDomainClosure, phys.ok() ? *phys : 0, internal, [&] {
          return "remap chain (rank " + std::to_string(rank) + ", side " + HalfRowSideName(side) +
                 ") scatters media block " + std::to_string(base / effective_rows_) +
                 " across internal blocks " + std::to_string(block) + " and " +
                 std::to_string(internal / effective_rows_);
        });
      }
    }
  }
}

void Auditor::CheckDomainClosure(Report& report) const {
  report.StatsFor(Invariant::kDomainClosure).ran = true;
  const DramGeometry& geom = truth_.geometry();
  const uint64_t stride = options_.exhaustive ? kPage4K : options_.probe_stride;

  // Page sweep of every node range: strided probes, the last line, and 16
  // seeded random probes per range, drawn here in the serial order. A range
  // splits into slices of kProbesPerShard strided probes; its last slice
  // also carries the range's tail probes.
  struct PageSlice {
    const NumaNode* node = nullptr;
    uint64_t begin = 0;  // range start
    uint64_t first = 0;  // strided probe indices [first, last)
    uint64_t last = 0;
    std::vector<uint64_t> tail;
  };
  Rng rng(options_.seed ^ 0x5107u);
  std::vector<PageSlice> pages;
  for (const NumaNode* node : nodes_by_id_) {
    for (const PhysRange& range : node->ranges()) {
      const uint64_t strided = (range.size() + stride - 1) / stride;
      for (uint64_t first = 0;; first += kProbesPerShard) {
        const uint64_t last = std::min(strided, first + kProbesPerShard);
        pages.push_back(PageSlice{node, range.begin, first, last, {}});
        if (last == strided) {
          break;
        }
      }
      std::vector<uint64_t>& tail = pages.back().tail;
      tail.push_back(range.end - kCacheLineBytes);
      for (int i = 0; i < 16; ++i) {
        tail.push_back(range.begin + rng.NextBelow(range.size()));
      }
    }
  }

  // Post-remap closure (§6): the DIMM transform chain must permute media
  // subarray blocks onto whole internal blocks, for every rank and half-row
  // side, or a media-level group physically straddles two internal
  // subarrays. Exhaustive over row space — it is only 2^17 rows per bank —
  // in slices of whole blocks.
  struct RemapSlice {
    uint32_t rank = 0;
    HalfRowSide side = HalfRowSide::kA;
    uint32_t bank = 0;
    uint32_t row_begin = 0;
    uint32_t row_end = 0;
  };
  const uint32_t banks = remapper_.config().repairs.empty() ? 1 : geom.banks_per_rank;
  const uint32_t slice_rows =
      std::max<uint32_t>(1, static_cast<uint32_t>(kProbesPerShard) / effective_rows_) *
      effective_rows_;
  std::vector<RemapSlice> remaps;
  for (uint32_t rank = 0; rank < geom.ranks_per_dimm; ++rank) {
    for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
      for (uint32_t bank = 0; bank < banks; ++bank) {
        for (uint32_t base = 0; base < geom.rows_per_bank; base += slice_rows) {
          remaps.push_back(RemapSlice{rank, side, bank, base,
                                      std::min(base + slice_rows, geom.rows_per_bank)});
        }
      }
    }
  }

  auto scan = [&](uint64_t shard, Report& local) {
    if (shard < pages.size()) {
      const PageSlice& slice = pages[shard];
      for (uint64_t i = slice.first; i < slice.last; ++i) {
        ProbeNodePage(*slice.node, slice.begin + i * stride, local);
      }
      for (uint64_t phys : slice.tail) {
        ProbeNodePage(*slice.node, phys, local);
      }
      return;
    }
    const RemapSlice& slice = remaps[shard - pages.size()];
    ScanRemapBlocks(slice.rank, slice.side, slice.bank, slice.row_begin, slice.row_end, local);
  };
  ScanShards(pages.size() + remaps.size(), scan, report);
}

// --- Invariant 3: EPT rows fenced by >= blast-radius guard rows -------------

void Auditor::CheckGuardFencing(Report& report) const {
  if (hypervisor_.config().ept_protection != EptProtection::kGuardRows) {
    return;  // nothing to fence; stats stay "skipped"
  }
  InvariantStats& stats = report.StatsFor(Invariant::kGuardFencing);
  stats.ran = true;
  const DramGeometry& geom = truth_.geometry();
  const uint32_t banks = remapper_.config().repairs.empty() ? 1 : geom.banks_per_rank;

  for (uint32_t socket = 0; socket < geom.sockets; ++socket) {
    // Decode the EPT pool back to media rows; the plan puts each socket's
    // pool in one row group, but the audit re-derives that from the bytes.
    std::set<std::pair<uint32_t, uint32_t>> ept_rows;  // (cluster, media row)
    for (const PhysRange& range : hypervisor_.ept_pool_ranges(socket)) {
      for (uint64_t phys = range.begin; phys < range.end; phys += kPage4K) {
        Result<MediaAddress> media = truth_.PhysToMedia(phys);
        if (!media.ok()) {
          AddFinding(report, Invariant::kGuardFencing, phys, 0, [&] {
            return "EPT pool page does not decode: " + media.error().ToString();
          });
          continue;
        }
        ept_rows.insert({truth_.ClusterOf(*media), media->row});
      }
    }

    for (const auto& [cluster, ept_row] : ept_rows) {
      for (uint32_t rank = 0; rank < geom.ranks_per_dimm; ++rank) {
        for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
          for (uint32_t bank = 0; bank < banks; ++bank) {
            const uint32_t internal = remapper_.ToInternal(ept_row, rank, bank, side);
            // Disturbance cannot leave the silicon subarray, whatever size
            // Siloz presumed at boot.
            const uint32_t lo = (internal / silicon_rows_) * silicon_rows_;
            const uint32_t hi = std::min(lo + silicon_rows_, geom.rows_per_bank);
            const uint32_t jlo =
                internal > lo + options_.blast_radius ? internal - options_.blast_radius : lo;
            const uint32_t jhi = std::min(hi - 1, internal + options_.blast_radius);
            for (uint32_t j = jlo; j <= jhi; ++j) {
              if (j == internal) {
                continue;
              }
              ++stats.probes;
              const uint32_t neighbour = remapper_.ToMedia(j, rank, bank, side);
              Result<RowStatus> status = StatusOfRow(socket, cluster, rank, neighbour);
              if (!status.ok()) {
                AddFinding(report, Invariant::kGuardFencing, 0, j, [&] {
                  return "cannot resolve neighbour row " + std::to_string(neighbour) +
                         " of EPT row: " + status.error().ToString();
                });
                continue;
              }
              if (!status->offlined && !status->ept_pool) {
                AddFinding(report, Invariant::kGuardFencing, status->phys, j, [&] {
                  return "allocatable media row " + std::to_string(neighbour) + " (node " +
                         std::to_string(status->node) + ") is " +
                         std::to_string(j > internal ? j - internal : internal - j) +
                         " internal row(s) from EPT row " + std::to_string(ept_row) + " (rank " +
                         std::to_string(rank) + ", side " + HalfRowSideName(side) +
                         "): guard band thinner than the blast radius";
                });
              }
            }
          }
        }
      }
    }
  }
}

// --- Invariant 4: disturbance never crosses a domain boundary ---------------

void Auditor::CheckBlastRadius(Report& report) const {
  report.StatsFor(Invariant::kBlastRadius).ran = true;
  const DramGeometry& geom = truth_.geometry();
  const uint32_t clusters = truth_.clusters_per_socket();

  // Shard the row space by presumed subarray group, in the serial scan's
  // enumeration order (socket, cluster, row block). Every shard accumulates
  // into a private report; folding them in shard order reproduces the
  // serial findings byte-for-byte (see ScanShards), so the scan is free to
  // run the shards on any number of threads.
  std::vector<ScanShard> shards;
  for (uint32_t socket = 0; socket < geom.sockets; ++socket) {
    for (uint32_t cluster = 0; cluster < clusters; ++cluster) {
      for (uint32_t base = 0; base < geom.rows_per_bank; base += effective_rows_) {
        shards.push_back(ScanShard{socket, cluster, base,
                                   std::min(base + effective_rows_, geom.rows_per_bank)});
      }
    }
  }

  std::vector<Report> locals;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    obs::TraceSpan scan_span("audit.BlastRadiusScan");
    locals = ScanShards(
        shards.size(),
        [&](uint64_t i, Report& local) { ScanBlastRadiusShard(shards[i], local); }, report,
        &report.scan_pool);
  }
  report.scan_wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  // Shard sizes are fixed by geometry, so observing them in shard order on
  // the coordinating thread keeps the histogram thread-count-invariant.
  obs::Histogram& per_shard =
      obs::Registry::Global().GetHistogram("audit.blast_radius.probes_per_shard");
  for (const Report& local : locals) {
    per_shard.Observe(local.StatsFor(Invariant::kBlastRadius).probes);
  }
}

void Auditor::ScanBlastRadiusShard(const ScanShard& shard, Report& report) const {
  InvariantStats& stats = report.StatsFor(Invariant::kBlastRadius);
  const DramGeometry& geom = truth_.geometry();
  const uint32_t banks = remapper_.config().repairs.empty() ? 1 : geom.banks_per_rank;

  const uint32_t socket = shard.socket;
  const uint32_t cluster = shard.cluster;
  for (uint32_t row = shard.row_begin; row < shard.row_end; ++row) {
    Result<uint32_t> group = GroupOfRow(socket, cluster, row);
    Result<uint32_t> owner =
        group.ok() ? hypervisor_.NodeOfGroup(*group)
                   : Result<uint32_t>(group.error());
    if (!owner.ok()) {
      continue;  // closure pass reports unresolvable rows
    }
    for (uint32_t rank = 0; rank < geom.ranks_per_dimm; ++rank) {
      for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
        for (uint32_t bank = 0; bank < banks; ++bank) {
          const uint32_t internal = remapper_.ToInternal(row, rank, bank, side);
          const uint32_t lo = (internal / silicon_rows_) * silicon_rows_;
          const uint32_t hi = std::min(lo + silicon_rows_, geom.rows_per_bank);
          const uint32_t jlo =
              internal > lo + options_.blast_radius ? internal - options_.blast_radius : lo;
          const uint32_t jhi = std::min(hi - 1, internal + options_.blast_radius);
          for (uint32_t j = jlo; j <= jhi; ++j) {
            if (j == internal) {
              continue;
            }
            ++stats.probes;
            const uint32_t neighbour = remapper_.ToMedia(j, rank, bank, side);
            // Same presumed block -> same group -> same node: the common
            // case, because the remap chain permutes block-to-block.
            if (neighbour / effective_rows_ == row / effective_rows_) {
              continue;
            }
            Result<uint32_t> group2 = GroupOfRow(socket, cluster, neighbour);
            Result<uint32_t> owner2 =
                group2.ok() ? hypervisor_.NodeOfGroup(*group2)
                            : Result<uint32_t>(group2.error());
            if (owner2.ok() && *owner2 == *owner) {
              continue;  // e.g. two host groups of the same host node
            }
            Result<RowStatus> status = StatusOfRow(socket, cluster, rank, row);
            Result<RowStatus> status2 = StatusOfRow(socket, cluster, rank, neighbour);
            if (!status.ok() || !status2.ok()) {
              AddFinding(report, Invariant::kBlastRadius, 0, j, [&] {
                return "cannot resolve cross-domain neighbours " + std::to_string(row) + "/" +
                       std::to_string(neighbour);
              });
              continue;
            }
            if (status->offlined || status2->offlined) {
              continue;  // a guard row fences the boundary
            }
            const char* consequence = status->ept_pool || status2->ept_pool
                                          ? ": EPT rows reachable from a foreign domain"
                                          : ": disturbance crosses the domain boundary";
            AddFinding(report, Invariant::kBlastRadius, status2->phys, j, [&] {
              return "media rows " + std::to_string(row) + " (node " + std::to_string(*owner) +
                     ") and " + std::to_string(neighbour) + " (node " +
                     (owner2.ok() ? std::to_string(*owner2) : "?") +
                     ") are internal neighbours at distance " +
                     std::to_string(j > internal ? j - internal : internal - j) + " (rank " +
                     std::to_string(rank) + ", side " + HalfRowSideName(side) + ")" +
                     consequence;
            });
          }
        }
      }
    }
  }
}

// --- Optional live pass: a VM's EPT bytes vs its provisioning ---------------

void Auditor::CheckVmContainment(const Vm& vm, Report& report) const {
  const ExtendedPageTable* ept = vm.ept();
  if (ept == nullptr) {
    return;
  }
  InvariantStats& closure = report.StatsFor(Invariant::kDomainClosure);
  closure.ran = true;

  Status walk = ept->VisitLeafMappings([&](const ExtendedPageTable::LeafMapping& leaf) {
    ++closure.probes;
    const uint64_t bytes = PageSizeBytes(leaf.size);
    bool contained = false;
    for (const VmRegion& region : vm.regions()) {
      if (leaf.hpa >= region.hpa && leaf.hpa + bytes <= region.hpa + region.bytes) {
        contained = true;
        break;
      }
    }
    if (!contained) {
      AddFinding(report, Invariant::kDomainClosure, leaf.hpa, 0, [&] {
        return "EPT leaf for GPA " + Hex(leaf.gpa) + " of VM " + std::to_string(vm.id()) +
               " maps outside the VM's provisioned regions";
      });
    }
  });
  if (!walk.ok()) {
    AddFinding(report, Invariant::kGuardFencing, ept->root_hpa(), 0, [&] {
      return "EPT walk of VM " + std::to_string(vm.id()) + " failed integrity verification: " +
             walk.error().ToString();
    });
  }

  if (hypervisor_.config().ept_protection == EptProtection::kGuardRows) {
    InvariantStats& fencing = report.StatsFor(Invariant::kGuardFencing);
    fencing.ran = true;
    const std::vector<PhysRange>& pool = hypervisor_.ept_pool_ranges(vm.config().socket);
    for (uint64_t page : ept->table_pages()) {
      ++fencing.probes;
      bool contained = false;
      for (const PhysRange& range : pool) {
        if (range.Contains(page)) {
          contained = true;
          break;
        }
      }
      if (!contained) {
        AddFinding(report, Invariant::kGuardFencing, page, 0, [&] {
          return "EPT table page of VM " + std::to_string(vm.id()) +
                 " lies outside the guard-protected pool";
        });
      }
    }
  }
}

// --- Convenience entry points -----------------------------------------------

Result<Report> AuditProvisioningPlan(const AddressDecoder& boot_decoder,
                                     const AddressDecoder& truth_decoder,
                                     const SilozConfig& config, const RemapConfig& remap,
                                     const Options& options) {
  if (!config.enabled) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "the static audit inspects a Siloz provisioning plan; enable Siloz mode");
  }
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(boot_decoder, memory, config);
  SILOZ_RETURN_IF_ERROR(hypervisor.Boot());
  return Auditor(hypervisor, truth_decoder, remap, options).Run();
}

Result<Report> AuditPlatform(const AddressDecoder& decoder, const SilozConfig& config,
                             const RemapConfig& remap, const Options& options) {
  return AuditProvisioningPlan(decoder, decoder, config, remap, options);
}

}  // namespace siloz::audit
