// Regenerates Figure 5 (§7.3): baseline-normalized throughput of Siloz for
// memcached, SysBench mySQL, and the Intel MLC variants (reads, 3:1, 2:1,
// 1:1, stream).
//
// Expected shape (paper): mean throughput within 0.5% of baseline for every
// workload; bank-level parallelism — the first-order term for bandwidth —
// is identical under subarray-group placement.
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace siloz;
  const uint32_t threads = bench::ThreadsFromArgs(argc, argv);  // 0 = auto-detect
  const uint32_t channels_per_shard = bench::ChannelsPerShardFromArgs(argc, argv);
  const uint32_t bank_groups_per_queue = bench::BankGroupsPerQueueFromArgs(argc, argv);
  const std::string platform = bench::PlatformFromArgs(argc, argv);
  bench::EnableObsFromArgs(argc, argv);
  bench::PrintHeader("Figure 5: baseline-normalized throughput (Siloz vs Linux/KVM)",
                     bench::PlatformHeaderGeometry(platform), platform);
  std::printf("MLC variants are saturated bandwidth probes (64 outstanding, no\n"
              "compute gap); 5 trials per point.\n\n");
  const bool ok = bench::RunFigure(ThroughputWorkloads(),
                                   {"baseline", bench::BaselineKernel()},
                                   {{"siloz", bench::SilozKernel()}}, 5, 42, "fig5_throughput",
                                   threads, channels_per_shard, platform,
                                   bank_groups_per_queue);
  return (bench::WriteObsFromArgs(argc, argv) && ok) ? 0 : 1;
}
