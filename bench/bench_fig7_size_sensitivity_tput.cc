// Regenerates Figure 7 (§7.4): Siloz-1024-normalized throughput when the
// presumed subarray size is varied to 512 and 2048 rows.
//
// Expected shape (paper): within 0.5% with no trend across sizes.
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace siloz;
  const uint32_t threads = bench::ThreadsFromArgs(argc, argv);  // 0 = auto-detect
  const uint32_t channels_per_shard = bench::ChannelsPerShardFromArgs(argc, argv);
  const uint32_t bank_groups_per_queue = bench::BankGroupsPerQueueFromArgs(argc, argv);
  const std::string platform = bench::PlatformFromArgs(argc, argv);
  bench::EnableObsFromArgs(argc, argv);
  bench::PrintHeader("Figure 7: Siloz-1024-normalized throughput, subarray size sweep",
                     bench::PlatformHeaderGeometry(platform), platform);
  const bool ok = bench::RunFigure(ThroughputWorkloads(),
                                   {"siloz-1024", bench::SilozKernel(1024)},
                                   {{"siloz-512", bench::SilozKernel(512)},
                                    {"siloz-2048", bench::SilozKernel(2048)}},
                                   5, 42, "fig7_size_tput", threads,
                                   channels_per_shard, platform, bank_groups_per_queue);
  return (bench::WriteObsFromArgs(argc, argv) && ok) ? 0 : 1;
}
