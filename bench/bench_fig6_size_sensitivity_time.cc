// Regenerates Figure 6 (§7.4): Siloz-1024-normalized execution time when the
// presumed subarray size is varied to 512 (twice the logical nodes) and 2048
// (half the nodes).
//
// Expected shape (paper): no trend and no significant differences — subarray
// size changes neither DDR access timings nor bank-level parallelism, and
// node count does not matter (Siloz-2048 does not beat Siloz-512).
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace siloz;
  const uint32_t threads = bench::ThreadsFromArgs(argc, argv);  // 0 = auto-detect
  const uint32_t channels_per_shard = bench::ChannelsPerShardFromArgs(argc, argv);
  const uint32_t bank_groups_per_queue = bench::BankGroupsPerQueueFromArgs(argc, argv);
  const std::string platform = bench::PlatformFromArgs(argc, argv);
  bench::EnableObsFromArgs(argc, argv);
  bench::PrintHeader("Figure 6: Siloz-1024-normalized execution time, subarray size sweep",
                     bench::PlatformHeaderGeometry(platform), platform);
  std::printf("Siloz-512 manages 2x the logical NUMA nodes of Siloz-1024;\n"
              "Siloz-2048 half. 5 trials per point.\n\n");
  const bool ok = bench::RunFigure(ExecutionTimeWorkloads(),
                                   {"siloz-1024", bench::SilozKernel(1024)},
                                   {{"siloz-512", bench::SilozKernel(512)},
                                    {"siloz-2048", bench::SilozKernel(2048)}},
                                   5, 42, "fig6_size_time", threads,
                                   channels_per_shard, platform, bank_groups_per_queue);
  return (bench::WriteObsFromArgs(argc, argv) && ok) ? 0 : 1;
}
