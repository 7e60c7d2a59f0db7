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
  const bench::FigureFlags flags =
      bench::StartFigure(argc, argv,
                         "Figure 6: Siloz-1024-normalized execution time, subarray size sweep");
  std::printf("Siloz-512 manages 2x the logical NUMA nodes of Siloz-1024;\n"
              "Siloz-2048 half. 5 trials per point.\n\n");
  const bool ok = bench::RunFigure(ExecutionTimeWorkloads(),
                                   {"siloz-1024", bench::SilozKernel(1024)},
                                   {{"siloz-512", bench::SilozKernel(512)},
                                    {"siloz-2048", bench::SilozKernel(2048)}},
                                   5, 42, "fig6_size_time", flags.shape);
  return (flags.obs.Write() && ok) ? 0 : 1;
}
