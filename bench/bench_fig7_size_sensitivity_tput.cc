// Regenerates Figure 7 (§7.4): Siloz-1024-normalized throughput when the
// presumed subarray size is varied to 512 and 2048 rows.
//
// Expected shape (paper): within 0.5% with no trend across sizes.
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace siloz;
  const bench::FigureFlags flags =
      bench::StartFigure(argc, argv,
                         "Figure 7: Siloz-1024-normalized throughput, subarray size sweep");
  const bool ok = bench::RunFigure(ThroughputWorkloads(),
                                   {"siloz-1024", bench::SilozKernel(1024)},
                                   {{"siloz-512", bench::SilozKernel(512)},
                                    {"siloz-2048", bench::SilozKernel(2048)}},
                                   5, 42, "fig7_size_tput", flags.shape);
  return (flags.obs.Write() && ok) ? 0 : 1;
}
