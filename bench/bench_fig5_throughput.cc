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
  const bench::FigureFlags flags =
      bench::StartFigure(argc, argv,
                         "Figure 5: baseline-normalized throughput (Siloz vs Linux/KVM)");
  std::printf("MLC variants are saturated bandwidth probes (64 outstanding, no\n"
              "compute gap); 5 trials per point.\n\n");
  const bool ok = bench::RunFigure(ThroughputWorkloads(),
                                   {"baseline", bench::BaselineKernel()},
                                   {{"siloz", bench::SilozKernel()}}, 5, 42, "fig5_throughput",
                                   flags.shape);
  return (flags.obs.Write() && ok) ? 0 : 1;
}
