// Regenerates Figure 4 (§7.2): baseline-normalized execution time of Siloz
// across redis+YCSB A-F, Hadoop terasort, SPEC CPU 2017, and PARSEC 3.0.
//
// Expected shape (paper): every workload within noise of baseline; geometric
// mean difference under 0.5%. Siloz only changes *where* boot-time
// allocations land — subarray groups preserve bank-level parallelism — so
// the timing model produces the same null result mechanistically.
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace siloz;
  const bench::FigureFlags flags =
      bench::StartFigure(argc, argv,
                         "Figure 4: baseline-normalized execution time (Siloz vs Linux/KVM)");
  std::printf("Workload models replay memory-access traces with each suite's\n"
              "locality/mix/MLP profile; 5 trials per point (see DESIGN.md).\n\n");
  const bool ok = bench::RunFigure(ExecutionTimeWorkloads(),
                                   {"baseline", bench::BaselineKernel()},
                                   {{"siloz", bench::SilozKernel()}}, 5, 42, "fig4_exec_time",
                                   flags.shape);
  return (flags.obs.Write() && ok) ? 0 : 1;
}
