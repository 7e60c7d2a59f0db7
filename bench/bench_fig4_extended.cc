// Extended Figure 4: per-benchmark breakdown behind the SPEC CPU 2017 and
// PARSEC 3.0 suite aggregates of Fig 4.
//
// The paper reports suite-level bars; this companion runs the individual
// benchmark profiles (spanning cache-resident to memory-thrashing
// behaviour) to show the null result is not an averaging artifact: every
// individual benchmark is within noise of baseline under Siloz.
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace siloz;
  const bench::FigureFlags flags =
      bench::StartFigure(argc, argv,
                         "Figure 4 (extended): per-benchmark execution time, Siloz vs baseline");
  std::printf("SPEC CPU 2017 subset:\n\n");
  std::vector<WorkloadSpec> spec = SpecCpuWorkloads();
  bool ok = bench::RunFigure(spec, {"baseline", bench::BaselineKernel()},
                             {{"siloz", bench::SilozKernel()}}, 3, 42, "fig4ext_spec", flags.shape);
  std::printf("PARSEC 3.0 subset:\n\n");
  std::vector<WorkloadSpec> parsec = ParsecWorkloads();
  ok = bench::RunFigure(parsec, {"baseline", bench::BaselineKernel()},
                        {{"siloz", bench::SilozKernel()}}, 3, 42, "fig4ext_parsec",
                        flags.shape) &&
       ok;
  return (flags.obs.Write() && ok) ? 0 : 1;
}
