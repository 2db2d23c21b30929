// Figure 7: dataset-size scaling for EM clustering — profile collected at
// 1-1 on a 350 MB dataset, predictions for a 1.4 GB dataset (global-
// reduction model only, as in the paper's §5.2).
//
// Each dataset is generated at its own size, so the profile has a quarter
// of the target's chunks and its per-chunk seek and latency costs shrink
// with the data. Both datasets pull their payloads through the
// out-of-core streaming plane (bench::streamed_copy — DESIGN.md §15): flat
// memory in the dataset size, bit-identical results to the in-memory path.
#include "common.h"

int main() {
  using namespace fgp;
  const bench::SweepRunner sweep;
  const auto profile_app =
      bench::streamed_copy(bench::make_em_app(350.0, 1.0, 42));
  const auto target_app =
      bench::streamed_copy(bench::make_em_app(1400.0, 4.0, 42));
  bench::global_model_figure(
      sweep,
      "Figure 7: Prediction Errors for EM Clustering, 1.4 GB dataset (base "
      "profile: 1-1 with 350 MB)",
      profile_app, target_app, sim::cluster_pentium_myrinet(),
      sim::wan_mbps(800.0), sim::wan_mbps(800.0));
  return 0;
}
