// NEGATIVE fixture: the edges src/service is allowed to have. Analyzed
// under "src/service/fixture.cpp" (rank 6, the top layer) — core (5),
// grid (3), obs (1) and util (0) are all lower layers, so fgpcheck must
// report nothing.
#include "core/predictor.h"
#include "grid/catalog.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace fgp {
int fixture_marker();
}  // namespace fgp
