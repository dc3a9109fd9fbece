// shell.hpp is header-only; this translation unit exists to give the target a
// place to grow and to force the header to compile standalone.
#include "combinatorics/shell.hpp"

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"

namespace rbc::comb {

static_assert(SeedIteratorFactory<GosperFactory>);
static_assert(SeedIteratorFactory<Algorithm515Factory>);
static_assert(SeedIteratorFactory<ChaseFactory>);

}  // namespace rbc::comb
