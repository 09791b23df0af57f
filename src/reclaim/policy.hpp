// Reclamation policy selector, split from reclaim.hpp so lightweight
// headers (pq/pq.hpp's PqParams) can name a policy without pulling in the
// domain machinery.
#pragma once

#include "common/types.hpp"

namespace fpq::reclaim {

/// Hazard pointers are the one reclamation scheme (DESIGN.md §11), so this
/// has one value. It remains because the benchmark driver
/// (perfbench/pqbench.cpp) sets PqParams::reclaim_policy by name; it goes
/// when that assignment does.
enum class Policy : u8 {
  kHazardPointer,
};

} // namespace fpq::reclaim
