// Latency accounting for the benchmark harnesses. Latencies are summed
// per-processor (padded slots, no sharing) and merged after the run, as in
// the paper's methodology: "we measured latency, the amount of time (in
// cycles) it takes for an average access to the object" (§4).
#pragma once

#include <string>

#include "common/types.hpp"

namespace fpq {

struct OpStats {
  u64 inserts = 0;
  u64 deletes = 0;
  u64 empty_deletes = 0; // delete_min() that returned nullopt
  u64 insert_cycles = 0;
  u64 delete_cycles = 0;

  u64 ops() const { return inserts + deletes; }
  u64 cycles() const { return insert_cycles + delete_cycles; }
  double mean_all() const { return ops() ? double(cycles()) / double(ops()) : 0.0; }
  double mean_insert() const {
    return inserts ? double(insert_cycles) / double(inserts) : 0.0;
  }
  double mean_delete() const {
    return deletes ? double(delete_cycles) / double(deletes) : 0.0;
  }

  OpStats& operator+=(const OpStats& o);
};

/// "12.7" style thousands-of-cycles formatting used by the paper's Fig. 8.
std::string fmt_kcycles(double cycles);

/// Plain cycles with no decimals.
std::string fmt_cycles(double cycles);

} // namespace fpq
