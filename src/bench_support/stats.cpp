#include "bench_support/stats.hpp"

#include <cstdio>

namespace fpq {

OpStats& OpStats::operator+=(const OpStats& o) {
  inserts += o.inserts;
  deletes += o.deletes;
  empty_deletes += o.empty_deletes;
  insert_cycles += o.insert_cycles;
  delete_cycles += o.delete_cycles;
  return *this;
}

std::string fmt_kcycles(double cycles) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", cycles / 1000.0);
  return buf;
}

std::string fmt_cycles(double cycles) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", cycles);
  return buf;
}

} // namespace fpq
