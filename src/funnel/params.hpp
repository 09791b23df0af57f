// Tuning parameters of a combining funnel (Shavit & Zemach '98; paper
// §3.1). The paper selected one parameter set by a preliminary sweep at 256
// processors and used it for all funnels; for_procs() plays that role here
// for a funnel every processor reaches (LinearFunnels' bins, FunnelTree's
// root), and bench/ablation_funnel_cutoff re-derives the sensitivity.
// FunnelTree's deeper funnels see a smaller share of the arrivals (about
// half per level, counted per funnel in EXPERIMENTS.md), so they take the
// same set narrowed by for_depth().
#pragma once

#include <algorithm>
#include <array>
#include <string>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace fpq {

inline constexpr u32 kMaxFunnelLevels = 6;

/// Collision protocol of the funnel layers.
///  - kExchange: the paper's pairwise protocol — a collision merges exactly
///    two combining trees, so a width-w burst needs Θ(log w) rounds before
///    one processor reaches the central object.
///  - kAggregate: aggregating-funnel protocol (Roh et al. '24, arXiv
///    2411.14420) — a layer slot holds an *open aggregation record* that
///    late arrivals CAS-append their whole batched request onto; the
///    representative closes the aggregate, applies ONE central RMW for all
///    of it, and distributes positional verdicts across the flat list.
enum class FunnelProtocol : u8 { kExchange = 0, kAggregate = 1 };

inline const char* to_string(FunnelProtocol p) {
  return p == FunnelProtocol::kAggregate ? "aggregate" : "exchange";
}

/// Parse "exchange"/"aggregate" into `out`; false on anything else.
inline bool funnel_protocol_from_string(const std::string& s, FunnelProtocol& out) {
  if (s == "exchange") {
    out = FunnelProtocol::kExchange;
    return true;
  }
  if (s == "aggregate") {
    out = FunnelProtocol::kAggregate;
    return true;
  }
  return false;
}

struct FunnelParams {
  /// Number of combining layers a processor traverses before applying its
  /// operation to the central object. Tree size is bounded by 2^levels.
  u32 levels = 2;
  /// Width (slot count) of each layer.
  std::array<u32, kMaxFunnelLevels> width{8, 4, 2, 1, 1, 1};
  /// Collision attempts per layer before trying the central object.
  u32 attempts = 3;
  /// Post-attempt delay (in location re-checks) waiting to be captured.
  std::array<u32, kMaxFunnelLevels> spin{8, 16, 32, 64, 64, 64};
  /// Width adaption (§3.1): processors locally scale the slot-choice width
  /// by a factor in [adapt_min, 1] tracking observed collision success.
  bool adaptive = true;
  double adapt_min = 0.125;
  /// Largest operation batch a single funnel record may carry (Roh et al.
  /// '24 aggregation). Sizes the per-record item buffers of FunnelStack at
  /// batch_limit << levels, so the default keeps the point-operation
  /// footprint; queues that use insert_batch/delete_min_batch raise it via
  /// PqParams::max_batch and chunk larger requests.
  u32 batch_limit = 1;
  /// Which collision protocol the layers run (see FunnelProtocol).
  FunnelProtocol protocol = FunnelProtocol::kExchange;
  /// Aggregation only: how many relax() beats a representative keeps its
  /// record open for late joiners before closing the aggregate — an upper
  /// bound; the window closes early once joins stop arriving (see
  /// agg_idle_limit / AggregateEndpoint::wait_open_window), so the
  /// uncontended cost is the idle threshold, not the whole budget.
  u32 agg_wait = 32;

  /// Adaptive-close idle threshold derived from the budget: a small
  /// fraction of it, clamped to [8, 128] beats. The upper clamp bounds a
  /// solo representative's latency however large the configured window
  /// is; it must still exceed one cross-processor fetch round trip
  /// (~100+ cycles on the simulated mesh, a relax beat being t_pause=4),
  /// or a joiner that already saw the open aggregate loses its join CAS
  /// to the close and is orphaned into a second central RMW.
  u32 agg_idle_limit() const {
    const u32 frac = agg_wait / 8;
    return frac < 8 ? 8 : (frac > 128 ? 128 : frac);
  }

  void validate() const {
    FPQ_ASSERT_MSG(levels <= kMaxFunnelLevels, "too many funnel levels");
    for (u32 d = 0; d < levels; ++d) FPQ_ASSERT_MSG(width[d] >= 1, "zero-width layer");
    FPQ_ASSERT_MSG(attempts >= 1, "attempts must be positive");
    FPQ_ASSERT_MSG(adapt_min > 0.0 && adapt_min <= 1.0, "adapt_min out of (0,1]");
    FPQ_ASSERT_MSG(batch_limit >= 1, "batch_limit must be positive");
  }

  /// The same geometry for a funnel that sees about 1/2^d of the
  /// arrivals of a funnel with this geometry: every layer's width shifted
  /// right by `d` (floor 1). Levels, spins, attempts, protocol, agg_wait
  /// and batch_limit are unchanged.
  FunnelParams for_depth(u32 d) const {
    FunnelParams p = *this;
    for (u32& w : p.width) w = d >= 32 ? 1 : std::max(w >> d, 1u);
    return p;
  }

  /// The parameter set used throughout the reproduction, scaled to the
  /// expected concurrency level (the paper's preliminary 256-processor
  /// sweep fixed one set; this generalizes it downward).
  static FunnelParams for_procs(u32 nprocs) {
    FunnelParams p;
    if (nprocs >= 128)
      p.levels = 3;
    else if (nprocs >= 32)
      p.levels = 2;
    else
      p.levels = 1;
    p.attempts = 4;
    for (u32 d = 0; d < kMaxFunnelLevels; ++d) {
      const u32 w = nprocs >> (d + 2);
      p.width[d] = w >= 1 ? w : 1;
      p.spin[d] = 16u << d; // wait longer at deeper layers: capture is likely
    }
    return p;
  }

  /// Per-protocol defaults (ISSUE 8 satellite). The exchange table above is
  /// tuned for Θ(log w) pairwise rounds: multiple narrow layers, long
  /// capture spins. Aggregation collapses the tree into one flat list per
  /// representative, so depth buys nothing — one WIDE layer minimizes the
  /// chance that two representatives split a burst, and the tunable that
  /// matters is the open-window length, scaled with expected concurrency.
  static FunnelParams for_procs(u32 nprocs, FunnelProtocol proto) {
    if (proto == FunnelProtocol::kExchange) return for_procs(nprocs);
    FunnelParams p;
    p.protocol = FunnelProtocol::kAggregate;
    p.levels = 1;
    p.attempts = 2; // slot churn resolves by joining, not by re-colliding
    const u32 w = nprocs / 8;
    p.width[0] = w >= 1 ? w : 1;
    for (u32 d = 1; d < kMaxFunnelLevels; ++d) p.width[d] = 1;
    const u32 scaled = 2 * nprocs;
    p.agg_wait = 16 + (scaled < 512 ? scaled : 512);
    return p;
  }
};

} // namespace fpq
