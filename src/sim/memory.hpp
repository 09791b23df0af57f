// Shared-memory timing model: word-granularity directory MSI coherence over
// a 2-D mesh of processor/memory nodes, with per-module occupancy queueing.
//
// The model is intentionally word-granular (8-byte "lines"): the paper's
// structures are padded anyway, and word granularity means host-allocator
// layout cannot introduce accidental false sharing into the measurements.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/params.hpp"

namespace fpq::sim {

inline constexpr ProcId kNoProc = ~0u;

enum class AccessKind : u8 { Read, Write, Rmw };

/// Sharer bits of one directory line: a view of words the MemoryModel
/// stores outside the Line, one bit per processor of the machine.
class SharerSet {
 public:
  SharerSet(u64* words, u32 nwords) : w_(words), n_(nwords) {}
  void set(ProcId p) { w_[p >> 6] |= 1ull << (p & 63); }
  void reset(ProcId p) { w_[p >> 6] &= ~(1ull << (p & 63)); }
  bool test(ProcId p) const { return (w_[p >> 6] >> (p & 63)) & 1; }
  void clear() { std::fill_n(w_, n_, 0); }
  u32 count() const {
    u32 n = 0;
    for (u32 i = 0; i < n_; ++i) n += static_cast<u32>(__builtin_popcountll(w_[i]));
    return n;
  }
  /// Number of sharers other than `p`.
  u32 count_excluding(ProcId p) const { return count() - (test(p) ? 1u : 0u); }

 private:
  u64* w_;
  u32 n_;
};

/// Directory state for one shared word (its sharers are kept beside it,
/// see MemoryModel::sharers).
struct Line {
  enum class State : u8 { Idle, SharedClean, Modified };
  State state = State::Idle;
  ProcId owner = kNoProc; // valid when Modified
  /// Bumped on every write/RMW; used by the engine's spin-wait protocol to
  /// close the race between "value observed stale" and "waiter registered".
  u64 version = 0;
  /// Processors parked in Platform::spin_until on this word.
  std::vector<ProcId> waiters;
};

/// Map from a raw word (address >> 3) to its first-touch ordinal: open
/// addressing with linear probing, and backward-shift erase, so it needs
/// no tombstones. One probe sequence per access.
class WordTable {
 public:
  WordTable() : slots_(kMinSlots) {}

  /// The ordinal stored for `raw`; when absent, stores `fresh` and reports
  /// the insertion.
  std::pair<u64, bool> find_or_insert(u64 raw, u64 fresh) {
    for (std::size_t i = index(raw);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.raw == raw) return {s.ordinal, false};
      if (s.raw != kEmpty) continue;
      if ((size_ + 1) * 4 > slots_.size() * 3) {
        grow();
        return find_or_insert(raw, fresh);
      }
      s = Slot{raw, fresh};
      ++size_;
      return {fresh, true};
    }
  }

  /// Forgets `raw`; false when it was absent.
  bool erase(u64 raw);

  std::size_t size() const { return size_; }

 private:
  static constexpr u64 kEmpty = ~0ull; // no word address shifts to this
  static constexpr std::size_t kMinSlots = 64;
  struct Slot {
    u64 raw = kEmpty;
    u64 ordinal = 0;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t index(u64 raw) const {
    return static_cast<std::size_t>((raw * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  u32 shift_ = 58; // 64 - log2(slots_.size())
};

struct AccessResult {
  Cycles completion = 0;
  bool hit = false;
  /// The word's replay-stable key (MemoryModel::word_key).
  u64 word_key = 0;
  /// Non-null when the access was a write/RMW and waiters were parked on the
  /// line; the engine must wake them at `completion` and then the list is
  /// already cleared.
  std::vector<ProcId> woken;
};

struct MemStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 rmws = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 invalidations = 0;
  /// Total cycles requests spent queued behind busy modules. This is the
  /// direct measure of hot-spot contention.
  u64 module_wait_cycles = 0;
  /// Total cycles of network transit.
  u64 network_cycles = 0;
};

/// 2-D mesh geometry helpers, exposed for tests.
struct Mesh {
  explicit Mesh(u32 nodes);
  u32 side = 1;
  u32 hops(u32 a, u32 b) const;
};

class MemoryModel {
 public:
  MemoryModel(u32 nprocs, const MachineParams& params);

  /// Performs the timing + directory effects of one access issued by `proc`
  /// at local time `now`. The *data* effect is applied by the caller at
  /// issue time; this routine only accounts for time and coherence state.
  AccessResult access(ProcId proc, const void* addr, AccessKind kind, Cycles now);

  /// Version counter of the word's line (created Idle on first touch).
  u64 line_version(const void* addr) { return line(key(addr)).version; }

  /// Parks `proc` as a spin-waiter on the word.
  void add_waiter(const void* addr, ProcId proc) { line(key(addr)).waiters.push_back(proc); }

  /// Drops every parked spin-waiter registration. Fault-plan teardown only:
  /// a faulted run may end with fibers parked forever, and their stale
  /// registrations must not be "woken" by a later run's writes.
  void clear_waiters() {
    for (u64 k = 0; k < next_key_; ++k) line(k).waiters.clear();
  }

  const MemStats& stats() const { return stats_; }
  const MachineParams& params() const { return params_; }

  /// Replay-stable identifier of a word: its first-touch ordinal (see
  /// key()). The race detector stamps reports with this, so a report from
  /// a replayed scenario names the same word in every process.
  u64 word_key(const void* addr) { return key(addr); }

  /// Directory introspection for tests.
  Line::State state_of(const void* addr) { return line(key(addr)).state; }
  u32 sharer_count(const void* addr) { return sharers(key(addr)).count(); }
  ProcId owner_of(const void* addr) { return line(key(addr)).owner; }
  u32 home_of(const void* addr) { return home(key(addr)); }

 private:
  // Lines and their sharer words live in chunks indexed by key, so a line
  // never moves and costs no allocation of its own.
  static constexpr u32 kChunkShift = 10;
  static constexpr u64 kChunkLines = u64{1} << kChunkShift;

  // Word keys are *first-touch ordinals*, not raw addresses: the i-th
  // distinct word a run touches gets key i. Execution thus depends only on
  // (program, machine params, seed) — never on host allocator layout or
  // ASLR — which is what makes a stress counterexample spec replayable in
  // a fresh process (see verify/stress.hpp). A new key comes with its
  // Idle line.
  u64 key(const void* addr) {
    const u64 raw = reinterpret_cast<std::uintptr_t>(addr) >> 3;
    const auto [k, fresh] = words_.find_or_insert(raw, next_key_);
    if (fresh) add_line();
    return k;
  }
  void add_line();
  Line& line(u64 k) { return line_chunks_[k >> kChunkShift][k & (kChunkLines - 1)]; }
  SharerSet sharers(u64 k) {
    return SharerSet(&sharer_chunks_[k >> kChunkShift][(k & (kChunkLines - 1)) * sharer_words_],
                     sharer_words_);
  }
  u32 home(u64 k) const {
    // Fibonacci mixing so consecutive words interleave across modules.
    return static_cast<u32>((k * 0x9e3779b97f4a7c15ull) >> 40) % nprocs_;
  }
  Cycles one_way(u32 a, u32 b) const {
    return params_.t_net_base + params_.t_hop * mesh_.hops(a, b);
  }

  u32 nprocs_;
  u32 sharer_words_; // words of sharer bits per line: one bit per processor
  MachineParams params_;
  Mesh mesh_;
  std::vector<Cycles> module_free_; // per-module: time the module is next idle
  WordTable words_;                 // raw word -> key
  u64 next_key_ = 0;
  std::vector<std::unique_ptr<Line[]>> line_chunks_;
  std::vector<std::unique_ptr<u64[]>> sharer_chunks_;
  MemStats stats_;
};

} // namespace fpq::sim
