#include "sim/memory.hpp"

#include <cmath>

namespace fpq::sim {

Mesh::Mesh(u32 nodes) {
  FPQ_ASSERT(nodes >= 1);
  side = 1;
  while (side * side < nodes) ++side;
}

u32 Mesh::hops(u32 a, u32 b) const {
  const u32 ax = a % side, ay = a / side;
  const u32 bx = b % side, by = b / side;
  const u32 dx = ax > bx ? ax - bx : bx - ax;
  const u32 dy = ay > by ? ay - by : by - ay;
  return dx + dy;
}

bool WordTable::erase(u64 raw) {
  std::size_t i = index(raw);
  while (slots_[i].raw != raw) {
    if (slots_[i].raw == kEmpty) return false;
    i = (i + 1) & mask();
  }
  // Pull back every later entry of the probe run that may sit at `i`: one
  // whose home slot is not cyclically after `i`.
  for (std::size_t j = (i + 1) & mask(); slots_[j].raw != kEmpty; j = (j + 1) & mask()) {
    const std::size_t h = index(slots_[j].raw);
    if (((j - h) & mask()) >= ((j - i) & mask())) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  --size_;
  return true;
}

void WordTable::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  size_ = 0;
  for (const Slot& s : old)
    if (s.raw != kEmpty) find_or_insert(s.raw, s.ordinal);
}

MemoryModel::MemoryModel(u32 nprocs, const MachineParams& params)
    : nprocs_(nprocs), sharer_words_((nprocs + 63) / 64), params_(params), mesh_(nprocs),
      module_free_(nprocs, 0) {
  FPQ_ASSERT_MSG(nprocs >= 1 && nprocs <= kMaxSimProcs, "processor count out of range");
}

void MemoryModel::add_line() {
  if ((next_key_ & (kChunkLines - 1)) == 0) {
    line_chunks_.push_back(std::make_unique<Line[]>(kChunkLines));
    sharer_chunks_.push_back(std::make_unique<u64[]>(kChunkLines * sharer_words_));
  }
  ++next_key_;
}

AccessResult MemoryModel::access(ProcId proc, const void* addr, AccessKind kind,
                                 Cycles now) {
  const u64 k = key(addr);
  Line& L = line(k);
  SharerSet S = sharers(k);
  AccessResult r;
  r.word_key = k;

  switch (kind) {
    case AccessKind::Read: ++stats_.reads; break;
    case AccessKind::Write: ++stats_.writes; break;
    case AccessKind::Rmw: ++stats_.rmws; break;
  }

  const bool read = (kind == AccessKind::Read);
  const bool have_m = (L.state == Line::State::Modified && L.owner == proc);
  const bool have_s = (L.state == Line::State::SharedClean && S.test(proc));

  if (read ? (have_m || have_s) : have_m) {
    // Cache hit; no directory traffic.
    ++stats_.hits;
    r.completion = now + params_.t_hit;
    r.hit = true;
  } else {
    ++stats_.misses;
    const u32 m = home(k);
    const Cycles to_home = one_way(proc, m);
    const Cycles arrive = now + to_home;
    const Cycles start = std::max(arrive, module_free_[m]);
    stats_.module_wait_cycles += start - arrive;

    Cycles service = params_.t_mem;
    if (L.state == Line::State::Modified && L.owner != proc)
      service += params_.t_dirty_fetch;

    if (!read) {
      // Invalidate every other cached copy.
      u32 victims = S.count_excluding(proc);
      if (L.state == Line::State::Modified && L.owner != proc && !S.test(L.owner))
        ++victims; // defensive: owner should be in sharers, but count it once
      if (victims > 0) {
        service += params_.t_inv_base + params_.t_inv_per_sharer * victims;
        stats_.invalidations += victims;
      }
    }

    module_free_[m] = start + params_.t_occ;
    const Cycles back = one_way(m, proc);
    stats_.network_cycles += to_home + back;
    r.completion = start + service + back;
    r.hit = false;
  }

  // Directory state transition (applied at issue; see DESIGN.md).
  if (read) {
    if (!r.hit) {
      if (L.state == Line::State::Modified) {
        // Owner is downgraded to a sharer.
        L.state = Line::State::SharedClean;
        S.clear();
        S.set(L.owner);
        L.owner = kNoProc;
      } else if (L.state == Line::State::Idle) {
        L.state = Line::State::SharedClean;
      }
      S.set(proc);
    }
  } else {
    L.state = Line::State::Modified;
    L.owner = proc;
    S.clear();
    S.set(proc);
    ++L.version;
    if (!L.waiters.empty()) r.woken = std::move(L.waiters);
  }
  return r;
}

} // namespace fpq::sim
