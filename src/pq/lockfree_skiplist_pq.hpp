// Lock-free skiplist priority queue in the style of Lindén & Jonsson
// (OPODIS 2013): delete_min marks (logically deletes) nodes with a single
// CAS on the predecessor's bottom-level pointer and defers all physical
// unlinking; marked nodes accumulate as a *deleted prefix* at the front of
// the bottom-level list, and one restructuring pass per ~bound deletions
// (kRestructureBound = 4, measured) swings the list head past the whole
// prefix at once — the "logically-deleted prefix batching" that removes
// the delete-min unlink storm from the hot path. The bound also caps the
// prefix every delete_min walks, and each hop of that walk is a fenced
// hazard publish, so a short prefix pays for its extra restructures.
// Nodes leave memory through reclaim::Domain (hazard pointers).
//
// ## Node layout
//
// A node is one allocation: a 24-byte header (key, item, height, state)
// followed by exactly `height` tower words, so alloc and dealloc both pass
// Node::bytes(height). Heights are geometric (mean 2), so a typical node
// is 40 bytes rather than the 120 a kMaxHeight array would take. Only the
// head and tail sentinels carry all kMaxHeight levels. No code reads a
// word at or above a node's own height: a node is reached at level l only
// through a level-l list, which only nodes taller than l join.
//
// ## Word format
//
// Every tower word packs a node pointer with two low tag bits:
//
//   kMarkBit   (on u->next(0)) — the node u->next(0) POINTS TO is
//              logically deleted. Marks are claimed by the deleting CAS
//              (w -> w|kMarkBit) and, because inserts always CAS against
//              an unmarked expected word and claims always target the
//              first live node, marked words form a contiguous prefix of
//              the bottom-level chain.
//   kPoisonBit (all levels) — the word's OWNER is being retired by the
//              restructurer; any traversal that reads a poisoned word
//              backs off (P::pause) and restarts from the head. The
//              restart is bounded: the restructurer unlinks the poisoned
//              node from every level in a constant number of its own
//              steps, after which no fresh traversal can reach it. The
//              pause is load-bearing, not a nicety — a poisoned word
//              never changes again, so a pause-less restart loop re-reads
//              only cache-hit words and (under the simulator's hit-elision
//              scheduling, engine.cpp) would never yield the processor
//              that must run the restructurer. Same doctrine as the
//              contention-aware spinning contract in DESIGN.md §8.
//
// ## Safety of the deferred unlink (the part the reclaim battery tortures)
//
// Traversals run hand-over-hand under a reclaim::Guard: each hop validates
// the predecessor's word while publishing protection for the successor.
// A hop costs one seq_cst publish: the two hop slots
// rotate, so the new pred keeps the hazard it got as the successor. A
// search promotes into its per-level slots only the preds the insert will
// splice at (levels below the new tower's height, each distinct pred
// once).
// The restructurer processes its unlinked prefix in chain order (every
// node in it fully linked, see Node::state below) — for each node u it
// retires each upper level with a two-phase, Harris-style handshake:
//
//   phase 1 (poison_preserving) — CAS the poison bit into u's OWN level
//   word while PRESERVING the successor pointer. From this point every
//   splice CAS that uses u as a predecessor fails (expected words are
//   clean), so no new pointer can be installed *out of* u; splices that
//   still hold u as the expected *successor* remain possible and benign.
//
//   phase 2 (unlink_upper) — identity-walk from the head to u's current
//   predecessor and CAS u out, installing u's preserved successor. The
//   successor is re-read after the poison point, so a splice that landed
//   just before phase 1 is carried over, and a splice that lands on the
//   predecessor concurrently simply makes the walk retry against the new
//   predecessor. Without phase 1 an insert could splice onto u in the
//   unlink-to-retire window and orphan the new node on a freed tower.
//
// Only after every upper level is unlinked does the bottom word get
// poisoned (seq_cst) and the node retired. This gives the
// store-buffering argument (DESIGN.md §8.2): a reader's
// validating load either observes the poison (it restarts) or precedes it
// in the SC order — and since poisoning a node precedes retiring every
// LATER chain node, the reader's already-published hazard is visible to
// any scan that could free its successor.
//
// Insert raises the tower level by level after the bottom splice; a node
// deleted mid-insert can meet the restructurer, which must not retire it
// while splices are still landing — Node::state (0 = raising, 1 = fully
// linked) marks it. The restructurer does not wait for it either: it
// retires only the prefix in front of the first still-raising node and
// makes that node the new front, so nothing behind it is touched until a
// later restructure finds it linked.
//
// Semantics: linearizable delete_min (the claiming CAS is the
// linearization point; it always claims the first live node) and exact
// per-operation minimality in the quiescent sense of Appendix B. The
// quiescent phase-rank checks apply in full (unlike SkipListPq's
// delete-bin scheme).
//
// ## Fault tolerance (DESIGN.md §12)
//
// The queue is classified lock-free: a fail-stopped processor must not
// prevent survivors from completing inserts and delete_mins. Three spots
// carry that guarantee:
//
//   * search never *adopts* a node whose level word is poisoned as a pred
//     (skip-before rule, see search()); if a restructurer dies between
//     poisoning a level and unlinking it, the poisoned node just stays in
//     that level's list forever — traversals step around it instead of
//     restarting into it unboundedly. Bottom-level poison still restarts,
//     which stays bounded because bottom poison is only ever applied to
//     nodes already unlinked from every list.
//   * restructure never waits for an in-flight inserter (Node::state): it
//     stops in front of a still-raising node, so a crashed inserter only
//     stops the prefix from shrinking past its node. Every node the head
//     swing unlinks must then be retired: a node left behind keeps its
//     upper-level links and unpoisoned words, and a traversal validating
//     through it could reach a successor freed long before. A crashed
//     *restructurer* leaves the restructuring_ flag set, which only stops
//     future physical cleanup; logical operation continues (the prefix
//     merely stops shrinking).
//   * node memory comes from P::try_alloc: an injected allocation failure
//     makes insert return false / try_insert return kNoMemory with the
//     structure untouched and the node freed — no leak, no torn tower.
//
// After a crash, a survivor (or the harness) must call adopt_orphans() so
// the dead processor's hazard slots and limbo are taken over;
// see reclaim.hpp.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <optional>

#include "common/assert.hpp"
#include "common/entry.hpp"
#include "common/padded.hpp"
#include "common/types.hpp"
#include "platform/platform.hpp"
#include "pq/pq.hpp"
#include "reclaim/reclaim.hpp"

namespace fpq {

template <Platform P>
class LockfreeSkipListPq {
  template <class T>
  using Shared = typename P::template Shared<T>;

 public:
  static constexpr u32 kMaxHeight = 12;

  explicit LockfreeSkipListPq(const PqParams& params)
      : npriorities_(params.npriorities),
        domain_(params.maxprocs, {.slots_per_proc = kSlots, .tag_mask = kTagMask}) {
    params.validate();
    head_ = alloc_node(0, 0, kMaxHeight);
    tail_ = alloc_node(npriorities_, 0, kMaxHeight);
    FPQ_ASSERT_MSG(head_ != nullptr && tail_ != nullptr, "sentinel allocation failed");
    head_->state.store_relaxed(1); // sentinels are never "being inserted"
    tail_->state.store_relaxed(1);
    for (u32 l = 0; l < kMaxHeight; ++l) head_->next(l).store_relaxed(pack(tail_));
  }

  ~LockfreeSkipListPq() {
    // Quiescent teardown: everything still linked at the bottom level (live
    // nodes plus the not-yet-restructured deleted prefix) is owned by the
    // list; retired nodes were unlinked first, so the sets are disjoint and
    // the domain's destructor frees the latter.
    Node* cur = ptr(head_->next(0).load_acquire());
    while (cur != tail_) {
      Node* nxt = ptr(cur->next(0).load_acquire());
      free_node(cur); // quiescent owner teardown
      cur = nxt;
    }
    free_node(head_);
    free_node(tail_);
  }

  LockfreeSkipListPq(const LockfreeSkipListPq&) = delete;
  LockfreeSkipListPq& operator=(const LockfreeSkipListPq&) = delete;

  bool insert(Prio prio, Item item) {
    FPQ_ASSERT_MSG(prio < npriorities_, "priority outside the bounded range");
    u32 h = 1;
    while (h < kMaxHeight && P::flip()) ++h;
    Node* n = alloc_node(prio, item, h);
    if (n == nullptr) return false; // allocation failure: structure untouched
    reclaim::Guard<P> g(domain_);
    Node* preds[kMaxHeight];
    u64 succs[kMaxHeight];
    // contract-lint: allow(naked-spin) lock-free retry: the splice CAS
    // fails only when a concurrent splice/claim/poison committed.
    for (;;) {
      search(g, prio, h, preds, succs);
      // Pre-publication store; the splice CAS below releases it.
      n->next(0).store_relaxed(succs[0]);
      u64 expect = succs[0]; // search guarantees an unmarked, unpoisoned word
      if (preds[0]->next(0).compare_exchange(expect, pack(n), MemOrder::kRelease,
                                             MemOrder::kRelaxed)) {
        break;
      }
    }
    // Raise the tower. A poisoned or moved pred word simply fails the CAS
    // (expected is clean) and we re-search; correctness never depends on a
    // node being present above level 0, so lost upper splices are benign.
    for (u32 l = 1; l < h; ++l) {
      // contract-lint: allow(naked-spin) lock-free retry (see above)
      for (;;) {
        n->next(l).store_release(succs[l]);
        u64 expect = succs[l];
        if (preds[l]->next(l).compare_exchange(expect, pack(n), MemOrder::kRelease,
                                               MemOrder::kRelaxed)) {
          break;
        }
        search(g, prio, h, preds, succs);
      }
    }
    n->state.store_release(1); // the restructurer may now unlink/retire n
    return true;
  }

  std::optional<Entry> delete_min() {
    reclaim::Guard<P> g(domain_);
  restart:
    Node* pred = head_; // never retired: needs no hazard
    u32 cs = kSlotHop;  // the hop slot holding ptr(w); the other holds pred
    u64 w = g.protect(cs, pred->next(0));
    u32 offset = 0;
    for (;;) {
      if (poisoned(w)) {
        P::pause(); // see the kPoisonBit comment: backoff keeps this bounded
        goto restart;
      }
      Node* x = ptr(w);
      if (x == tail_) return std::nullopt; // no live node (prefix is deleted)
      if (marked(w)) {
        // Hop over the deleted prefix, hand-over-hand: x stays in its
        // slot as the new pred, the old pred's slot takes the successor.
        ++offset;
        pred = x;
        cs = other_hop_slot(cs);
        w = g.protect(cs, pred->next(0));
        continue;
      }
      u64 expect = w;
      if (pred->next(0).compare_exchange(expect, w | kMarkBit, MemOrder::kAcqRel,
                                         MemOrder::kRelaxed)) {
        // Claimed the first live node: the linearization point.
        ++offset;
        const Entry e{static_cast<Prio>(x->key), x->item};
        if (offset > kRestructureBound) restructure(g, x);
        return e;
      }
      if (poisoned(expect)) {
        P::pause();
        goto restart;
      }
      // Lost to an insert in front of us or to another claim; re-protect
      // the new successor and retry from the same pred.
      w = g.protect(cs, pred->next(0));
    }
  }

  // Bounded-wait variants (DESIGN.md §12). The structure is lock-free, so
  // the budget is charged only on contention — CAS losses and poison
  // restarts — never on parking; both ops are pre-commit (kTimeout /
  // kEmpty / kNoMemory consumed and inserted nothing). try_insert's commit
  // point is the bottom splice; a budget that runs out during the tower
  // raise abandons the remaining levels, which is benign (correctness
  // never depends on presence above level 0).
  PqStatus try_insert(Prio prio, Item item, const TryBudget& budget) {
    FPQ_ASSERT_MSG(prio < npriorities_, "priority outside the bounded range");
    TryClock<P> clock(budget);
    u32 h = 1;
    while (h < kMaxHeight && P::flip()) ++h;
    Node* n = alloc_node(prio, item, h);
    if (n == nullptr) return PqStatus::kNoMemory; // untorn: nothing published
    reclaim::Guard<P> g(domain_);
    Node* preds[kMaxHeight];
    u64 succs[kMaxHeight];
    for (;;) {
      search(g, prio, h, preds, succs);
      n->next(0).store_relaxed(succs[0]);
      u64 expect = succs[0];
      if (preds[0]->next(0).compare_exchange(expect, pack(n), MemOrder::kRelease,
                                             MemOrder::kRelaxed)) {
        break;
      }
      if (!clock.tick_backoff()) {
        free_node(n); // never published: direct free, no retire needed
        return PqStatus::kTimeout;
      }
    }
    for (u32 l = 1; l < h; ++l) {
      for (;;) {
        n->next(l).store_release(succs[l]);
        u64 expect = succs[l];
        if (preds[l]->next(l).compare_exchange(expect, pack(n), MemOrder::kRelease,
                                               MemOrder::kRelaxed)) {
          break;
        }
        if (!clock.tick_backoff()) {
          l = h; // committed at the bottom; abandon the remaining levels
          break;
        }
        search(g, prio, h, preds, succs);
      }
    }
    n->state.store_release(1);
    return PqStatus::kOk;
  }

  PqStatus try_delete_min(Entry& out, const TryBudget& budget) {
    TryClock<P> clock(budget);
    reclaim::Guard<P> g(domain_);
  restart:
    Node* pred = head_; // the hop slots rotate exactly as in delete_min
    u32 cs = kSlotHop;
    u64 w = g.protect(cs, pred->next(0));
    u32 offset = 0;
    for (;;) {
      if (poisoned(w)) {
        if (!clock.tick_backoff()) return PqStatus::kTimeout;
        goto restart;
      }
      Node* x = ptr(w);
      if (x == tail_) return PqStatus::kEmpty;
      if (marked(w)) {
        // Prefix hops are plain walk progress (bounded by the prefix
        // length), not contention; they are not charged to the budget.
        ++offset;
        pred = x;
        cs = other_hop_slot(cs);
        w = g.protect(cs, pred->next(0));
        continue;
      }
      u64 expect = w;
      if (pred->next(0).compare_exchange(expect, w | kMarkBit, MemOrder::kAcqRel,
                                         MemOrder::kRelaxed)) {
        ++offset;
        out = Entry{static_cast<Prio>(x->key), x->item};
        if (offset > kRestructureBound) restructure(g, x); // post-commit
        return PqStatus::kOk;
      }
      if (!clock.tick_backoff()) return PqStatus::kTimeout;
      if (poisoned(expect)) goto restart;
      w = g.protect(cs, pred->next(0));
    }
  }

  /// Fault-battery hook: after processor `dead` fail-stopped, a survivor
  /// (or the teardown path) takes over its reclamation state — stale
  /// hazards and limbo — so reclamation unwedges and the
  /// domain can be destroyed cleanly. See reclaim::Domain::adopt_orphans.
  void adopt_orphans(ProcId dead, ProcId adopter) { domain_.adopt_orphans(dead, adopter); }

  u32 npriorities() const { return npriorities_; }

  /// Reclamation accounting, surfaced for the torture tests.
  reclaim::DomainStats reclaim_stats() const { return domain_.stats(); }

 private:
  static constexpr u64 kMarkBit = 1;
  static constexpr u64 kPoisonBit = 2;
  static constexpr u64 kTagMask = kMarkBit | kPoisonBit;
  /// Claims a delete_min may walk before the claimer restructures: the
  /// deleted prefix a walk hops over stays near this many nodes (plus
  /// what concurrent claims add). One measured value for both platforms:
  /// on the 3-thread hold-sharded-native benchmark, bounds 2 and 4 tie
  /// and 8, 16 and 28 are slower, because every delete_min hops the
  /// whole prefix at one fenced hazard per node (EXPERIMENTS.md). 4
  /// restructures half as often as 2, and it keeps the simulator's
  /// schedule exploration and sequential suites restructuring constantly.
  static constexpr u32 kRestructureBound = 4;

  // Hazard slots: one per level for the search's preds, plus a pair of
  // hop slots for hand-over-hand traversal. The pair rotates: after a hop
  // the new pred stays in the slot that protected it as the successor,
  // and the old pred's slot takes the next successor — one publish per
  // hop. The head sentinel is never retired and is never hazarded.
  static constexpr u32 kSlotHop = kMaxHeight;
  static constexpr u32 kSlots = kMaxHeight + 2;
  static_assert(kSlotHop % 2 == 0, "other_hop_slot flips the low bit");
  static constexpr u32 other_hop_slot(u32 s) { return s ^ 1; }

  /// A 24-byte header followed in the same allocation by exactly `height`
  /// tower words (see "Node layout" in the file comment).
  struct Node {
    const u64 key;
    const u64 item;
    const u32 height;
    /// 0 while the insert is still raising the tower; 1 once fully linked.
    Shared<u32> state;
    Node(u64 k, u64 it, u32 h) : key(k), item(it), height(h) {}

    static constexpr std::size_t bytes(u32 h) { return sizeof(Node) + h * sizeof(Shared<u64>); }
    /// Level l's word; only l < height exists.
    Shared<u64>& next(u32 l) {
      return *std::launder(reinterpret_cast<Shared<u64>*>(this + 1) + l);
    }
  };
  static_assert(sizeof(Node) == 24 && sizeof(Node) % alignof(Shared<u64>) == 0,
                "the tower words follow the header unpadded and aligned");

  static Node* ptr(u64 w) { return reinterpret_cast<Node*>(w & ~kTagMask); }
  static u64 pack(Node* n) { return reinterpret_cast<u64>(n); }
  static bool marked(u64 w) { return (w & kMarkBit) != 0; }
  static bool poisoned(u64 w) { return (w & kPoisonBit) != 0; }

  // Node memory goes through the platform allocator so the fault engine
  // can inject allocation failure and the counting allocator can audit the
  // queue for leaks/double-frees (sim backend, DESIGN.md §12).
  static Node* alloc_node(u64 k, u64 it, u32 h) {
    void* mem = P::try_alloc(Node::bytes(h));
    if (mem == nullptr) return nullptr;
    Node* n = new (mem) Node(k, it, h);
    std::uninitialized_default_construct_n(reinterpret_cast<Shared<u64>*>(n + 1), h);
    return n;
  }

  static void free_node(Node* n) {
    const u32 h = n->height;
    std::destroy_n(&n->next(0), h);
    n->~Node();
    P::dealloc(n, Node::bytes(h));
  }

  static void retire_node(reclaim::Guard<P>& g, Node* n) {
    g.retire(n, [](void* q) { free_node(static_cast<Node*>(q)); });
  }

  /// Find, per level, the last node with key <= `key` among live nodes
  /// (the bottom level additionally skips the whole deleted prefix, whose
  /// keys are no longer ordered relative to the live suffix). On return
  /// succs[l] is the clean word that followed preds[l]; succs[0] is always
  /// unmarked and unpoisoned, so it is a valid CAS-expected value for a
  /// splice. Only the levels an insert of height `h` splices into are
  /// protected: each preds[l] with l < h is the head or is held by the
  /// level slot it was last promoted into — slot l, or a higher level's
  /// slot when it was that level's pred too.
  void search(reclaim::Guard<P>& g, u64 key, u32 h, Node** preds, u64* succs) {
  restart:
    Node* pred = head_; // never retired: needs no hazard
    u32 cs = kSlotHop;  // the hop slot holding ptr(w); the other holds pred
    Node* promoted = head_; // the pred last promoted into a level slot
    for (i32 l = kMaxHeight - 1; l >= 0; --l) {
      const u32 ul = static_cast<u32>(l);
      u64 w = g.protect(cs, pred->next(ul));
      for (;;) {
        if (poisoned(w)) {
          // `pred`'s own level-l word is poisoned: pred is mid-retirement.
          // Bottom level: restart the search — bottom poison is applied
          // only to nodes already unlinked from every list, so a fresh
          // walk cannot re-reach them and the restart is bounded even if
          // the poisoner crashed. Upper level: the poison may be permanent
          // (a dead restructurer never reaches phase 2), so restarting
          // would livelock; instead re-scan just this level from the head,
          // where the skip-before rule below steps around poisoned nodes.
          // The pause is load-bearing under the simulator's hit-elision
          // scheduling (see the kPoisonBit file comment).
          if (l == 0) {
            P::pause();
            goto restart;
          }
          pred = head_;
          w = g.protect(cs, pred->next(ul));
          continue;
        }
        Node* cur = ptr(w);
        const bool advance = cur != tail_ && (marked(w) || cur->key <= key);
        if (!advance) break;
        if (l > 0 && poisoned(cur->next(ul).load_acquire())) {
          // Skip-before rule (upper levels): `cur` is being retired here.
          // Its word still names the preserved successor, so the list
          // stays navigable, but no CAS against it can ever succeed — so
          // never adopt it as a pred. Stop the level early instead:
          // preds[l] only needs a clean word and key <= target; level 0 is
          // authoritative for position, and if the early stop makes this
          // level locally unsorted that costs a longer lower-level walk,
          // not correctness. The load is advisory — poison landing after
          // it is caught by the poisoned(w) arm above on the next read.
          break;
        }
        pred = cur; // stays in cs; the old pred's slot takes the successor
        cs = other_hop_slot(cs);
        w = g.protect(cs, pred->next(ul));
      }
      preds[l] = pred;
      succs[l] = w;
      if (ul < h && pred != promoted) {
        g.protect_value(ul, pack(pred)); // pred is held by the other hop slot
        promoted = pred;
      }
    }
  }

  /// Physically remove the deleted prefix strictly before `boundary` (the
  /// node the calling delete_min just claimed, which becomes the new front
  /// dummy). Serialized by restructuring_; only the flag holder retires
  /// nodes, so its own walks need no per-hop hazards.
  void restructure(reclaim::Guard<P>& g, Node* boundary) {
    u32 expect_flag = 0;
    if (!restructuring_.value.compare_exchange(expect_flag, 1, MemOrder::kAcqRel,
                                               MemOrder::kRelaxed))
      return;
    // Walk the prefix to `boundary`, which becomes the new front dummy —
    // unless the walk first meets a node whose insert is still raising its
    // tower (Node::state 0). Such a node can still receive upper-level
    // splices, so it may not be retired yet, and it becomes the front
    // instead; a later restructure takes it once it is linked. Nothing
    // waits for it: a crashed inserter only pins the prefix from its node
    // on. If an earlier restructure already swung the head past
    // `boundary`, the walk ends on an unmarked word and we do nothing.
    const u64 first_w = head_->next(0).load_acquire();
    u64 w = first_w;
    while (marked(w) && ptr(w) != boundary && ptr(w)->state.load_acquire() == 1)
      w = ptr(w)->next(0).load_acquire();
    Node* const front = ptr(w);
    if (marked(w) && front != ptr(first_w)) {
      // Swing the head past the prefix. The head's bottom word is stable
      // while the prefix is nonempty — inserts and claims need an unmarked
      // expected value and other restructurers are excluded by the flag —
      // so this CAS cannot lose.
      u64 expect_w = first_w;
      const bool swung = head_->next(0).compare_exchange(
          expect_w, pack(front) | kMarkBit, MemOrder::kAcqRel, MemOrder::kRelaxed);
      FPQ_ASSERT_MSG(swung, "head word moved while the restructure flag was held");
      // Walk the prefix again, retiring in chain order. Its bottom words
      // are stable until this walk poisons them (the mark bit keeps inserts
      // and claims off them, the flag keeps other restructurers out), so
      // the poisoning exchange itself yields the next node.
      for (Node* u = ptr(first_w); u != front;) {
        // Two-phase per-level retirement; see the file comment.
        for (u32 l = 1; l < u->height; ++l) {
          poison_preserving(u, l);
          unlink_upper(u, l);
        }
        // Bottom level: the head swing already unlinked the whole prefix,
        // and the mark bit makes the word un-CAS-able for inserts and
        // claims, so an unconditional poison (seq_cst, §8.2) is enough here.
        Node* next = ptr(u->next(0).exchange(kPoisonBit));
        retire_node(g, u);
        u = next;
      }
    }
    restructuring_.value.store_release(0);
  }

  /// Phase 1 of the two-phase level retirement: set the poison bit on
  /// u's own level-l word while keeping the successor pointer intact.
  /// seq_cst CAS: this is the store whose visibility the hazard-pointer
  /// validating load races against (DESIGN.md §8.2).
  void poison_preserving(Node* u, u32 l) {
    u64 w = u->next(l).load();
    // contract-lint: allow(naked-spin) lock-free retry: the CAS fails only
    // when a concurrent insert spliced a successor after u.
    for (;;) {
      FPQ_ASSERT_MSG(!poisoned(w), "level poisoned twice");
      u64 expect = w;
      if (u->next(l).compare_exchange(expect, w | kPoisonBit)) return;
      w = expect; // an insert spliced a successor after u; re-poison over it
    }
  }

  /// Phase 2: remove `u` from level l's list by identity walk from the
  /// head. The deleted prefix is unordered relative to the live suffix,
  /// so a key-guided walk could stop early; levels are short (geometric),
  /// and this runs once per restructured node per level.
  void unlink_upper(Node* u, u32 l) {
    // contract-lint: allow(naked-spin) lock-free retry: each rewalk follows
    // a failed CAS, which means another unlink or splice committed.
    for (;;) {
      Node* pred = head_;
      u64 w = pred->next(l).load_acquire();
      while (ptr(w) != u) {
        if (ptr(w) == tail_ || poisoned(w)) return; // never spliced, or gone
        pred = ptr(w);
        w = pred->next(l).load_acquire();
      }
      // u's word is already poisoned (phase 1); install the pointer part,
      // re-read after the poison so a just-landed splice is carried over.
      const u64 s = pack(ptr(u->next(l).load_acquire()));
      u64 expect = w;
      if (pred->next(l).compare_exchange(expect, s, MemOrder::kRelease,
                                         MemOrder::kRelaxed)) {
        return;
      }
      // Lost to an insert splicing at pred; rewalk against the new pred.
    }
  }

  u32 npriorities_;
  reclaim::Domain<P> domain_;
  Node* head_;
  Node* tail_;
  Padded<Shared<u32>> restructuring_;
};

} // namespace fpq
