#pragma once
// The mutable overlay-network state: which slots (real/virtual nodes) are
// alive, their ring positions, their three outgoing edge sets, and the
// published closest-real-neighbor variables rl/rr.
//
// Edge sets are kept sorted under the network's total node order
// (position, virtual-before-real, slot id), so the min/max-neighbor guards
// of the protocol rules are binary searches. The order refines the paper's
// "<" on identifiers: ties (measure zero for random ids) are broken
// deterministically.
//
// Change tracking (see DESIGN.md, "Incremental change tracking"): every
// mutator marks the touched slot dirty; consume_round_changes() re-hashes
// only the dirty slots against a per-slot digest baseline, so an unchanged
// round is detected in O(live slots) instead of serializing the whole state.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace rechord::core {

namespace detail {

/// Counter lane the calling thread's Network mutations write (see
/// Network::CounterLaneGuard). 0 outside sharded phases.
inline constinit thread_local unsigned counter_lane = 0;

}  // namespace detail

class Network {
 public:
  /// Builds a network of real peers with the given (distinct) identifiers.
  /// Only the u_0 slots are alive initially and no edges exist; callers add
  /// initial edges (generators) and then run the engine.
  explicit Network(std::span<const RingPos> real_ids);

  // -- owners ---------------------------------------------------------------

  [[nodiscard]] std::uint32_t owner_count() const noexcept {
    return static_cast<std::uint32_t>(owner_pos_.size());
  }
  [[nodiscard]] bool owner_alive(std::uint32_t owner) const noexcept {
    return alive_[slot_of(owner, 0)];
  }
  [[nodiscard]] std::uint32_t alive_owner_count() const noexcept {
    return static_cast<std::uint32_t>(lanes_[0].live_reals);
  }
  [[nodiscard]] RingPos owner_pos(std::uint32_t owner) const noexcept {
    return owner_pos_[owner];
  }
  /// Adds a new peer (all slots dead except u_0); returns the owner id.
  /// The id must be distinct from every live owner's id.
  std::uint32_t add_owner(RingPos id);
  /// Owner ids of all live peers, ascending.
  [[nodiscard]] std::vector<std::uint32_t> live_owners() const;
  /// Allocation-free variant: fills `out` with live owner ids, ascending.
  void live_owners_into(std::vector<std::uint32_t>& out) const;

  // -- slots ----------------------------------------------------------------

  [[nodiscard]] std::uint32_t slot_count() const noexcept {
    return static_cast<std::uint32_t>(alive_.size());
  }
  [[nodiscard]] bool alive(Slot s) const noexcept { return alive_[s]; }
  [[nodiscard]] RingPos pos(Slot s) const noexcept { return pos_[s]; }
  /// Largest live index of this owner (the paper's u_m); 0 when only the
  /// real slot is alive; meaningless for dead owners.
  [[nodiscard]] std::uint32_t max_live_index(std::uint32_t owner) const noexcept;
  /// All live slots, ascending slot id.
  [[nodiscard]] std::vector<Slot> live_slots() const;
  /// Live slots of one owner, ascending index.
  [[nodiscard]] std::vector<Slot> live_slots_of(std::uint32_t owner) const;

  /// Marks a slot alive/dead; returns false when already in that state. Does
  /// not touch edges; the engine's commit pass re-homes or drops references
  /// to dead slots. The flag write is a relaxed atomic store: during the
  /// sharded rule phase add_edge on another thread may read a foreign slot's
  /// flag for dead-reference tracking (any torn-free value is conservative
  /// there), and plain byte writes would be a formal data race with that
  /// read.
  bool set_alive(Slot s, bool alive) {
    if (alive_[s] == static_cast<std::uint8_t>(alive ? 1 : 0)) return false;
    const std::int64_t delta = alive ? 1 : -1;
    std::atomic_ref<std::uint8_t>(alive_[s]).store(
        alive ? 1 : 0, std::memory_order_relaxed);
    CounterLane& c = lane();
    c.live_slots += delta;
    if (is_real_slot(s)) c.live_reals += delta;
    for (int k = 0; k < kEdgeKinds; ++k)
      c.edge_live[k] += delta * static_cast<std::int64_t>(sets_[k][s].size());
    if (!alive) c.dead_refs = true;
    mark_dirty(s);
    return true;
  }

  // -- total order ----------------------------------------------------------

  /// Strict total order used for every "<" in the rules: by position, then
  /// virtual-before-real, then slot id.
  [[nodiscard]] bool before(Slot a, Slot b) const noexcept {
    return order_key(a) < order_key(b);
  }
  [[nodiscard]] OrderKey order_key(Slot s) const noexcept {
    return {pos_[s],
            (static_cast<std::uint64_t>(is_real_slot(s) ? 1U : 0U) << 32) | s};
  }

  // -- edge sets ------------------------------------------------------------

  [[nodiscard]] const std::vector<Slot>& edges(Slot s,
                                               EdgeKind k) const noexcept {
    return sets_[static_cast<std::size_t>(k)][s];
  }
  /// Inserts (s -> target); returns false for self-edges and duplicates.
  /// CONTRACT (the scheduler's translation closure leans on this, DESIGN.md
  /// §6.6): a duplicate insertion is a complete no-op -- no dirty mark, no
  /// digest movement, no reader wake. The engine injects the cached ops of
  /// emit-only ("boundary") peers into the commit, where deliveries into
  /// still-resting targets re-add edges that are already present; because
  /// those arrivals leave the change tracking untouched, the injection
  /// cannot wake anyone spuriously and a fixpoint round stays a fixpoint.
  bool add_edge(Slot s, EdgeKind k, Slot target);
  /// Inserts (s -> t) for every t in `targets` in one merge pass; `targets`
  /// must be sorted by order_key and free of duplicates. Equivalent to
  /// calling add_edge per target; returns the number actually inserted.
  /// Same contract as add_edge: when nothing is actually inserted (all
  /// duplicates), no dirty mark is left behind.
  std::size_t add_edges_bulk(Slot s, EdgeKind k, std::span<const Slot> targets);
  /// Removes (s -> target); returns false if absent.
  bool remove_edge(Slot s, EdgeKind k, Slot target);
  [[nodiscard]] bool has_edge(Slot s, EdgeKind k, Slot target) const noexcept;
  /// Clears all three sets of `s`; returns false when they were empty.
  bool clear_edges(Slot s);

  // -- published closest-real-neighbor variables (previous round) ------------

  [[nodiscard]] Slot rl(Slot s) const noexcept { return rl_[s]; }
  [[nodiscard]] Slot rr(Slot s) const noexcept { return rr_[s]; }
  void set_rl(Slot s, Slot v) noexcept {
    if (rl_[s] == v) return;
    rl_[s] = v;
    if (v != kInvalidSlot && !alive_[v]) lane().dead_refs = true;
    mark_dirty(s);
  }
  void set_rr(Slot s, Slot v) noexcept {
    if (rr_[s] == v) return;
    rr_[s] = v;
    if (v != kInvalidSlot && !alive_[v]) lane().dead_refs = true;
    mark_dirty(s);
  }

  // -- whole-state operations -------------------------------------------------

  /// Rewrites every reference to a dead slot to the owning peer's u_m (a dead
  /// owner's references are dropped), removes self-edges and duplicates.
  /// Physically, an edge to a virtual node is a connection to the peer that
  /// simulates it, so the peer re-homes links for deleted siblings.
  /// No-op unless a mutation since the last normalize() could have introduced
  /// a dead reference (slot death, or an edge/rl/rr stored to a dead slot).
  void normalize();

  /// Deterministic serialization of the full state (alive flags, edges,
  /// rl/rr): the exact reference the incremental fixpoint detector is
  /// tested against.
  [[nodiscard]] std::vector<std::uint64_t> serialize_state() const;

  /// 64-bit digest of serialize_state() (for cheap change tracking).
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  // -- incremental change tracking -------------------------------------------

  /// True iff some dirty slot's state differs from the digest baseline, i.e.
  /// when serialize_state() would differ from its value at the last baseline
  /// point (equivalence holds up to a 64-bit digest collision, ~2^-64 per
  /// dirty slot -- a serialize_state() comparison is exact). Clears the
  /// dirty marks and advances the baseline to the current state. O(live
  /// slots) when nothing changed.
  bool consume_round_changes();

  /// Like consume_round_changes(), but additionally reports (appends) the
  /// owners affected by the round's changes, split by visibility class --
  /// the wake inputs of the engine's active-set scheduler (DESIGN.md §6):
  ///   * `changed_owners`: owners with ANY slot whose full digest moved.
  ///     Their own phase inputs changed; they must run live next round.
  ///   * `published_owners`: owners with a slot whose *published* state
  ///     (aliveness, rl, rr -- the only cross-peer-readable variables per
  ///     the rules' read-set contract) moved. Peers holding edges to them
  ///     (`readers()`) must run live next round; pure edge-set changes stay
  ///     private and wake nobody else.
  bool consume_round_changes(std::vector<std::uint32_t>* changed_owners,
                             std::vector<std::uint32_t>* published_owners);

  /// Recomputes the digest baseline from the full current state (O(state)).
  /// Call after out-of-band bulk edits when the next consume_round_changes()
  /// should be measured against the state as of *now*.
  void rebuild_change_baseline();

  /// Monotonic mutation counter, bumped by every mutator that marks a slot
  /// dirty (edges, aliveness, rl/rr). Unlike the dirty marks it is never
  /// consumed, so derived per-owner state cached OUTSIDE the engine (the
  /// request engine's routing rows) can validate with a single load: equal
  /// version => the inputs of the cached value are unchanged. Conservative
  /// the other way -- rl/rr churn bumps it without affecting routing rows.
  /// Starts at 1; 0 is free for "never computed" stamps.
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return lanes_[0].topo;
  }

  /// True when any mutation since the last consume_round_changes() touched
  /// this owner / this slot (the marks consume() clears). Between rounds a
  /// set mark can only come from an out-of-band mutation -- the engine's
  /// pre-round scan uses exactly that to wake the affected peers.
  [[nodiscard]] bool owner_dirty(std::uint32_t owner) const noexcept {
    return owner_dirty_[owner] != 0;
  }
  [[nodiscard]] bool slot_dirty(Slot s) const noexcept {
    return slot_dirty_[s] != 0;
  }

  // -- reverse-dependency (reader) index -------------------------------------
  //
  // readers(o) over-approximates "peers whose rule phase reads owner o's
  // published state": every peer that holds (or since the last rebuild held)
  // an edge of any kind to one of o's slots. Maintained by the engine --
  // note_reader() is NOT called from the mutators because the sharded rule
  // phase would race on the per-owner vectors; the engine derives the notes
  // from recorded LocalEdits and commit deliveries single-threaded.

  /// Registers `reader_owner` as a reader of `target_owner` (idempotent).
  /// Single-threaded use only.
  void note_reader(std::uint32_t target_owner, std::uint32_t reader_owner);
  /// Sorted owner ids registered as readers of `owner`.
  [[nodiscard]] const std::vector<std::uint32_t>& readers(
      std::uint32_t owner) const noexcept {
    return readers_[owner];
  }
  /// Rebuilds the reader index exactly from the current edge sets plus the
  /// caller-supplied extra entries, each packed as
  /// (target_owner << 32) | reader_owner (the engine passes its cached-op
  /// dependencies). Bulk path: one flat collect + sort + unique + distribute
  /// instead of per-entry sorted inserts -- O(E log E) sequential, which at
  /// mass-rebuild scale (every edge in the system) is several times faster
  /// than the scattered-insert equivalent.
  void rebuild_reader_index(std::span<const std::uint64_t> extra_pairs = {});

  // -- per-shard counter lanes -------------------------------------------------
  //
  // The metric counters below (edge counts, live slots, live reals, the
  // topology version, the dead-reference flag) are bumped by every mutator.
  // In a sharded phase each thread mutates only its own peers' slots, but the
  // counters are global; shared atomics would put every thread's bumps on one
  // cache line. Instead each thread writes a lane of its own -- plain
  // counters, each lane on its own cache line -- and the phase's driver folds
  // the lanes into lane 0 before anyone reads them. Sums commute, so the
  // folded values equal what a serial run leaves (DESIGN.md §6.7).

  /// Makes room for `lanes` counter lanes (never shrinks). Call before a
  /// sharded phase selects lanes [0, lanes). Single-threaded use only.
  void reserve_counter_lanes(unsigned lanes) {
    if (lanes_.size() < lanes) lanes_.resize(lanes);
  }
  /// Adds lanes 1.. into lane 0 and zeroes them. Call after every thread of
  /// a sharded phase has finished and before any counter is read.
  void fold_counter_lanes() noexcept;

  /// Selects the lane the current thread's mutations write for the guard's
  /// lifetime (lane 0 again afterwards). The lane must have been reserved,
  /// and no two threads may hold the same lane of one network at once.
  class CounterLaneGuard {
   public:
    explicit CounterLaneGuard(unsigned lane) noexcept {
      detail::counter_lane = lane;
    }
    ~CounterLaneGuard() { detail::counter_lane = 0; }
    CounterLaneGuard(const CounterLaneGuard&) = delete;
    CounterLaneGuard& operator=(const CounterLaneGuard&) = delete;
  };

  // -- metrics ---------------------------------------------------------------
  //
  // Read lane 0: exact outside sharded phases (after the fold).

  [[nodiscard]] std::size_t edge_count(EdgeKind k) const noexcept {
    return static_cast<std::size_t>(
        lanes_[0].edge_live[static_cast<std::size_t>(k)]);
  }
  [[nodiscard]] std::size_t live_slot_count() const noexcept {
    return static_cast<std::size_t>(lanes_[0].live_slots);
  }
  [[nodiscard]] std::size_t live_virtual_count() const noexcept {
    return static_cast<std::size_t>(lanes_[0].live_slots -
                                    lanes_[0].live_reals);
  }
  /// Bytes currently reserved by all edge-set vectors (bench instrumentation).
  [[nodiscard]] std::size_t edge_set_bytes() const noexcept;

  /// Human-readable description of a slot, e.g. "0.250000(v3@7)" -- used in
  /// test failure messages and DOT labels.
  [[nodiscard]] std::string describe(Slot s) const;

 private:
  std::vector<RingPos> owner_pos_;
  std::vector<RingPos> pos_;        // per slot
  std::vector<std::uint8_t> alive_; // per slot
  std::vector<Slot> rl_, rr_;       // per slot, kInvalidSlot when unknown
  // sets_[kind][slot] = sorted vector of targets (by order_key).
  std::vector<std::vector<Slot>> sets_[kEdgeKinds];

  // Change tracking. A peer's rule phase only dirties its own slots, so the
  // per-slot/per-owner marks are written race-free under the engine's
  // peer-sharded parallelism; the counters live in per-thread lanes.
  std::vector<std::uint8_t> slot_dirty_;    // per slot
  std::vector<std::uint8_t> owner_dirty_;   // per owner
  std::vector<std::uint64_t> slot_digest_;  // per slot baseline
  std::vector<std::uint64_t> pub_digest_;   // per slot published-state baseline
  // readers_[o] = sorted owner ids with an edge into one of o's slots.
  std::vector<std::vector<std::uint32_t>> readers_;
  /// One thread's counter deltas. Lane 0 holds the totals; lanes 1.. are
  /// zero outside sharded phases.
  struct alignas(64) CounterLane {
    std::int64_t edge_live[kEdgeKinds] = {};  // live slots only
    std::int64_t live_slots = 0;
    std::int64_t live_reals = 0;
    std::uint64_t topo = 0;  // see topology_version()
    /// Set when a mutation may have introduced a reference to a dead slot;
    /// cleared by normalize() once every reference is live again.
    bool dead_refs = false;
  };
  static_assert(alignof(CounterLane) >= 64);
  std::vector<CounterLane> lanes_ = std::vector<CounterLane>(1);

  std::vector<Slot> merge_buf_;  // single-threaded scratch (commit/normalize)
  // rebuild_reader_index scratch (counting-sort buffers)
  std::vector<std::uint64_t> reader_pairs_buf_;
  std::vector<std::size_t> reader_counts_buf_, reader_cursor_buf_;
  std::vector<std::uint32_t> reader_scatter_buf_;

  [[nodiscard]] CounterLane& lane() noexcept {
    assert(detail::counter_lane < lanes_.size());
    return lanes_[detail::counter_lane];
  }
  void mark_dirty(Slot s) noexcept {
    slot_dirty_[s] = 1;
    owner_dirty_[owner_of(s)] = 1;
    ++lane().topo;
  }
  [[nodiscard]] std::uint64_t slot_digest(Slot s) const noexcept;
  /// Digest of the published (cross-peer-readable) part of a slot: aliveness
  /// and rl/rr. 0 for dead slots.
  [[nodiscard]] std::uint64_t pub_digest(Slot s) const noexcept;
  void grow_slots(std::uint32_t owner);
};

}  // namespace rechord::core
