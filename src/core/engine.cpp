#include "core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/churn.hpp"
#include "util/cli.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"
#include "util/sorted_vec.hpp"
#include "util/trace.hpp"

namespace rechord::core {

namespace {
// Largest accepted --threads value: each thread beyond the first is a
// persistent OS worker, so a typo must not ask for thousands of them.
constexpr std::int64_t kMaxThreads = 256;

// Deterministic per-(seed, round, index) coin with probability p.
bool fault_coin(std::uint64_t seed, std::uint64_t round, std::uint64_t index,
                double p) {
  return util::hash_coin(
      util::mix64(seed ^ util::mix64(round * 0x9E3779B97F4A7C15ULL + index)),
      p);
}
}  // namespace

EngineOptions engine_options_from_cli(const util::Cli& cli,
                                      EngineOptions base) {
  const std::int64_t threads =
      cli.get_int("threads", static_cast<std::int64_t>(base.threads));
  if (threads < 1 || threads > kMaxThreads)
    throw std::invalid_argument("--threads: expected a value in [1, " +
                                std::to_string(kMaxThreads) + "], got " +
                                std::to_string(threads));
  base.threads = static_cast<unsigned>(threads);
  if (cli.get_flag("full-scan")) base.full_scan = true;
  return base;
}

Engine::Engine(Network net, EngineOptions opt)
    : net_(std::move(net)), opt_(opt) {
  if (opt_.threads == 0) opt_.threads = 1;
}

std::uint32_t Engine::join_peer(RingPos id, std::uint32_t contact_owner) {
  const std::uint32_t owner = join(net_, id, contact_owner);
  if (partition_active_) {
    // The newcomer can only talk to its contact, so it joins the contact's
    // side of the cut; otherwise its bootstrap messages would all be dropped.
    if (partition_group_.size() <= owner) partition_group_.resize(owner + 1, 0);
    partition_group_[owner] = contact_owner < partition_group_.size()
                                  ? partition_group_[contact_owner]
                                  : 0;
  }
  if (!dc_of_owner_.empty()) {
    // A newcomer is racked where its contact lives: it inherits the
    // contact's datacenter group (mirrors the partition-side inheritance).
    const std::uint8_t dc = datacenter_of(contact_owner);
    if (dc_of_owner_.size() <= owner) dc_of_owner_.resize(owner + 1, 0);
    dc_of_owner_[owner] = dc;
  }
  return owner;
}

void Engine::leave_peer(std::uint32_t owner) { leave_gracefully(net_, owner); }

void Engine::crash_peer(std::uint32_t owner) { crash(net_, owner); }

void Engine::restart_peer(const PeerSnapshot& snapshot) {
  core::restart_peer(net_, snapshot);
}

std::vector<std::uint32_t> Engine::inflight_referenced_owners() const {
  std::vector<std::uint32_t> out;
  for (const auto& bucket : inflight_)
    for (const DelayedOp& op : bucket) {
      out.push_back(owner_of(op.target));
      out.push_back(owner_of(op.payload));
    }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::uint32_t> Engine::inflight_refcount_owners() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t o : inflight_ref_owners_)
    if (inflight_refs_[o] > 0) out.push_back(o);
  std::sort(out.begin(), out.end());
  return out;
}

void Engine::inflight_ref_add(std::uint32_t owner) {
  if (inflight_refs_.size() <= owner) {
    inflight_refs_.resize(owner + 1, 0);
    inflight_ref_listed_.resize(owner + 1, 0);
  }
  ++inflight_refs_[owner];
  if (!inflight_ref_listed_[owner]) {
    inflight_ref_listed_[owner] = 1;
    inflight_ref_owners_.push_back(owner);
  }
}

void Engine::set_partition(std::vector<std::uint8_t> group_of_owner) {
  partition_group_ = std::move(group_of_owner);
  partition_active_ = true;
}

void Engine::ensure_scheduler_arrays() {
  const std::uint32_t n = net_.owner_count();
  if (cache_.size() < n) cache_.resize(n);
  if (wake_.size() < n) wake_.resize(n, 1);  // new owners run live
  if (skip_.size() < n) skip_.resize(n, 0);
  if (boundary_.size() < n) boundary_.resize(n, 0);
  // A new owner is woken, so it runs before it can ever be skipped, and
  // that first run sets or clears its gap: the initial value is never read.
  if (inbound_gap_.size() < n) inbound_gap_.resize(n, 0);
  if (op_senders_.size() < n) op_senders_.resize(n);
}

void Engine::note_op_sender(std::uint32_t referenced, std::uint32_t sender) {
  if (referenced == sender) return;  // a peer trivially rests with itself
  util::insert_sorted_unique(op_senders_[referenced], sender);
}

void Engine::rebuild_flow_indices() {
  // Exact reader index from the current edge sets, extended by the
  // op-derived entries of every surviving cache: an in-flight cached op is
  // both a future read of its target's and payload's aliveness (commit-time
  // ghost re-homing) and a skip dependency. Called at an epoch reset and at
  // a storm -> calm transition -- bulk rounds run bare, so edges they
  // created or delivered carry no incremental registrations; before any
  // peer can go quiescent again the index must be rebuilt from ground
  // truth. O(edges + cached ops).
  // Bulk path throughout: flat pair collections sorted and distributed once
  // instead of one sorted insert per entry (the mass-rebuild case touches
  // every edge and cached op in the system, where scattered inserts used to
  // dominate the whole round).
  // Fault-free rounds deliver (or provably rest) every cached op, so at the
  // round boundary the edge each cached op (re-)creates exists in its
  // target's edge set and the reader pair it implies -- (payload owner read
  // by target owner), owner-level like the commit's ghost re-homing -- is
  // exactly the pair the edge scan below derives. The per-op collection is
  // therefore only needed while a cached op's edge can go missing: message
  // loss and partition cuts drop deliveries, and a peer sleeping through a
  // round keeps its cache without re-sending, while the downstream holder
  // may still have applied its removal.
  // ... and a nonzero-delay emission is in flight rather than applied, so
  // while the latency queue is non-empty the cached-op pairs (plus the
  // queued ops' own pairs, below) must be collected explicitly.
  const bool ops_covered_by_edges = opt_.message_loss <= 0.0 &&
                                    opt_.sleep_probability <= 0.0 &&
                                    !partition_active_ && inflight_count_ == 0;
  op_reader_pairs_.clear();
  op_sender_pairs_.clear();
  for (const auto& bucket : inflight_)
    for (const DelayedOp& op : bucket) {
      const std::uint32_t to = owner_of(op.target), po = owner_of(op.payload);
      if (to != po)
        op_reader_pairs_.push_back((static_cast<std::uint64_t>(po) << 32) |
                                   to);
    }
  for (std::uint32_t o = 0; o < net_.owner_count(); ++o) {
    PeerCache& pcc = cache_[o];
    // New registration epoch: the per-peer memos restart empty; entries a
    // later fresh recording re-references are re-registered (idempotently)
    // once and re-memoized then.
    pcc.reg_read_targets.clear();
    pcc.reg_op_pairs.clear();
    pcc.reg_op_senders.clear();
    if (!pcc.valid || !net_.owner_alive(o)) continue;
    if (!ops_covered_by_edges)
      for (const DelayedOp& op : pcc.ops) {
        const std::uint32_t to = owner_of(op.target),
                            po = owner_of(op.payload);
        if (to != po)
          op_reader_pairs_.push_back((static_cast<std::uint64_t>(po) << 32) |
                                     to);
      }
    for (std::uint32_t d : pcc.op_owners)
      if (d != o)
        op_sender_pairs_.push_back((static_cast<std::uint64_t>(d) << 32) | o);
  }
  net_.rebuild_reader_index(op_reader_pairs_);
  // Counting scatter for the op-sender index. The collection above walks
  // owners in ascending order with sorted-unique op_owners per cache, so for
  // a fixed referenced owner the senders arrive already sorted and unique --
  // no per-bucket post-processing needed.
  const std::uint32_t n = net_.owner_count();
  util::bucket_by_key(op_sender_pairs_, n, sender_counts_, sender_cursor_,
                      sender_scatter_);
  for (std::uint32_t d = 0; d < n; ++d) {
    auto& out = op_senders_[d];
    out.clear();
    out.assign(sender_scatter_.begin() + sender_counts_[d],
               sender_scatter_.begin() + sender_counts_[d + 1]);
  }
}

void Engine::compute_skip_set() {
  // Resting-chain recognition (DESIGN.md §6). A candidate is a quiescent
  // peer (valid cache, not woken): since its last executed round moved no
  // digest of its slots, that round's own recorded edits plus the delayed
  // ops addressed to it cancelled exactly -- the peer is resting, its whole
  // round contribution is the identity. Skipping it (no replay, no ops, no
  // publish) stays bit-identical to the full scan as long as the
  // cancellation partners keep up their side, which two closure rules
  // guarantee:
  //   (1) downstream: every owner referenced by a skipped peer's cached ops
  //       (targets AND payloads) is skipped too. A referenced owner that
  //       replays applies its recorded removals and needs the skipped
  //       peer's re-adds; a referenced owner whose aliveness pattern moved
  //       would resolve the op differently at commit. Either way the peer
  //       must emit -- which under the TRANSLATION CLOSURE (DESIGN.md
  //       §6.6) does not require replaying: the peer is demoted to
  //       emit-only ("boundary") -- still skipped, but its cached ops
  //       that reference a running owner are injected into the round's op
  //       stream at commit (emit_boundary_ops, skip rule (5) below). The
  //       injection is exactly what a replay would emit (the cache IS the
  //       pure phase output), and omitting the replay's delta application
  //       is sound because the peer's own removal/re-add cancellation is
  //       omitted as a PAIR: its upstream senders are either skipped
  //       (suppressed with it) or emit duplicates, which are set-level
  //       no-ops against the un-removed edge (network.cpp documents that
  //       duplicate adds leave digests and dirty marks untouched). Hence
  //       eviction does not cascade upstream through op_senders_ -- a
  //       uniformly-translating chain costs its O(frontier) live peers plus
  //       the boundary injections at the woken fringe instead of replaying
  //       end to end every round.
  //   (2) upstream: no peer running live this round has cached ops into a
  //       skipped peer. A live run may stop re-sending the op that cancels
  //       the skipped peer's recorded removal, so the skipped peer must
  //       apply that removal itself, i.e. replay. (A *replaying* upstream
  //       re-sends its cached ops verbatim; against an un-replayed resting
  //       peer those arrive as duplicate insertions and change nothing.)
  // Owners that left the system stopped emitting in both modes; their
  // cached references were evicted once via rule (2) in the round their
  // death was observed (oob scan), after which ordinary digest wakes take
  // over. Ops referencing a dead owner resolve to dropped in both modes,
  // so dead owners are not eviction seeds.
  const std::uint32_t n = net_.owner_count();
  std::fill(skip_.begin(), skip_.end(), 0);
  lazy_evict_round_ = false;
  std::uint32_t live = 0, woken = 0;
  for (std::uint32_t o = 0; o < n; ++o) {
    if (!net_.owner_alive(o)) continue;
    ++live;
    if (wake_[o]) ++woken;
  }
  // Hysteresis: entering storm mode takes 7/8 of the live peers woken,
  // leaving it takes the storm dying down to a quarter -- otherwise a long
  // recovery oscillates between bare rounds and mass re-recording rounds
  // that the next storm round immediately invalidates again. The entry bar
  // is deliberately high: a storm round invalidates EVERY live runner's
  // cache, so leaving it costs one all-live re-record round plus a
  // ground-truth index rebuild -- worth it at bring-up (everyone genuinely
  // woken, many storm rounds follow) but a net loss for mid-size churn
  // bursts, where the out-of-band wake fan-out (crash normalize dirt plus
  // readers) inflates the first-round wake count far beyond the genuinely
  // perturbed region and most woken peers reproduce their cached output
  // verbatim at a fraction of a bare re-run's cost.
  const bool was_bulk = bulk_round_;
  bulk_round_ = !opt_.paranoid_replay &&
                (8 * woken > 7 * live || (bulk_round_ && 4 * woken > live));
  // Leaving a storm: the bare rounds created and delivered edges with no
  // incremental index registrations, so the indices must be rebuilt from
  // ground truth before any of this round's fresh recordings can be trusted
  // for future wakes. The rebuild is deferred to the end of the round (after
  // commit, before apply_wakes) -- during the round itself the stale index
  // is sound: it is append-only since every surviving (replayable) cache was
  // recorded, so no entry a valid cache depends on is missing, and extra
  // entries only over-wake / over-evict. Deferring lets the mass
  // re-recording round skip incremental registration entirely.
  if (was_bulk && !bulk_round_) mass_reg_pending_ = true;
  if (bulk_round_ != was_bulk) {
    util::Tracer& tr = util::Tracer::instance();
    if (tr.enabled())
      tr.note({round_, 0, woken, live, 0, 0,
               bulk_round_ ? util::TraceKind::kStormEnter
                           : util::TraceKind::kStormExit});
  }
  if (!skip_possible()) return;
  for (std::uint32_t o = 0; o < n; ++o)
    skip_[o] = net_.owner_alive(o) && cache_[o].valid && !wake_[o] ? 1 : 0;
  // Lazy rule (2): in a calm round the referents of live runners are
  // evicted AFTER the live runs, and only when the fresh output really
  // dropped the op that referenced them (apply_deferred_evictions). Storm
  // rounds keep the eager eviction -- they record no caches, so there is no
  // fresh output to diff against.
  lazy_evict_round_ = !bulk_round_;
  // Evictions are DIRECT only -- each of the rules below clears the skip
  // flag of the owners it names, and senders into those owners are demoted
  // to boundary afterwards instead of being evicted transitively.
  if (!lazy_evict_round_)
    for (std::uint32_t o = 0; o < n; ++o) {
      if (!net_.owner_alive(o) || !(wake_[o] || !cache_[o].valid)) continue;
      // Rule (2): `o` runs live this round. (An owner merely *evicted* from
      // the skip set replays its cached ops verbatim and triggers nothing.)
      // In lazy rounds this is deferred: the eviction is only needed if the
      // fresh run stops re-sending the op, which run_range detects by
      // diffing the fresh output against the cache.
      for (std::uint32_t d : cache_[o].op_owners) skip_[d] = 0;
    }
  for (std::uint32_t o : oob_owners_)
    if (!net_.owner_alive(o))  // departed peers: one-time rule (2) eviction
      for (std::uint32_t d : cache_[o].op_owners) skip_[d] = 0;
  // Latency rules (DESIGN.md §8). (3) In-flight traffic pins its endpoints:
  // an owner referenced (target or payload) by a queued delayed assignment
  // receives -- or resolves -- a delivery the full scan also performs, so it
  // must at least replay until the queue no longer references it. The scan
  // walks the per-owner refcounts maintained at enqueue/drain -- O(owners
  // referenced by the queue) -- rather than every queued message, and
  // compacts drained-out entries in passing (entries whose refcount hit 0
  // since the last scan). (4) A candidate whose cached ops travel on a
  // nonzero delay class must replay, not skip: skipping would stop its
  // emissions from entering the queue, and the active-mode queue would
  // diverge from the full scan's (the queue's emptiness gates fixpoint
  // detection). Keyed on the CLASS being nonzero, not a concrete draw --
  // jitter re-rolls every round.
  {
    std::size_t w = 0;
    for (const std::uint32_t o : inflight_ref_owners_) {
      if (inflight_refs_[o] == 0) {
        inflight_ref_listed_[o] = 0;
        continue;
      }
      inflight_ref_owners_[w++] = o;
      skip_[o] = 0;
    }
    inflight_ref_owners_.resize(w);
  }
  // Rule (5), the delivery-gap rule (DESIGN.md §6.6): an owner that missed
  // an inbound delivery (cut, lost, delayed, or not sent by a sleeper)
  // replays instead of resting. Replaying a quiescent peer is always exact;
  // here it also makes every skipped sender into the owner emit its ops, so
  // the owner ends the round with all of them delivered and its gap clears.
  // Hence no skipped owner ever carries a gap, which is what lets commit
  // elide boundary ops between skipped owners (emit_boundary_ops).
  for (const std::uint32_t o : gap_owners_) skip_[o] = 0;
  if (latency_installed_ && !latency_.trivial())
    for (std::uint32_t o = 0; o < n; ++o) {
      if (!skip_[o]) continue;
      PeerCache& pc = cache_[o];
      if (pc.delay_memo_epoch != latency_epoch_) {
        const std::uint8_t src = datacenter_of(o);
        pc.has_nonzero_delay = false;
        for (const DelayedOp& op : pc.ops)
          if (latency_.cls(src, datacenter_of(owner_of(op.target)))
                  .nonzero()) {
            pc.has_nonzero_delay = true;
            break;
          }
        pc.delay_memo_epoch = latency_epoch_;
      }
      if (pc.has_nonzero_delay) skip_[o] = 0;
    }
  // Translation closure, boundary marking (rule (1) without the cascade):
  // every still-skipped sender whose cached ops reference an owner running
  // this round is demoted to emit-only. Dead owners are deliberately not
  // boundary sources -- ops referencing them resolve to dropped in both
  // modes, so their senders stay fully suppressed. Cost: O(owners) plus the
  // op-sender lists of the non-skipped region -- the woken fringe, not the
  // chains.
  std::fill(boundary_.begin(), boundary_.end(), 0);
  for (std::uint32_t o = 0; o < n; ++o) {
    if (skip_[o] || !net_.owner_alive(o)) continue;
    for (std::uint32_t u : op_senders_[o])
      if (skip_[u]) boundary_[u] = 1;
  }
}

void Engine::wake_out_of_band() {
  // Out-of-band mutations (churn applied without reset_change_tracking)
  // leave dirty marks between consume() and this round. The affected owners
  // and their current readers must run live *now* -- and, because this round
  // may revert the change before the digests are compared at consume(),
  // again next round: apply_wakes() re-wakes oob_owners_ after consume.
  for (std::uint32_t o = 0; o < net_.owner_count(); ++o) {
    if (!net_.owner_dirty(o)) continue;
    oob_owners_.push_back(o);
    wake_[o] = 1;
    for (std::uint32_t r : net_.readers(o)) wake_[r] = 1;
    for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
      const Slot s = slot_of(o, i);
      if (!net_.slot_dirty(s)) continue;
      // Register reader entries for edges added out-of-band (join bootstrap,
      // graceful-leave informs): the dirty slot's owner reads its targets.
      for (int k = 0; k < kEdgeKinds; ++k)
        for (Slot t : net_.edges(s, static_cast<EdgeKind>(k)))
          net_.note_reader(owner_of(t), o);
    }
  }
}

void Engine::apply_wakes() {
  // Wake invariant (DESIGN.md §6): before round t+1 starts, every peer whose
  // read set differs from the state its cache was recorded against has
  // wake_ == 1. Private (edge-set) changes wake only the owner; published
  // (aliveness / rl / rr) changes additionally wake the registered readers.
  for (std::uint32_t o : changed_owners_) wake_[o] = 1;
  for (std::uint32_t o : published_owners_)
    for (std::uint32_t r : net_.readers(o)) wake_[r] = 1;
  for (std::uint32_t o : oob_owners_) {
    wake_[o] = 1;
    for (std::uint32_t r : net_.readers(o)) wake_[r] = 1;
  }
  oob_owners_.clear();
}

void Engine::replay_peer(std::uint32_t owner, const PeerCache& pc,
                         std::vector<DelayedOp>& out, RuleActivity& act) {
  // The peer's inputs are unchanged since its last live run, so the phase --
  // a pure function of those inputs -- would reproduce exactly the recorded
  // output. Apply it without entering the rules. This is also what rotates a
  // resting connection-edge chain in place: the recorded delta removes each
  // chain edge and re-creates the head, the recorded ops re-deliver the
  // forwarded hops.
  for (const LocalEdit& e : pc.delta) {
    switch (e.op) {
      case LocalEdit::Op::kAddEdge:
        net_.add_edge(e.slot, e.kind, e.target);
        break;
      case LocalEdit::Op::kRemoveEdge:
        net_.remove_edge(e.slot, e.kind, e.target);
        break;
      case LocalEdit::Op::kClearEdges:
        net_.clear_edges(e.slot);
        break;
      case LocalEdit::Op::kSetAlive:
        net_.set_alive(e.slot, true);
        break;
      case LocalEdit::Op::kSetDead:
        net_.set_alive(e.slot, false);
        break;
    }
  }
  out.insert(out.end(), pc.ops.begin(), pc.ops.end());
  act += pc.activity;
  for (std::uint32_t idx = 0; idx <= pc.max_index; ++idx) {
    const Slot s = slot_of(owner, idx);
    rl_next_[s] = pc.rl[idx];
    rr_next_[s] = pc.rr[idx];
  }
  for (std::uint32_t idx = pc.max_index + 1; idx < kSlotsPerOwner; ++idx) {
    const Slot s = slot_of(owner, idx);
    rl_next_[s] = kInvalidSlot;
    rr_next_[s] = kInvalidSlot;
  }
}

void Engine::run_range(std::size_t begin, std::size_t end,
                       std::vector<DelayedOp>& out, ShardState& sh) {
  // Counted in locals and stored into the shard once at the end: the shard
  // state is written per peer only through its vectors.
  RuleActivity act;
  std::size_t n_active = 0, n_replayed = 0, n_skipped = 0;
  std::uint64_t n_mismatch = 0;
  const bool active = active_mode();
  // In latency rounds, each peer's contiguous op span is recorded as
  // (owner, count) so route_inflight() can recover the sender -- the op
  // shape itself carries only target and payload.
  const bool track_src = latency_round_;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t owner = owners_[i];
    const std::size_t peer_op_base = out.size();
    const auto note_src = [&] {
      if (track_src && out.size() > peer_op_base)
        sh.op_src.emplace_back(
            owner, static_cast<std::uint32_t>(out.size() - peer_op_base));
    };
    bool check = false;
    PeerCache* pc = nullptr;
    if (active) {
      pc = &cache_[owner];
      if (skip_[owner]) {
        // Resting: the peer's recorded edits and the ops addressed to it
        // cancel, and compute_skip_set() proved the whole flow rests with
        // it. Touch nothing; count the cached activity so the rule-activity
        // metrics stay mode-independent.
        ++n_skipped;
        act += pc->activity;
        if (boundary_[owner]) {
          // Emit-only (translation closure, DESIGN.md §6.6): an owner the
          // peer's cached ops reference runs this round, so those ops must
          // reach the commit. Which owners run is only final after the
          // deferred pass, so the peer goes to the shard's side buffer and
          // commit emits the ops that can change something
          // (emit_boundary_ops).
          sh.emit_only.push_back(owner);
        }
        continue;
      }
      if (pc->valid && !wake_[owner]) {
        ++n_replayed;
        if (!opt_.paranoid_replay) {
          replay_peer(owner, *pc, out, act);
          sh.ran.push_back(owner);
          note_src();
          continue;
        }
        // Paranoid: run live anyway and diff against the cache below.
        check = true;
        PeerCache& prev = sh.paranoid_prev;
        prev.delta.swap(pc->delta);
        prev.ops.swap(pc->ops);
        prev.rl.swap(pc->rl);
        prev.rr.swap(pc->rr);
        prev.max_index = pc->max_index;
        prev.activity = pc->activity;
      } else {
        // Keep the previous recording for the notes_fresh comparison (the
        // paranoid branch above already swapped it into the same scratch).
        sh.paranoid_prev.delta.swap(pc->delta);
      }
      pc->delta.clear();
    }
    // Every peer that reaches the live rule execution counts as active --
    // under full_scan that is every participating peer -- except paranoid
    // cross-check runs, which were already counted as replays.
    if (!check) ++n_active;
    const std::size_t op_base = out.size();
    RuleCtx ctx(net_, owner, out, sh.arena);
    if (active && !bulk_round_) ctx.record = &pc->delta;
    Rules::run_all(ctx);
    act += ctx.activity;
    // Indices above ctx.max_index are dead after rule 1; publish clears
    // their rl/rr (dead slots are invisible to digests either way).
    for (std::uint32_t idx = 0; idx <= ctx.max_index; ++idx) {
      const Slot s = slot_of(owner, idx);
      rl_next_[s] = ctx.rl_cur[idx];
      rr_next_[s] = ctx.rr_cur[idx];
    }
    for (std::uint32_t idx = ctx.max_index + 1; idx < kSlotsPerOwner; ++idx) {
      const Slot s = slot_of(owner, idx);
      rl_next_[s] = kInvalidSlot;
      rr_next_[s] = kInvalidSlot;
    }
    sh.ran.push_back(owner);
    note_src();
    if (active && bulk_round_) {
      // Storm round: ran bare, nothing recorded. The stale cache must not
      // be replayed (its op_owners stay behind for the skip closure's
      // rule-(2) evictions until a calm round re-records).
      pc->valid = false;
      wake_[owner] = 0;  // re-woken by consume() iff the digests moved
      continue;
    }
    if (active) {
      const auto fresh_begin =
          out.begin() + static_cast<std::ptrdiff_t>(op_base);
      const bool output_same =
          pc->valid && !check &&
          static_cast<std::size_t>(out.end() - fresh_begin) ==
              pc->ops.size() &&
          std::equal(fresh_begin, out.end(), pc->ops.begin()) &&
          pc->delta == sh.paranoid_prev.delta;
      pc->notes_fresh = !output_same;
      if (!output_same) {
        if (lazy_evict_round_ && !pc->op_owners.empty()) {
          // Deferred rule (2): the fresh output changed, so some cached op
          // may no longer be re-sent -- collect the owners referenced by
          // the DROPPED ops only (set difference old \ fresh); a reference
          // the fresh run still emits keeps cancelling its partner, so that
          // partner may rest. An invalidated cache (storm leftovers) has no
          // comparable fresh/old pair: every old reference is collected.
          auto& pend = sh.pending_evict;
          if (!pc->valid) {
            pend.insert(pend.end(), pc->op_owners.begin(),
                        pc->op_owners.end());
          } else {
            auto& old_ops = sh.diff_old;
            auto& new_ops = sh.diff_new;
            old_ops.assign(pc->ops.begin(), pc->ops.end());
            new_ops.assign(fresh_begin, out.end());
            std::sort(old_ops.begin(), old_ops.end());
            std::sort(new_ops.begin(), new_ops.end());
            std::size_t j = 0;
            for (const DelayedOp& op : old_ops) {
              while (j < new_ops.size() && new_ops[j] < op) ++j;
              if (j < new_ops.size() && !(op < new_ops[j])) continue;
              pend.push_back(owner_of(op.target));
              pend.push_back(owner_of(op.payload));
            }
          }
        }
        pc->delay_memo_epoch = 0;  // ops changed: delay-class memo is stale
        pc->ops.assign(fresh_begin, out.end());
        pc->op_owners.clear();
        for (auto it = pc->ops.begin(); it != pc->ops.end(); ++it) {
          pc->op_owners.push_back(owner_of(it->target));
          pc->op_owners.push_back(owner_of(it->payload));
        }
        std::sort(pc->op_owners.begin(), pc->op_owners.end());
        pc->op_owners.erase(
            std::unique(pc->op_owners.begin(), pc->op_owners.end()),
            pc->op_owners.end());
      }
      pc->rl.assign(ctx.rl_cur.begin(),
                    ctx.rl_cur.begin() + ctx.max_index + 1);
      pc->rr.assign(ctx.rr_cur.begin(),
                    ctx.rr_cur.begin() + ctx.max_index + 1);
      pc->max_index = ctx.max_index;
      pc->activity = ctx.activity;
      pc->valid = true;
      wake_[owner] = 0;
      sh.live.push_back(owner);
      if (check) {
        const PeerCache& prev = sh.paranoid_prev;
        if (prev.delta != pc->delta || prev.ops != pc->ops ||
            prev.rl != pc->rl || prev.rr != pc->rr ||
            prev.max_index != pc->max_index ||
            !(prev.activity == pc->activity))
          ++n_mismatch;
      }
    }
  }
  sh.activity = act;
  sh.active = n_active;
  sh.replayed = n_replayed;
  sh.skipped = n_skipped;
  sh.mismatch = n_mismatch;
}

void Engine::run_peers() {
  net_.live_owners_into(owners_);
  // Activation faults: a sleeping peer keeps its state and publishes last
  // round's rl/rr unchanged; messages addressed to it are still delivered.
  // A sleeping peer is neither run nor replayed, and its wake flag (if any)
  // persists until it actually runs live.
  if (opt_.sleep_probability > 0.0) {
    std::size_t w = 0;
    for (std::uint32_t o : owners_) {
      if (!fault_coin(opt_.fault_seed, round_, o, opt_.sleep_probability)) {
        owners_[w++] = o;
        continue;
      }
      // A sleeper sends none of its cached ops: every owner they reference
      // misses a delivery this round (inbound gap, DESIGN.md §6.6).
      if (active_mode() && cache_[o].valid)
        gap_events_.insert(gap_events_.end(), cache_[o].op_owners.begin(),
                           cache_[o].op_owners.end());
    }
    owners_.resize(w);
  }
  const unsigned threads =
      std::min<unsigned>(opt_.threads, static_cast<unsigned>(owners_.size()));
  const bool serial = threads <= 1 || owners_.size() < 64;
  const unsigned shards = serial ? 1 : threads;
  // Every shard is reset, not just the first `shards`: all of them are
  // walked after the phase, and a previous round may have used more shards.
  if (shards_.size() < shards) shards_.resize(shards);
  for (ShardState& sh : shards_) {
    sh.live.clear();
    sh.ran.clear();
    sh.op_src.clear();
    sh.pending_evict.clear();
    sh.emit_only.clear();
    sh.activity = RuleActivity{};
    sh.active = sh.replayed = sh.skipped = 0;
    sh.mismatch = 0;
  }
  tail_op_src_.clear();
  if (serial) {
    run_range(0, owners_.size(), ops_, shards_[0]);
    return;
  }
  // NOTE(parallel-safety): a peer mutates only its own slots' sets (live or
  // replayed); all cross-peer effects go to the per-shard op queues, and the
  // only foreign reads are static attributes, real-slot aliveness (changes
  // only out-of-band) and previous-round rl/rr. rl_next/rr_next writes are
  // disjoint per peer, dirty marks are per-slot/per-owner, wake_/cache_
  // accesses are per-owner, each shard writes only its own ShardState, and
  // the network's metric counters go to the shard's own counter lane, folded
  // into lane 0 once the pool has joined. Determinism: queues are
  // concatenated in shard order, which equals the serial (ascending-owner)
  // emission order, and the lane fold is a commutative sum.
  net_.reserve_counter_lanes(shards);
  WorkerPool& pool = shared_worker_pool(shards);
  const std::size_t chunk = (owners_.size() + shards - 1) / shards;
  pool.run(shards, [&](unsigned t) {
    const Network::CounterLaneGuard lane(t);
    const std::size_t begin = std::min<std::size_t>(t * chunk, owners_.size());
    const std::size_t end =
        std::min<std::size_t>(begin + chunk, owners_.size());
    ShardState& sh = shards_[t];
    sh.ops.clear();
    run_range(begin, end, sh.ops, sh);
  });
  net_.fold_counter_lanes();
  for (unsigned t = 0; t < shards; ++t)
    ops_.insert(ops_.end(), shards_[t].ops.begin(), shards_[t].ops.end());
}

void Engine::apply_deferred_evictions() {
  deferred_replays_ = 0;
  if (!lazy_evict_round_) return;
  // Gathering in shard order visits the pending entries in the runners'
  // ascending-owner order -- the serial order -- so the deferred pass is
  // thread-count invariant.
  phase_b_.clear();
  for (const ShardState& sh : shards_)
    for (const std::uint32_t d : sh.pending_evict)
      if (skip_[d]) {
        skip_[d] = 0;
        phase_b_.push_back(d);
      }
  if (phase_b_.empty()) return;
  // A deferred replay commits identically to an in-pass one: the rule phase
  // reads round-start state only, so a round's own-slot edits and emissions
  // commute. Runs single-threaded -- the set is the handful of references
  // the frontier actually dropped this round, not a sharded workload.
  RuleActivity discard;  // already counted from the cache in the skip branch
  util::Tracer& tr = util::Tracer::instance();
  const bool tracing = tr.enabled();
  for (const std::uint32_t d : phase_b_) {
    if (tracing)
      tr.note({round_, d, 0, 0, 0, 0, util::TraceKind::kDeferredEvict});
    const std::size_t base = ops_.size();
    replay_peer(d, cache_[d], ops_, discard);
    ++deferred_replays_;
    shards_[0].ran.push_back(d);
    if (latency_round_ && ops_.size() > base)
      tail_op_src_.emplace_back(
          d, static_cast<std::uint32_t>(ops_.size() - base));
    // The replay applies d's recorded removals, so d's cancellation
    // partners must emit their re-adds: inject every still-skipped sender
    // emit-only. No cascade -- an injected sender's own pair stays
    // suppressed as a pair, exactly the translation-closure argument.
    for (const std::uint32_t u : op_senders_[d]) {
      if (!skip_[u] || boundary_[u]) continue;
      boundary_[u] = 1;
      shards_[0].emit_only.push_back(u);
      if (tracing)
        tr.note({round_, u, d, 0, 0, 0, util::TraceKind::kBoundaryInject});
    }
  }
}

void Engine::emit_boundary_ops() {
  // The emit-only injections of the translation closure (DESIGN.md §6.6),
  // cut to the ops that can change something. Once the deferred pass has
  // run, an op whose target and payload owners both stay skipped
  // re-delivers an edge its target already holds -- the delivery-gap
  // invariant: the op was delivered, with the same resolution, in the last
  // round either owner ran (skip rule (5) keeps every owner that missed a
  // delivery since out of the skip set), and neither owner's slots have
  // moved since. Every other op is appended, so the commit applies exactly
  // the full scan's changes. A peer whose referenced owners all stay
  // skipped -- a stale op-sender entry made it boundary -- is passed over
  // whole.
  // Routing is not needed: a skipped peer has no nonzero-delay op (skip
  // rule (4)), so each op here routes at delay 0; and a round with skipped
  // peers has no loss coins, so its commit is independent of op order.
  const auto runs = [this](std::uint32_t o) { return skip_[o] == 0; };
  for (const ShardState& sh : shards_)
    for (const std::uint32_t u : sh.emit_only) {
      if (!skip_[u]) continue;  // deferred-replayed: the replay emitted all
      const PeerCache& pc = cache_[u];
      if (std::none_of(pc.op_owners.begin(), pc.op_owners.end(), runs)) {
        boundary_ops_elided_ += pc.ops.size();
        continue;
      }
      for (const DelayedOp& op : pc.ops) {
        if (!runs(owner_of(op.target)) && !runs(owner_of(op.payload))) {
          ++boundary_ops_elided_;
          continue;
        }
        assert(!latency_round_ ||
               latency_.delay(datacenter_of(u),
                              datacenter_of(owner_of(op.target)), round_, u,
                              op) == 0);
        ops_.push_back(op);
      }
    }
}

void Engine::update_inbound_gaps() {
  // Clears first, then this round's events: an owner that ran keeps a gap
  // only if a delivery to it was cut, lost, delayed or not sent this round.
  for (const ShardState& sh : shards_)
    for (const std::uint32_t o : sh.ran) inbound_gap_[o] = 0;
  std::size_t w = 0;
  for (const std::uint32_t o : gap_owners_)
    if (inbound_gap_[o]) gap_owners_[w++] = o;
  gap_owners_.resize(w);
  for (const std::uint32_t o : gap_events_)
    if (!inbound_gap_[o]) {
      inbound_gap_[o] = 1;
      gap_owners_.push_back(o);
    }
  gap_events_.clear();
}

WorkerPool& Engine::shared_worker_pool(unsigned ways) {
  if (ways < 1) ways = 1;
  if (!pool_ || pool_->worker_count() + 1 < ways)
    pool_ = std::make_unique<WorkerPool>(ways - 1);
  return *pool_;
}

void Engine::route_inflight() {
  // Routes this round's emissions through the latency model and assembles
  // the commit sequence: first the queue bucket due now (messages issued
  // delay rounds ago), then the fresh delay-0 traffic, both in emission
  // order. Nonzero-delay messages are enqueued d rounds out. The sender of
  // each op span comes from the per-shard (owner, count) runs, walked in
  // shard order -- which equals the serial ascending-owner emission order,
  // so the routed sequence is thread-count invariant.
  route_buf_.clear();
  if (!inflight_.empty()) {
    route_buf_.swap(inflight_.front());
    inflight_.pop_front();
    inflight_count_ -= route_buf_.size();
    for (const DelayedOp& op : route_buf_) {
      inflight_ref_sub(owner_of(op.target));
      inflight_ref_sub(owner_of(op.payload));
    }
  }
  std::size_t idx = 0;
  const auto route_span = [&](std::uint32_t owner, std::uint32_t count) {
    const std::uint8_t src = datacenter_of(owner);
    for (std::uint32_t k = 0; k < count; ++k, ++idx) {
      const DelayedOp& op = ops_[idx];
      const std::uint32_t d = latency_.delay(
          src, datacenter_of(owner_of(op.target)), round_, owner, op);
      if (d == 0) {
        route_buf_.push_back(op);
        continue;
      }
      // Delivered d rounds late: until then the target misses the edge.
      if (active_mode()) gap_events_.push_back(owner_of(op.target));
      while (inflight_.size() < d) inflight_.emplace_back();
      inflight_[d - 1].push_back(op);
      ++inflight_count_;
      inflight_ref_add(owner_of(op.target));
      inflight_ref_add(owner_of(op.payload));
    }
  };
  for (const ShardState& sh : shards_)
    for (const auto& [owner, count] : sh.op_src) route_span(owner, count);
  // The deferred pass emits at the tail of ops_, after every shard span.
  for (const auto& [owner, count] : tail_op_src_) route_span(owner, count);
  assert(idx == ops_.size());
  ops_.swap(route_buf_);
}

RoundMetrics Engine::step() {
  // Observability is bit-identical-off: every span below only reads clocks
  // into profiler buffers, and every trace event derives from deterministic
  // round state (see DESIGN.md §11).
  util::ScopedPhase step_span(util::Phase::kStepTotal);
  const bool active = active_mode();
  // Routing only matters while a message CAN be delayed or one still is; a
  // flattened (trivial) model with a drained queue reverts to the plain
  // pipeline for the round.
  latency_round_ = latency_installed_ &&
                   (!latency_.trivial() || inflight_count_ > 0);
  if (!baseline_ready_) {
    net_.rebuild_change_baseline();
    baseline_ready_ = true;
    if (active) {
      // Fresh scheduler epoch: everyone runs live, and instead of paying a
      // pre-round rebuild plus per-entry registration for ~every peer, the
      // indices are rebuilt once from ground truth at the end of the round
      // (mass_reg_pending_). Until then the stale index is sound for the
      // same append-only reason as at a storm exit.
      ensure_scheduler_arrays();
      mass_reg_pending_ = true;
      std::fill(wake_.begin(), wake_.end(), 1);
      oob_owners_.clear();
    }
  }
  if (active) {
    ensure_scheduler_arrays();
    {
      util::ScopedPhase span(util::Phase::kWakeScan);
      wake_out_of_band();
    }
    {
      util::ScopedPhase span(util::Phase::kSkipSet);
      compute_skip_set();
    }
  }

  ops_.clear();
  // rl_next_/rr_next_ carry values only for the slots of owners that ran
  // this round (fully rewritten by run_range/replay_peer before publish
  // reads them); everyone else's published rl/rr stays untouched.
  if (rl_next_.size() < net_.slot_count()) {
    rl_next_.resize(net_.slot_count(), kInvalidSlot);
    rr_next_.resize(net_.slot_count(), kInvalidSlot);
  }
  {
    util::ScopedPhase span(util::Phase::kRulePhase);
    run_peers();
  }
  {
    util::ScopedPhase span(util::Phase::kDeferredEvict);
    apply_deferred_evictions();
  }
  if (latency_round_) {
    util::ScopedPhase span(util::Phase::kRouteInflight);
    route_inflight();
  }
  activity_ = RuleActivity{};
  std::size_t active_peers = 0, replayed_peers = 0, skipped_peers = 0,
              boundary_peers = 0;
  for (const ShardState& sh : shards_) {
    activity_ += sh.activity;
    active_peers += sh.active;
    replayed_peers += sh.replayed;
    skipped_peers += sh.skipped;
    boundary_peers += sh.emit_only.size();  // incl. the deferred injections
    replay_mismatches_ += sh.mismatch;
  }
  // Deferred rule-(2) replays ran after the skip branch already counted
  // them as skipped; recount them as the replays they were.
  skipped_peers -= deferred_replays_;
  replayed_peers += deferred_replays_;
  if (active && !mass_reg_pending_) {
    util::ScopedPhase span(util::Phase::kIndexRegister);
    // Reader and op-sender entries for this round's live runs, derived
    // single-threaded from the recorded deltas and cached ops. Ops are
    // registered here, at cache time, rather than per delivery at commit:
    // the owner pair of an op never changes afterwards (replay re-emits it
    // verbatim, and commit-time ghost re-homing stays within the owner), so
    // one registration covers every future delivery, and the reader index
    // is an over-approximation, so registering an op that commit later
    // drops is harmless. Replayed deltas re-create edges whose entries
    // already exist. Mass-registration rounds skip this entirely in favor
    // of the post-commit ground-truth rebuild below.
    // Each entry is registered at most once per index epoch: the per-cache
    // memo vectors remember what this peer already pushed, so a peer that
    // stays woken through a multi-round recovery pays the (shared, larger)
    // index inserts only for dependencies it has not referenced before.
    for (const ShardState& sh : shards_)
      for (std::uint32_t o : sh.live) {
        PeerCache& pc = cache_[o];
        if (!pc.notes_fresh) continue;  // identical output: all known
        for (const LocalEdit& e : pc.delta)
          if (e.op == LocalEdit::Op::kAddEdge && owner_of(e.target) != o &&
              util::insert_sorted_unique(pc.reg_read_targets,
                                         owner_of(e.target)))
            net_.note_reader(owner_of(e.target), o);
        for (const DelayedOp& op : pc.ops)
          if (util::insert_sorted_unique(
                  pc.reg_op_pairs,
                  (static_cast<std::uint64_t>(owner_of(op.target)) << 32) |
                      owner_of(op.payload)))
            net_.note_reader(owner_of(op.payload), owner_of(op.target));
        for (std::uint32_t d : pc.op_owners)
          if (util::insert_sorted_unique(pc.reg_op_senders, d))
            note_op_sender(d, o);
      }
  }

  // Commit: deliver all delayed assignments simultaneously -- the round's
  // live and replayed emissions plus the boundary injections that can
  // change something (emit_boundary_ops). A message to a
  // meanwhile-deleted virtual node is absorbed by the owning peer's u_m (see
  // DESIGN.md: ghost re-homing); a message to or from a departed peer is
  // dropped. Set insertion into the sorted edge sets is commutative, so the
  // committed state is independent of delivery order -- which admits two
  // pipelines with identical results:
  //   * loss-free (hot path): apply each op directly, no canonical ordering
  //     needed. Measured fastest -- the per-(target,kind) groups are tiny, so
  //     the O(ops log ops) sorts cost more than they save.
  //   * lossy: sort + dedup for the deterministic per-index drop coins, then
  //     group by (target, kind) and bulk-merge each group in one pass.
  {
  util::ScopedPhase commit_span(util::Phase::kCommit);
  if (active) emit_boundary_ops();
  auto resolve = [this](Slot s) -> Slot {
    if (net_.alive(s)) return s;
    const std::uint32_t owner = owner_of(s);
    if (!net_.owner_alive(owner)) return kInvalidSlot;
    return slot_of(owner, net_.max_live_index(owner));
  };
  if (opt_.message_loss <= 0.0) {
    for (const DelayedOp& op : ops_) {
      if (partition_active_ && partition_cut(op.target, op.payload)) {
        ++partition_dropped_;
        if (active) gap_events_.push_back(owner_of(op.target));
        continue;
      }
      const Slot target = resolve(op.target);
      const Slot payload = resolve(op.payload);
      if (target == kInvalidSlot || payload == kInvalidSlot) continue;
      net_.add_edge(target, op.kind, payload);
    }
  } else {
    std::sort(ops_.begin(), ops_.end());
    ops_.erase(std::unique(ops_.begin(), ops_.end()), ops_.end());
    resolved_.clear();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (partition_active_ && partition_cut(ops_[i].target, ops_[i].payload)) {
        ++partition_dropped_;
        if (active) gap_events_.push_back(owner_of(ops_[i].target));
        continue;
      }
      if (opt_.message_loss > 0.0 &&
          fault_coin(opt_.fault_seed ^ 0xD70Full, round_, i,
                     opt_.message_loss)) {
        ++dropped_;
        if (active) gap_events_.push_back(owner_of(ops_[i].target));
        continue;
      }
      const Slot target = resolve(ops_[i].target);
      const Slot payload = resolve(ops_[i].payload);
      if (target == kInvalidSlot || payload == kInvalidSlot) continue;
      resolved_.push_back({target, ops_[i].kind, payload});
    }
    // Batched delivery: group by (target, kind) and merge each group into
    // the sorted edge set in a single pass. Payloads are pre-sorted by the
    // network order so the merge input is ordered.
    std::sort(resolved_.begin(), resolved_.end(),
              [this](const DelayedOp& a, const DelayedOp& b) {
                if (a.target != b.target) return a.target < b.target;
                if (a.kind != b.kind)
                  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                return net_.order_key(a.payload) < net_.order_key(b.payload);
              });
    for (std::size_t i = 0; i < resolved_.size();) {
      const Slot target = resolved_[i].target;
      const EdgeKind kind = resolved_[i].kind;
      payload_buf_.clear();
      for (; i < resolved_.size() && resolved_[i].target == target &&
             resolved_[i].kind == kind;
           ++i) {
        const Slot p = resolved_[i].payload;
        if (payload_buf_.empty() || payload_buf_.back() != p)
          payload_buf_.push_back(p);
      }
      net_.add_edges_bulk(target, kind, payload_buf_);
    }
  }
  if (active) update_inbound_gaps();
  }
  {
  util::ScopedPhase publish_span(util::Phase::kPublishNormalize);
  // Publish this round's rl/rr for the owners that ran, live slots and dead
  // tails alike (rule 3 results reference real slots only; normalize()
  // clears any that refer to dead slots). A peer that was skipped or slept
  // keeps its published values -- for skipped peers that is exactly what a
  // full scan would have republished.
  for (const ShardState& sh : shards_)
    for (std::uint32_t o : sh.ran) {
      const Slot base = slot_of(o, 0);
      for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
        net_.set_rl(base + i, rl_next_[base + i]);
        net_.set_rr(base + i, rr_next_[base + i]);
      }
    }
  net_.normalize();
  }
  // Deferred mass registration: one exact rebuild over the post-commit edge
  // sets plus the surviving caches' ops replaces the per-entry registration
  // of an (almost) all-live round. Must run before apply_wakes() below reads
  // the reader index. Kept pending through storm rounds (which record no
  // caches) until the first round that does record.
  if (active && mass_reg_pending_ && !bulk_round_) {
    util::ScopedPhase span(util::Phase::kIndexRebuild);
    rebuild_flow_indices();
    mass_reg_pending_ = false;
  }
  ++round_;

  RoundMetrics mt;
  {
  util::ScopedPhase fixpoint_span(util::Phase::kFixpoint);
  mt = measure();
  mt.round = round_;
  mt.active_peers = active_peers;
  mt.replayed_peers = replayed_peers;
  mt.skipped_peers = skipped_peers;
  mt.boundary_peers = boundary_peers;
  // Full scan collects the changed-owner list too -- not for wakes (there
  // are none), but for the per-datacenter change flags below.
  changed_owners_.clear();
  published_owners_.clear();
  mt.changed = net_.consume_round_changes(&changed_owners_, &published_owners_);
  if (active) apply_wakes();
  if (!dc_of_owner_.empty()) {
    // Which datacenters moved this round (per-dc convergence lag, scenario
    // CSV). Derived from the digest-level changed-owner list, a pure state
    // property -- identical across scheduler modes and thread counts.
    mt.dc_count = static_cast<std::uint32_t>(dc_max_) + 1;
    for (const std::uint32_t o : changed_owners_) {
      const std::uint8_t d = datacenter_of(o);
      mt.dc_changed_bits[d >> 6] |= std::uint64_t{1} << (d & 63);
    }
  }
  // In-flight messages are pending state changes: a round that left the
  // latency queue non-empty is never a fixpoint, even when no digest moved
  // (the queued deliveries land in later rounds). Applies identically in
  // both scheduler modes, so the verdict stays mode-independent.
  if (inflight_count_ > 0) mt.changed = true;
  }
  {
    util::Tracer& tr = util::Tracer::instance();
    if (tr.enabled())
      tr.note({round_, 0, mt.active_peers, mt.replayed_peers,
               mt.skipped_peers, mt.boundary_peers,
               util::TraceKind::kRound});
  }
  if (observer_) observer_(mt);
  return mt;
}

RoundMetrics Engine::measure() const {
  RoundMetrics mt;
  mt.round = round_;
  mt.real_nodes = net_.alive_owner_count();
  mt.virtual_nodes = net_.live_virtual_count();
  mt.unmarked_edges = net_.edge_count(EdgeKind::kUnmarked);
  mt.ring_edges = net_.edge_count(EdgeKind::kRing);
  mt.connection_edges = net_.edge_count(EdgeKind::kConnection);
  mt.inflight_messages = inflight_count_;
  mt.changed = true;
  return mt;
}

}  // namespace rechord::core
