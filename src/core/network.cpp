#include "core/network.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>

#include "util/rng.hpp"
#include "util/sorted_vec.hpp"

namespace rechord::core {

Network::Network(std::span<const RingPos> real_ids) {
  lanes_[0].topo = 1;  // reserve 0 as the "never computed" cache stamp
  owner_pos_.reserve(real_ids.size());
  for (RingPos id : real_ids) add_owner(id);
}

void Network::grow_slots(std::uint32_t owner) {
  const std::size_t want = static_cast<std::size_t>(owner + 1) * kSlotsPerOwner;
  pos_.resize(want, 0);
  alive_.resize(want, 0);
  rl_.resize(want, kInvalidSlot);
  rr_.resize(want, kInvalidSlot);
  slot_dirty_.resize(want, 0);
  slot_digest_.resize(want, 0);  // 0 == digest of a dead slot
  pub_digest_.resize(want, 0);   // ditto
  owner_dirty_.resize(owner + 1, 0);
  readers_.resize(owner + 1);
  for (auto& per_kind : sets_) per_kind.resize(want);
}

std::uint32_t Network::add_owner(RingPos id) {
#ifndef NDEBUG
  for (std::uint32_t o = 0; o < owner_count(); ++o)
    assert(!owner_alive(o) || owner_pos_[o] != id);
#endif
  const auto owner = static_cast<std::uint32_t>(owner_pos_.size());
  owner_pos_.push_back(id);
  grow_slots(owner);
  for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i)
    pos_[slot_of(owner, i)] = ident::virtual_pos(id, static_cast<int>(i));
  set_alive(slot_of(owner, 0), true);
  return owner;
}

std::uint32_t Network::max_live_index(std::uint32_t owner) const noexcept {
  for (std::uint32_t i = kSlotsPerOwner; i-- > 1;)
    if (alive_[slot_of(owner, i)]) return i;
  return 0;
}

std::vector<std::uint32_t> Network::live_owners() const {
  std::vector<std::uint32_t> out;
  live_owners_into(out);
  return out;
}

void Network::live_owners_into(std::vector<std::uint32_t>& out) const {
  out.clear();
  out.reserve(owner_count());
  for (std::uint32_t o = 0; o < owner_count(); ++o)
    if (owner_alive(o)) out.push_back(o);
}

std::vector<Slot> Network::live_slots() const {
  std::vector<Slot> out;
  for (Slot s = 0; s < slot_count(); ++s)
    if (alive_[s]) out.push_back(s);
  return out;
}

std::vector<Slot> Network::live_slots_of(std::uint32_t owner) const {
  std::vector<Slot> out;
  for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
    const Slot s = slot_of(owner, i);
    if (alive_[s]) out.push_back(s);
  }
  return out;
}

bool Network::add_edge(Slot s, EdgeKind k, Slot target) {
  if (s == target) return false;
  auto& set = sets_[static_cast<std::size_t>(k)][s];
  const auto key = order_key(target);
  const auto it = std::lower_bound(
      set.begin(), set.end(), key,
      [this](Slot a, OrderKey kk) { return order_key(a) < kk; });
  // Duplicate: return BEFORE mark_dirty -- a re-delivered edge must leave
  // digests, dirty marks and hence wakes untouched (the header documents
  // this as the contract the translation closure's emit-only injections
  // depend on).
  if (it != set.end() && *it == target) return false;
  set.insert(it, target);
  CounterLane& c = lane();
  if (alive_[s]) ++c.edge_live[static_cast<std::size_t>(k)];
  // `target` may belong to another peer whose worker thread is concurrently
  // flipping the flag in set_alive, so read it atomically (relaxed: either
  // value is safe -- a spurious dead_refs only costs one normalize scan,
  // and a real death sets the flag in set_alive itself).
  if (!alive_[s] || !std::atomic_ref<std::uint8_t>(alive_[target])
                         .load(std::memory_order_relaxed))
    c.dead_refs = true;
  mark_dirty(s);
  return true;
}

std::size_t Network::add_edges_bulk(Slot s, EdgeKind k,
                                    std::span<const Slot> targets) {
  if (targets.empty()) return 0;
  if (targets.size() == 1) return add_edge(s, k, targets[0]) ? 1 : 0;
  auto& set = sets_[static_cast<std::size_t>(k)][s];
  auto key_lt = [this](Slot a, Slot b) { return order_key(a) < order_key(b); };
  merge_buf_.clear();
  merge_buf_.reserve(set.size() + targets.size());
  std::size_t added = 0;
  bool dead_target = false;
  std::size_t i = 0, j = 0;
  while (i < set.size() && j < targets.size()) {
    const Slot t = targets[j];
    if (t == s) {
      ++j;
    } else if (key_lt(set[i], t)) {
      merge_buf_.push_back(set[i++]);
    } else if (key_lt(t, set[i])) {
      merge_buf_.push_back(t);
      if (!alive_[t]) dead_target = true;
      ++added;
      ++j;
    } else {  // equal order keys => same slot: duplicate of an existing edge
      merge_buf_.push_back(set[i++]);
      ++j;
    }
  }
  for (; i < set.size(); ++i) merge_buf_.push_back(set[i]);
  for (; j < targets.size(); ++j) {
    const Slot t = targets[j];
    if (t == s) continue;
    merge_buf_.push_back(t);
    if (!alive_[t]) dead_target = true;
    ++added;
  }
  // All duplicates: same no-dirty contract as add_edge's duplicate return.
  if (added == 0) return 0;
  set.assign(merge_buf_.begin(), merge_buf_.end());
  CounterLane& c = lane();
  if (alive_[s])
    c.edge_live[static_cast<std::size_t>(k)] +=
        static_cast<std::int64_t>(added);
  if (!alive_[s] || dead_target) c.dead_refs = true;
  mark_dirty(s);
  return added;
}

bool Network::remove_edge(Slot s, EdgeKind k, Slot target) {
  auto& set = sets_[static_cast<std::size_t>(k)][s];
  const auto key = order_key(target);
  const auto it = std::lower_bound(
      set.begin(), set.end(), key,
      [this](Slot a, OrderKey kk) { return order_key(a) < kk; });
  if (it == set.end() || *it != target) return false;
  set.erase(it);
  if (alive_[s]) --lane().edge_live[static_cast<std::size_t>(k)];
  mark_dirty(s);
  return true;
}

bool Network::has_edge(Slot s, EdgeKind k, Slot target) const noexcept {
  const auto& set = sets_[static_cast<std::size_t>(k)][s];
  const auto key = order_key(target);
  const auto it = std::lower_bound(
      set.begin(), set.end(), key,
      [this](Slot a, OrderKey kk) { return order_key(a) < kk; });
  return it != set.end() && *it == target;
}

bool Network::clear_edges(Slot s) {
  bool any = false;
  for (int k = 0; k < kEdgeKinds; ++k) {
    auto& set = sets_[k][s];
    if (set.empty()) continue;
    if (alive_[s])
      lane().edge_live[k] -= static_cast<std::int64_t>(set.size());
    set.clear();
    any = true;
  }
  if (any) mark_dirty(s);
  return any;
}

void Network::normalize() {
  if (!lanes_[0].dead_refs) return;  // no dead reference can exist (tracked)
  // Resolve a (possibly dead) reference to a live slot, or kInvalidSlot.
  auto resolve = [this](Slot t) -> Slot {
    if (alive_[t]) return t;
    const std::uint32_t owner = owner_of(t);
    if (!owner_alive(owner)) return kInvalidSlot;  // peer left the system
    return slot_of(owner, max_live_index(owner));
  };
  auto& scratch = merge_buf_;
  for (Slot s = 0; s < slot_count(); ++s) {
    for (int k = 0; k < kEdgeKinds; ++k) {
      auto& set = sets_[k][s];
      if (!alive_[s]) {
        if (!set.empty()) {
          set.clear();
          mark_dirty(s);
        }
        continue;
      }
      bool dirty = false;
      for (Slot t : set) {
        if (!alive_[t]) {
          dirty = true;
          break;
        }
      }
      if (!dirty) continue;
      scratch.clear();
      for (Slot t : set) {
        const Slot r = resolve(t);
        if (r != kInvalidSlot && r != s) scratch.push_back(r);
      }
      std::sort(scratch.begin(), scratch.end(), [this](Slot a, Slot b) {
        return order_key(a) < order_key(b);
      });
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      lane().edge_live[k] += static_cast<std::int64_t>(scratch.size()) -
                             static_cast<std::int64_t>(set.size());
      set.assign(scratch.begin(), scratch.end());
      mark_dirty(s);
    }
    if (alive_[s]) {
      if (rl_[s] != kInvalidSlot && !alive_[rl_[s]]) set_rl(s, kInvalidSlot);
      if (rr_[s] != kInvalidSlot && !alive_[rr_[s]]) set_rr(s, kInvalidSlot);
    } else {
      set_rl(s, kInvalidSlot);
      set_rr(s, kInvalidSlot);
    }
  }
  lanes_[0].dead_refs = false;
}

void Network::fold_counter_lanes() noexcept {
  CounterLane& total = lanes_[0];
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    CounterLane& part = lanes_[l];
    for (int k = 0; k < kEdgeKinds; ++k) total.edge_live[k] += part.edge_live[k];
    total.live_slots += part.live_slots;
    total.live_reals += part.live_reals;
    total.topo += part.topo;
    total.dead_refs = total.dead_refs || part.dead_refs;
    part = CounterLane{};
  }
}

std::vector<std::uint64_t> Network::serialize_state() const {
  std::vector<std::uint64_t> out;
  out.reserve(64 + 4 * slot_count());
  out.push_back(slot_count());
  for (Slot s = 0; s < slot_count(); ++s) {
    if (!alive_[s]) continue;
    out.push_back(0xA11CE000ULL | s);
    out.push_back((static_cast<std::uint64_t>(rl_[s]) << 32) | rr_[s]);
    for (const auto& per_kind : sets_) {
      out.push_back(0xED6E0000ULL | per_kind[s].size());
      for (Slot t : per_kind[s]) out.push_back(t);
    }
  }
  return out;
}

std::uint64_t Network::state_fingerprint() const {
  std::uint64_t h = 0x5EED0F1B57A713ULL;
  for (std::uint64_t w : serialize_state()) h = util::mix64(h ^ w);
  return h;
}

std::uint64_t Network::slot_digest(Slot s) const noexcept {
  if (!alive_[s]) return 0;  // dead slots are invisible to serialize_state()
  std::uint64_t h = util::mix64(0x517DD16E57ULL ^ s);
  h = util::mix64(h ^ ((static_cast<std::uint64_t>(rl_[s]) << 32) | rr_[s]));
  for (const auto& per_kind : sets_) {
    h = util::mix64(h ^ (0xED6E0000ULL | per_kind[s].size()));
    for (Slot t : per_kind[s]) h = util::mix64(h ^ t);
  }
  return h;
}

std::uint64_t Network::pub_digest(Slot s) const noexcept {
  if (!alive_[s]) return 0;
  return util::mix64(util::mix64(0x9B1D16E57A1ULL ^ s ^ rl_[s]) ^ rr_[s]);
}

bool Network::consume_round_changes() {
  return consume_round_changes(nullptr, nullptr);
}

bool Network::consume_round_changes(
    std::vector<std::uint32_t>* changed_owners,
    std::vector<std::uint32_t>* published_owners) {
  bool changed = false;
  for (std::uint32_t o = 0; o < owner_count(); ++o) {
    if (!owner_dirty_[o]) continue;
    owner_dirty_[o] = 0;
    bool owner_changed = false;
    bool owner_published = false;
    for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
      const Slot s = slot_of(o, i);
      if (!slot_dirty_[s]) continue;
      slot_dirty_[s] = 0;
      const std::uint64_t d = slot_digest(s);
      if (d != slot_digest_[s]) {
        slot_digest_[s] = d;
        changed = true;
        owner_changed = true;
        const std::uint64_t p = pub_digest(s);
        if (p != pub_digest_[s]) {
          pub_digest_[s] = p;
          owner_published = true;
        }
      }
    }
    if (owner_changed && changed_owners) changed_owners->push_back(o);
    if (owner_published && published_owners) published_owners->push_back(o);
  }
  return changed;
}

void Network::rebuild_change_baseline() {
  for (Slot s = 0; s < slot_count(); ++s) {
    slot_digest_[s] = slot_digest(s);
    pub_digest_[s] = pub_digest(s);
    slot_dirty_[s] = 0;
  }
  std::fill(owner_dirty_.begin(), owner_dirty_.end(), 0);
}

void Network::note_reader(std::uint32_t target_owner,
                          std::uint32_t reader_owner) {
  if (target_owner == reader_owner) return;  // own slots wake their owner
  util::insert_sorted_unique(readers_[target_owner], reader_owner);
}

void Network::rebuild_reader_index(std::span<const std::uint64_t> extra_pairs) {
  // Flat collect -> sort -> unique -> distribute. Entries keep note_reader's
  // semantics: one (target_owner, reader_owner) pair per edge (any kind, live
  // or not), self-pairs excluded.
  auto& pairs = reader_pairs_buf_;
  pairs.assign(extra_pairs.begin(), extra_pairs.end());
  for (Slot s = 0; s < slot_count(); ++s) {
    const std::uint32_t o = owner_of(s);
    for (const auto& per_kind : sets_)
      for (Slot t : per_kind[s]) {
        const std::uint32_t to = owner_of(t);
        if (to != o)
          pairs.push_back((static_cast<std::uint64_t>(to) << 32) | o);
      }
  }
  // Counting-sort scatter on the target owner, then sort + unique each
  // per-target bucket (mean bucket size is the in-degree, a few hundred at
  // most) -- much cheaper than one comparison sort over every edge in the
  // system.
  const std::uint32_t n = owner_count();
  util::bucket_by_key(pairs, n, reader_counts_buf_, reader_cursor_buf_,
                      reader_scatter_buf_);
  for (std::uint32_t o = 0; o < n; ++o) {
    auto& out = readers_[o];
    out.clear();
    const auto begin = reader_scatter_buf_.begin() + reader_counts_buf_[o];
    const auto end = reader_scatter_buf_.begin() + reader_counts_buf_[o + 1];
    std::sort(begin, end);
    out.assign(begin, std::unique(begin, end));
  }
}

std::size_t Network::edge_set_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& per_kind : sets_)
    for (const auto& set : per_kind) bytes += set.capacity() * sizeof(Slot);
  return bytes;
}

std::string Network::describe(Slot s) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s(%s%u@%u)%s",
                ident::pos_to_string(pos_[s]).c_str(),
                is_real_slot(s) ? "r" : "v", index_of(s), owner_of(s),
                alive_[s] ? "" : "[dead]");
  return buf;
}

}  // namespace rechord::core
