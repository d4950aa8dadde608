#pragma once
// Correctness oracles of the benchmark. Each one is computed from the
// generated peer identifiers alone -- sorted live positions, plain binary
// search, the Chord definition -- and never calls the program's routing,
// Chord or specification code, so a fault in those layers cannot hide in
// the check. oracle_selftest.cpp checks every oracle against brute force
// and feeds each check a deliberately wrong input.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// (ring position, owner id) of every live peer, sorted by position.
using Ring = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

inline Ring sorted_ring(Ring peers) {
  std::sort(peers.begin(), peers.end());
  return peers;
}

/// The owner responsible for `key`: the first live peer clockwise from the
/// key (position >= key), wrapping to the smallest position past the top of
/// the identifier space. `ring` must be sorted and non-empty.
inline std::uint32_t responsible_owner(const Ring& ring, std::uint64_t key) {
  const auto it = std::lower_bound(
      ring.begin(), ring.end(), key,
      [](const auto& peer, std::uint64_t k) { return peer.first < k; });
  return it == ring.end() ? ring.front().second : it->second;
}

/// The lookup check: a lookup of `key` must complete at this owner.
inline bool lookup_ok(const Ring& ring, std::uint64_t key, std::uint32_t owner) {
  return owner == responsible_owner(ring, key);
}

/// Brute-force reference for responsible_owner: the peer at the smallest
/// clockwise distance (pos - key mod 2^64) from the key. O(n); self-tests
/// only.
inline std::uint32_t responsible_owner_brute(const Ring& ring,
                                             std::uint64_t key) {
  std::uint64_t best = ~std::uint64_t{0};
  std::uint32_t owner = 0;
  for (const auto& [pos, o] : ring)
    if (pos - key <= best) {
      best = pos - key;
      owner = o;
    }
  return owner;
}

/// Consistent hash of a KV key name: FNV-1a followed by the splitmix64
/// finalizer -- the key-placement rule of the Re-Chord DHT, restated here so
/// the owner oracle does not depend on the program's hashing code.
inline std::uint64_t key_position(std::string_view name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : name) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  std::uint64_t z = h + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Directed owner-to-owner edges, encoded (from << 32 | to).
using EdgeList = std::vector<std::uint64_t>;

inline std::uint64_t edge_code(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// The Chord edges that Fact 2.1 provably places in the stable Re-Chord
/// real projection: every successor edge except the one of the largest
/// peer (it crosses the seam of the identifier space), and every finger
///   p_i(v) = first peer at or after pos(v) + 2^-i (mod 1),  1 <= i <= m(v),
/// with 2^-m <= dist(v, succ(v)) < 2^-(m-1), except the fingers that wrap:
/// no peer lies at or after the target. Self-fingers are omitted. Sorted,
/// unique.
inline EdgeList required_chord_edges(const Ring& ring) {
  EdgeList req;
  const std::size_t n = ring.size();
  if (n < 2) return req;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [pos, owner] = ring[i];
    if (i + 1 < n) req.push_back(edge_code(owner, ring[i + 1].second));
    // Clockwise gap to the successor (wrapping for the largest peer).
    const std::uint64_t gap = ring[(i + 1) % n].first - pos;
    const int m = 1 + std::countl_zero(gap);
    for (int e = 1; e <= m; ++e) {
      const std::uint64_t target = pos + (std::uint64_t{1} << (64 - e));
      const auto it = std::lower_bound(
          ring.begin(), ring.end(), target,
          [](const auto& peer, std::uint64_t k) { return peer.first < k; });
      if (it == ring.end() || it->second == owner) continue;
      req.push_back(edge_code(owner, it->second));
    }
  }
  std::sort(req.begin(), req.end());
  req.erase(std::unique(req.begin(), req.end()), req.end());
  return req;
}

/// Required edges absent from `present` (both sorted).
inline std::size_t missing_edges(const EdgeList& required,
                                 const EdgeList& present) {
  std::size_t missing = 0;
  for (const std::uint64_t e : required)
    if (!std::binary_search(present.begin(), present.end(), e)) ++missing;
  return missing;
}

/// Expected value of every KV key: what the last successful put stored.
/// The benchmark never has two operations on one key in flight at once, so
/// a correct get returns exactly this value, or misses if no put of the key
/// has succeeded yet.
class KvModel {
 public:
  explicit KvModel(std::size_t keys) : value_(keys), put_(keys, false) {}
  void put(std::size_t key, std::string value) {
    value_[key] = std::move(value);
    put_[key] = true;
  }
  /// True when a get of `key` that reported `found` and read `got` (nullptr
  /// = no record at the reached owner) is what the model expects.
  [[nodiscard]] bool get_ok(std::size_t key, bool found,
                            const std::string* got) const {
    if (!put_[key]) return !found && got == nullptr;
    return found && got != nullptr && *got == value_[key];
  }

 private:
  std::vector<std::string> value_;
  std::vector<bool> put_;
};

}  // namespace perfbench
