// Ring: the sorted key index over alive peers. Supports ownership
// lookup, clockwise order statistics (CountInSegment, rank queries) and
// neighbor queries — the substrate every overlay and router builds on.

#ifndef OSCAR_CORE_RING_H_
#define OSCAR_CORE_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/key_id.h"

namespace oscar {

/// Peers are dense indices into Network's peer table.
using PeerId = uint32_t;

class Ring {
 public:
  struct Entry {
    uint64_t key_raw;
    PeerId id;
    friend bool operator<(const Entry& a, const Entry& b) {
      return a.key_raw != b.key_raw ? a.key_raw < b.key_raw : a.id < b.id;
    }
    friend bool operator==(const Entry& a, const Entry& b) {
      return a.key_raw == b.key_raw && a.id == b.id;
    }
  };

  /// Inserts (key, id) and returns the position it landed at; every
  /// entry from that position on shifted one slot clockwise.
  size_t Insert(KeyId key, PeerId id);
  /// Inserts every entry in `added` (any order) in one backward merge
  /// pass — O(size + k log k) total where k sorted-vector Inserts would
  /// cost O(k * size). Identical result to inserting them one by one;
  /// Network::JoinMany is the caller that makes batched joins cheap.
  /// Returns the position of the lowest inserted entry — no entry before
  /// it moved (size() when `added` is empty).
  size_t InsertMany(std::vector<Entry> added);
  /// Removes (key, id) and returns the position it held (entries after
  /// it shifted one slot back), or nullopt when it was not on the ring.
  std::optional<size_t> Remove(KeyId key, PeerId id);

  /// Removes every entry whose id satisfies `pred` in one filter pass —
  /// O(size) total instead of O(size) per removal, the batched form
  /// Network::CrashMany uses. Survivor order is unchanged, so the
  /// result is identical to removing the same entries one by one.
  template <typename Pred>
  void RemoveIdsIf(Pred pred) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) { return pred(e.id); }),
                   entries_.end());
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// The alive peer closest to `key` by shortest-way ring distance
  /// (ties broken clockwise). nullopt on an empty ring.
  std::optional<PeerId> OwnerOf(KeyId key) const;

  /// Number of alive peers whose key lies in the clockwise segment
  /// [from, to). from == to denotes the empty segment.
  size_t CountInSegment(KeyId from, KeyId to) const;

  /// The `offset`-th alive peer clockwise within [from, to); nullopt when
  /// the segment holds fewer than offset+1 peers.
  std::optional<PeerId> NthInSegment(KeyId from, KeyId to,
                                     size_t offset) const;

  /// First alive peer at or clockwise-after `key` (wrapping).
  std::optional<PeerId> SuccessorOfKey(KeyId key) const;

  /// The entry at ring position `index` (Network::ring_pos maps a peer
  /// to its position).
  const Entry& at(size_t index) const { return entries_[index]; }

  /// The peer one position clockwise (or counter-clockwise) of `index`;
  /// nullopt when `index` is off the ring or the ring has fewer than two
  /// entries (a lone peer has no neighbors).
  std::optional<PeerId> NeighborAt(size_t index, bool clockwise) const {
    const size_t n = entries_.size();
    if (n < 2 || index >= n) return std::nullopt;
    return entries_[clockwise ? (index + 1) % n : (index + n - 1) % n].id;
  }

 private:
  // Position of the first entry with key_raw >= raw (== size() if none).
  size_t LowerBound(uint64_t raw) const;

  std::vector<Entry> entries_;  // Sorted by (key_raw, id).
};

}  // namespace oscar

#endif  // OSCAR_CORE_RING_H_
