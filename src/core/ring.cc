#include "core/ring.h"

#include <algorithm>

namespace oscar {

size_t Ring::LowerBound(uint64_t raw) const {
  const Entry probe{raw, 0};
  return static_cast<size_t>(
      std::lower_bound(entries_.begin(), entries_.end(), probe) -
      entries_.begin());
}

size_t Ring::Insert(KeyId key, PeerId id) {
  const Entry entry{key.raw, id};
  const auto it = entries_.insert(
      std::lower_bound(entries_.begin(), entries_.end(), entry), entry);
  return static_cast<size_t>(it - entries_.begin());
}

size_t Ring::InsertMany(std::vector<Entry> added) {
  if (added.empty()) return entries_.size();
  if (added.size() == 1) {
    return Insert(KeyId::FromRaw(added.front().key_raw), added.front().id);
  }
  std::sort(added.begin(), added.end());
  // Backward in-place merge: one O(existing + added) pass instead of an
  // O(existing) memmove per insert — the difference between O(N^2) and
  // O(N) ring maintenance over a million-peer join stream.
  const size_t old_size = entries_.size();
  entries_.resize(old_size + added.size());
  size_t read = old_size;
  size_t put = entries_.size();
  size_t from_new = added.size();
  while (from_new > 0) {
    if (read > 0 && added[from_new - 1] < entries_[read - 1]) {
      entries_[--put] = entries_[--read];
    } else {
      entries_[--put] = added[--from_new];
    }
  }
  return put;  // The lowest new entry was placed last.
}

std::optional<size_t> Ring::Remove(KeyId key, PeerId id) {
  const Entry entry{key.raw, id};
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), entry);
  if (it == entries_.end() || it->key_raw != key.raw || it->id != id) {
    return std::nullopt;
  }
  const size_t index = static_cast<size_t>(it - entries_.begin());
  entries_.erase(it);
  return index;
}

std::optional<PeerId> Ring::OwnerOf(KeyId key) const {
  if (entries_.empty()) return std::nullopt;
  const size_t n = entries_.size();
  const size_t succ = LowerBound(key.raw) % n;
  const size_t pred = (succ + n - 1) % n;
  const KeyId succ_key = KeyId::FromRaw(entries_[succ].key_raw);
  const KeyId pred_key = KeyId::FromRaw(entries_[pred].key_raw);
  // Closest wins; the clockwise successor wins ties.
  if (RingDistance(key, succ_key) <= RingDistance(key, pred_key)) {
    return entries_[succ].id;
  }
  return entries_[pred].id;
}

size_t Ring::CountInSegment(KeyId from, KeyId to) const {
  if (entries_.empty() || from == to) return 0;
  const size_t i_from = LowerBound(from.raw);
  const size_t i_to = LowerBound(to.raw);
  if (from.raw < to.raw) return i_to - i_from;
  return entries_.size() - i_from + i_to;  // Segment wraps the seam.
}

std::optional<PeerId> Ring::NthInSegment(KeyId from, KeyId to,
                                         size_t offset) const {
  if (offset >= CountInSegment(from, to)) return std::nullopt;
  const size_t start = LowerBound(from.raw);
  return entries_[(start + offset) % entries_.size()].id;
}

std::optional<PeerId> Ring::SuccessorOfKey(KeyId key) const {
  if (entries_.empty()) return std::nullopt;
  return entries_[LowerBound(key.raw) % entries_.size()].id;
}

}  // namespace oscar
