#include "core/topology_snapshot.h"

#include <algorithm>
#include <atomic>
#include <string>

namespace oscar {
namespace {

uint64_t NextSnapshotToken() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

}  // namespace

TopologySnapshot::TopologySnapshot(const Network& net)
    : frozen_(net), token_(NextSnapshotToken()) {
  // A snapshot is never mutated, so it carries no journal of its own.
  frozen_.restore_token_ = 0;
  frozen_.journal_active_ = false;
  frozen_.journal_ = {};
}

Status TopologySnapshot::CheckRestoreIdentity(const Network& net) const {
  const Network& full = frozen_;
  const size_t n = full.keys_.size();
  if (net.keys_.size() != n) {
    return Status::Error("restored network has wrong peer count");
  }
  for (PeerId id = 0; id < n; ++id) {
    if (net.keys_[id].raw != full.keys_[id].raw) {
      return Status::Error("restored key diverges at peer " +
                           std::to_string(id));
    }
    if (net.caps_[id].max_in != full.caps_[id].max_in ||
        net.caps_[id].max_out != full.caps_[id].max_out) {
      return Status::Error("restored caps diverge at peer " +
                           std::to_string(id));
    }
    if (net.alive_[id] != full.alive_[id]) {
      return Status::Error("restored liveness diverges at peer " +
                           std::to_string(id));
    }
    // Link order is part of the contract (walk order is physics), so
    // rows must match element-wise, not as sets.
    const PeerSpan a_out = net.OutLinks(id);
    const PeerSpan b_out = full.OutLinks(id);
    if (a_out.size() != b_out.size() ||
        !std::equal(a_out.begin(), a_out.end(), b_out.begin())) {
      return Status::Error("restored out row diverges at peer " +
                           std::to_string(id));
    }
    const PeerSpan a_in = net.InLinks(id);
    const PeerSpan b_in = full.InLinks(id);
    if (a_in.size() != b_in.size() ||
        !std::equal(a_in.begin(), a_in.end(), b_in.begin())) {
      return Status::Error("restored in row diverges at peer " +
                           std::to_string(id));
    }
  }
  if (net.ring_.entries() != full.ring_.entries()) {
    return Status::Error("restored ring diverges from the snapshot");
  }
  if (net.ring_pos_ != full.ring_pos_) {
    return Status::Error("restored ring_pos diverges from the snapshot");
  }
  return Status::Ok();
}

Network TopologySnapshot::Restore() const {
  Network net;
  RestoreInto(&net);
  return net;
}

void TopologySnapshot::RestoreInto(Network* net) const {
  const Network& src = frozen_;
  const size_t n = src.size();
  const bool delta = token_ != 0 && net->restore_token_ == token_ &&
                     net->journal_active_ && net->keys_.size() >= n &&
                     net->journal_.size() < n;
  if (delta) {
    // Drop peers joined since the last restore: truncate every parallel
    // array — and both slabs — back to the snapshot's extent. Bases of
    // surviving peers are unchanged (caps are join-time constants).
    net->keys_.resize(n);
    net->caps_.resize(n);
    net->alive_.resize(n);
    net->out_base_.resize(n + 1);
    net->in_base_.resize(n + 1);
    net->out_count_.resize(n);
    net->in_count_.resize(n);
    net->out_slab_.resize(net->out_base_[n]);
    net->in_slab_.resize(net->in_base_[n]);
    std::vector<PeerId>& journal = net->journal_;
    std::sort(journal.begin(), journal.end());
    journal.erase(std::unique(journal.begin(), journal.end()), journal.end());
    // Both sides share one slab layout, so a repair is two row copies
    // plus scalar stores.
    for (PeerId id : journal) {
      if (id >= n) continue;  // Joined peers, already dropped.
      net->keys_[id] = src.keys_[id];
      net->caps_[id] = src.caps_[id];
      net->alive_[id] = src.alive_[id];
      net->out_count_[id] = src.out_count_[id];
      net->in_count_[id] = src.in_count_[id];
      const PeerSpan out = src.OutLinks(id);
      std::copy(out.begin(), out.end(),
                net->out_slab_.data() + net->out_base_[id]);
      const PeerSpan in = src.InLinks(id);
      std::copy(in.begin(), in.end(), net->in_slab_.data() + net->in_base_[id]);
    }
    net->ring_ = src.ring_;
    net->ring_pos_ = src.ring_pos_;
  } else {
    // Full copy, reusing `net`'s allocations when they are large enough.
    *net = src;
  }
  net->restore_token_ = token_;
  net->journal_active_ = true;
  net->journal_.clear();
}

}  // namespace oscar
