// TopologySnapshot: an immutable freeze of a Network. It holds a copy
// of the network's own peer table — the same struct-of-arrays layout,
// cap-sized slab rows and O(1) ring position index — with no mutation
// journal, so every read-side consumer runs over it unchanged (a
// snapshot converts to `const Network&`), it is one bulk copy to build,
// and it is safe to share across threads or scenario replays.
// Restore() materializes a fresh mutable Network that is structurally
// identical to the one the snapshot was taken from — the substrate for
// replaying many crash/churn variants against one grown topology
// instead of regrowing or deep-copying it.

#ifndef OSCAR_CORE_TOPOLOGY_SNAPSHOT_H_
#define OSCAR_CORE_TOPOLOGY_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"

namespace oscar {

class TopologySnapshot {
 public:
  TopologySnapshot() = default;
  /// Freezes `net`: one copy of its peer table, slabs and ring index.
  explicit TopologySnapshot(const Network& net);

  /// The frozen network. Implicit so a snapshot goes wherever a
  /// read-only `const Network&` (NetworkView) is taken.
  const Network& network() const { return frozen_; }
  operator const Network&() const { return frozen_; }  // NOLINT

  size_t size() const { return frozen_.size(); }
  KeyId key(PeerId id) const { return frozen_.key(id); }
  bool alive(PeerId id) const { return frozen_.alive(id); }
  DegreeCaps caps(PeerId id) const { return frozen_.caps(id); }
  const Ring& ring() const { return frozen_.ring(); }
  PeerSpan OutLinks(PeerId id) const { return frozen_.OutLinks(id); }
  PeerSpan InLinks(PeerId id) const { return frozen_.InLinks(id); }

  /// Materializes a mutable Network structurally identical to the one
  /// this snapshot froze (peer order, link order, ring index). A
  /// restore is what churn experiments crash instead of deep-copying
  /// the grown network once per crash level.
  Network Restore() const;

  /// Restore() into a caller-owned Network, arming its mutation
  /// journal. The first call (or a call on a network restored from a
  /// different snapshot) is a full copy that reuses `net`'s existing
  /// allocations; every later call repairs ONLY the peers mutated since
  /// the previous restore — O(touched) instead of O(N) — plus one ring
  /// copy. The result is always structurally identical to Restore()
  /// (guarded by the delta-restore identity test); the journal is how
  /// fig2's per-crash-level restores and oscar_sim's per-scenario
  /// replays skip rebuilding the untouched bulk of the peer table.
  void RestoreInto(Network* net) const;

  /// Deep structural self-check, the snapshot half of the OSCAR_AUDIT
  /// layer (common/audit.h): the frozen table's CheckInvariants().
  Status Validate() const { return frozen_.CheckInvariants(); }

  /// Delta-restore identity audit: verifies `net` (typically produced
  /// by RestoreInto's journal-driven repair path) is structurally
  /// identical to the frozen network — the equivalence the mutation
  /// journal promises. O(N + E): audit-only, called behind OSCAR_AUDIT
  /// at restore granularity.
  Status CheckRestoreIdentity(const Network& net) const;

 private:
  // audit_test corrupts the frozen table to prove Validate() detects
  // each violation class (no public path builds an invalid snapshot).
  friend struct TopologySnapshotTestAccess;

  Network frozen_;
  // Identity for delta restores: RestoreInto() only trusts a network's
  // mutation journal when the network was last restored from a snapshot
  // carrying this token (0 = default-constructed, never matches).
  uint64_t token_ = 0;
};

}  // namespace oscar

#endif  // OSCAR_CORE_TOPOLOGY_SNAPSHOT_H_
