// Freeze/restore losslessness, seen through the read kernels: a
// TopologySnapshot is a frozen copy of a Network, and running the walk,
// the greedy and backtracking step kernels and the gap-span loop over a
// live Network must reproduce running them over its snapshot move for
// move — same step kinds, hops, dead probes and routes, same
// visited-peer sequence and rng consumption per walk, same size
// estimates — on seeds 42-45, intact and crashed. The last case drives
// the incremental ring_pos maintenance (Join, Crash, CrashMany,
// JoinMany, delta RestoreInto) and checks the neighbor enumeration the
// kernels read against an index rebuilt from scratch.

#include <gtest/gtest.h>

#include <algorithm>

#include "churn/churn.h"
#include "core/network_view.h"
#include "core/topology_snapshot.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "routing/backtracking_router.h"
#include "routing/greedy_router.h"
#include "routing/route_stepper.h"
#include "sampling/random_walk_sampler.h"
#include "sampling/size_estimator.h"

namespace oscar {
namespace {

Network LinkedNetwork(size_t n, uint64_t seed) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{8, 8});
  }
  KleinbergOverlay overlay;
  for (PeerId id : net.AlivePeers()) {
    EXPECT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
  }
  return net;
}

/// Drives `live` over the network and `frozen` over its snapshot one
/// Step at a time and requires every observable of every step to agree.
void ExpectLockstepEqual(RouteStepper& live, RouteStepper& frozen,
                         const Network& net, const TopologySnapshot& snap,
                         PeerId source, KeyId target, const char* label) {
  live.Start(net, source, target);
  frozen.Start(snap, source, target);
  ASSERT_EQ(live.done(), frozen.done()) << label;
  // Generous bound: both algorithms terminate well before it.
  for (size_t i = 0; i < 8 * net.alive_count() + 64 && !live.done(); ++i) {
    ASSERT_FALSE(frozen.done()) << label << " step " << i;
    const RouteStep a = live.Step(net);
    const RouteStep b = frozen.Step(snap);
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
        << label << " step " << i;
    ASSERT_EQ(a.from, b.from) << label << " step " << i;
    ASSERT_EQ(a.to, b.to) << label << " step " << i;
    ASSERT_EQ(a.dead_probes, b.dead_probes) << label << " step " << i;
    ASSERT_EQ(live.current(), frozen.current()) << label << " step " << i;
    ASSERT_EQ(live.done(), frozen.done()) << label << " step " << i;
  }
  ASSERT_TRUE(live.done() && frozen.done()) << label;
  const RouteResult& ra = live.result();
  const RouteResult& rb = frozen.result();
  EXPECT_EQ(ra.success, rb.success) << label;
  EXPECT_EQ(ra.hops, rb.hops) << label;
  EXPECT_EQ(ra.wasted, rb.wasted) << label;
  EXPECT_EQ(ra.terminal, rb.terminal) << label;
  EXPECT_EQ(ra.path, rb.path) << label;
}

TEST(BackendEquivalenceTest, StepperLockstepAcrossSeedsAndCrashLevels) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (const double crash : {0.0, 0.15, 0.2}) {
      Network net = LinkedNetwork(250, seed);
      if (crash > 0.0) {
        Rng crash_rng(seed ^ 0xfeedULL);
        ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> alive = net.AlivePeers();
      Rng query_rng(seed * 777);
      for (int q = 0; q < 120; ++q) {
        const PeerId source =
            alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
        const KeyId target = KeyId::FromUnit(query_rng.NextDouble());
        GreedyStepper live_greedy, frozen_greedy;
        ExpectLockstepEqual(live_greedy, frozen_greedy, net, snap, source,
                            target, "greedy");
        BacktrackingStepper live_dfs, frozen_dfs;
        ExpectLockstepEqual(live_dfs, frozen_dfs, net, snap, source, target,
                            "backtracking");
      }
    }
  }
}

TEST(BackendEquivalenceTest, RouterMatchesAcrossBackendsPerQuery) {
  // Router::Route over the live network vs over its snapshot: whole-
  // route equality, the harness-facing contract.
  const GreedyRouter greedy;
  const BacktrackingRouter backtracking;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (const double crash : {0.0, 0.15}) {
      Network net = LinkedNetwork(250, seed);
      if (crash > 0.0) {
        Rng crash_rng(seed ^ 0xbeefULL);
        ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> alive = net.AlivePeers();
      Rng query_rng(seed * 1009);
      for (int q = 0; q < 150; ++q) {
        const PeerId source =
            alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
        const KeyId target = KeyId::FromUnit(query_rng.NextDouble());
        for (const Router* router :
             {static_cast<const Router*>(&greedy),
              static_cast<const Router*>(&backtracking)}) {
          const RouteResult live = router->Route(net, source, target);
          const RouteResult frozen = router->Route(snap, source, target);
          ASSERT_EQ(live.success, frozen.success)
              << router->name() << " seed " << seed << " query " << q;
          ASSERT_EQ(live.hops, frozen.hops)
              << router->name() << " seed " << seed << " query " << q;
          ASSERT_EQ(live.wasted, frozen.wasted)
              << router->name() << " seed " << seed << " query " << q;
          ASSERT_EQ(live.path, frozen.path)
              << router->name() << " seed " << seed << " query " << q;
        }
      }
    }
  }
}

TEST(BackendEquivalenceTest, PerWalkLockstepAcrossSeedsAndCrashLevels) {
  // Small cutoff so wide segments actually exercise the rejection walk
  // (at test scale the tuned default would shunt everything onto the
  // successor-list path and test nothing).
  RandomWalkOptions live_options;
  live_options.successor_list_cutoff = 8;
  RandomWalkOptions frozen_options = live_options;
  std::vector<PeerId> live_trace;
  std::vector<PeerId> frozen_trace;
  live_options.visit_trace = &live_trace;
  frozen_options.visit_trace = &frozen_trace;
  const RandomWalkSegmentSampler live_sampler(live_options);
  const RandomWalkSegmentSampler frozen_sampler(frozen_options);

  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (const double crash : {0.0, 0.15}) {
      Network net = LinkedNetwork(300, seed);
      if (crash > 0.0) {
        Rng crash_rng(seed ^ 0xc0ffeeULL);
        ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> alive = net.AlivePeers();
      // Twin rng streams: the draws must stay aligned through every
      // walk, which only holds if both runs consume identically.
      Rng live_rng(seed * 31337);
      Rng frozen_rng(seed * 31337);
      Rng segment_rng(seed * 101);  // Shared segment/origin chooser.
      size_t walks_taken = 0;
      for (int q = 0; q < 250; ++q) {
        const PeerId origin = alive[static_cast<size_t>(
            segment_rng.UniformInt(alive.size()))];
        const KeyId from = KeyId::FromUnit(segment_rng.NextDouble());
        // Sweep widths: slivers (successor list), mid, and near-full
        // ring (rejection walk hits its stride tests fast).
        const double width = 0.02 + 0.9 * segment_rng.NextDouble();
        const KeyId to = from.OffsetBy(width);
        live_trace.clear();
        frozen_trace.clear();
        const auto a =
            live_sampler.SampleInSegment(net, origin, from, to, &live_rng);
        const auto b = frozen_sampler.SampleInSegment(snap, origin, from, to,
                                                      &frozen_rng);
        ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed << " q " << q;
        if (!a.ok()) continue;
        ASSERT_EQ(a.value().peer, b.value().peer)
            << "seed " << seed << " q " << q;
        ASSERT_EQ(a.value().steps, b.value().steps)
            << "seed " << seed << " q " << q;
        ASSERT_EQ(live_trace, frozen_trace)
            << "visited sequences diverged, seed " << seed << " q " << q;
        if (!live_trace.empty()) ++walks_taken;
      }
      // The sweep must actually exercise the walk path, not just the
      // shared successor-list branch.
      EXPECT_GT(walks_taken, 50u) << "seed " << seed << " crash " << crash;
    }
  }
}

TEST(BackendEquivalenceTest, GapEstimatorMatchesAcrossBackends) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(220, seed);
    Rng crash_rng(seed ^ 0xabcULL);
    ASSERT_TRUE(CrashFraction(&net, 0.15, &crash_rng).ok());
    const TopologySnapshot snap(net);
    Rng rng(seed);  // Unused by the gap estimator; signature only.
    for (const uint32_t window : {4u, 16u, 64u}) {
      const GapSizeEstimator estimator(window);
      for (PeerId id = 0; id < net.size(); ++id) {
        EXPECT_DOUBLE_EQ(estimator.Estimate(net, id, &rng),
                         estimator.Estimate(snap, id, &rng))
            << "window " << window << " peer " << id;
      }
    }
  }
}

/// ForEachNeighbor's / ForEachWalkNeighbor's enumeration of `id` — the
/// exact sequence the step and walk kernels iterate.
std::vector<PeerId> Neighbors(NetworkView net, PeerId id) {
  std::vector<PeerId> out;
  ForEachNeighbor(net, id, [&](PeerId n) { out.push_back(n); });
  return out;
}
std::vector<PeerId> WalkNeighbors(NetworkView net, PeerId id) {
  std::vector<PeerId> out;
  ForEachWalkNeighbor(net, id, [&](PeerId n) { out.push_back(n); });
  return out;
}

/// Routing neighbors of every peer derived from the ring entries alone
/// (a position map rebuilt by scanning the ring), independent of the
/// incrementally maintained ring_pos index the kernels read.
std::vector<std::vector<PeerId>> ReferenceNeighbors(const Network& net) {
  const Ring& ring = net.ring();
  std::vector<uint32_t> pos(net.size(), Network::kNotOnRing);
  for (size_t i = 0; i < ring.size(); ++i) {
    pos[ring.at(i).id] = static_cast<uint32_t>(i);
  }
  std::vector<std::vector<PeerId>> out(net.size());
  const size_t rn = ring.size();
  for (PeerId id = 0; id < net.size(); ++id) {
    if (pos[id] != Network::kNotOnRing && rn >= 2) {
      const PeerId succ = ring.at((pos[id] + 1) % rn).id;
      const PeerId pred = ring.at((pos[id] + rn - 1) % rn).id;
      out[id].push_back(succ);
      if (pred != succ) out[id].push_back(pred);
    }
    for (PeerId target : net.OutLinks(id)) out[id].push_back(target);
  }
  return out;
}

/// The live network's neighbor enumeration, and a freshly frozen
/// snapshot's, must both equal the reference; the audit must pass.
void ExpectEnumerationFresh(const Network& net, const char* label) {
  ASSERT_TRUE(net.CheckInvariants().ok())
      << label << ": " << net.CheckInvariants().message();
  const TopologySnapshot snap(net);
  ASSERT_TRUE(snap.Validate().ok()) << label;
  const std::vector<std::vector<PeerId>> expected = ReferenceNeighbors(net);
  const NetworkView live(net);
  const NetworkView frozen(snap);
  for (PeerId id = 0; id < net.size(); ++id) {
    ASSERT_EQ(Neighbors(live, id), expected[id]) << label << " peer " << id;
    ASSERT_EQ(Neighbors(frozen, id), expected[id]) << label << " peer " << id;
    ASSERT_EQ(WalkNeighbors(live, id), WalkNeighbors(frozen, id))
        << label << " peer " << id;
    ASSERT_EQ(live.SuccessorOf(id), frozen.SuccessorOf(id))
        << label << " peer " << id;
    ASSERT_EQ(live.PredecessorOf(id), frozen.PredecessorOf(id))
        << label << " peer " << id;
  }
  // And the kernels themselves agree over the two backends.
  const std::vector<PeerId> alive = net.AlivePeers();
  Rng query_rng(alive.size() * 17 + 3);
  const BacktrackingRouter router;
  for (int q = 0; q < 40; ++q) {
    const PeerId source =
        alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
    const KeyId target = KeyId::FromUnit(query_rng.NextDouble());
    ASSERT_EQ(router.Route(net, source, target).path,
              router.Route(snap, source, target).path)
        << label << " query " << q;
  }
}

TEST(BackendEquivalenceTest, RingPositionsSurviveInterleavedMutations) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    const Network grown = LinkedNetwork(200, seed);
    const TopologySnapshot base(grown);
    Network net;
    base.RestoreInto(&net);  // Full restore; arms the journal.
    ExpectEnumerationFresh(net, "full restore");

    Rng rng(seed * 4243);
    const auto random_alive = [&]() {
      const std::vector<PeerId> alive = net.AlivePeers();
      return alive[static_cast<size_t>(rng.UniformInt(alive.size()))];
    };
    const auto random_key = [&]() {
      return KeyId::FromUnit(rng.NextDouble());
    };
    // Single joins land at random ring positions (including the
    // extremes, where the refreshed tail is everything or nothing).
    for (int i = 0; i < 5; ++i) net.Join(random_key(), DegreeCaps{8, 8});
    net.Join(KeyId::FromRaw(0), DegreeCaps{8, 8});
    net.Join(KeyId::FromRaw(UINT64_MAX), DegreeCaps{8, 8});
    ExpectEnumerationFresh(net, "joins");
    for (int i = 0; i < 5; ++i) net.Crash(random_alive());
    net.Crash(net.ring().at(0).id);
    net.Crash(net.ring().at(net.ring().size() - 1).id);
    ExpectEnumerationFresh(net, "crashes");
    std::vector<PeerId> victims;
    for (int i = 0; i < 12; ++i) victims.push_back(random_alive());
    victims.push_back(victims.front());  // Duplicates are skipped.
    net.CrashMany(victims);
    ExpectEnumerationFresh(net, "crash many");
    std::vector<KeyId> keys;
    std::vector<DegreeCaps> caps;
    for (int i = 0; i < 9; ++i) {
      keys.push_back(random_key());
      caps.push_back(DegreeCaps{8, 8});
    }
    net.JoinMany(keys, caps);
    KleinbergOverlay overlay;
    for (PeerId id = static_cast<PeerId>(grown.size()); id < net.size();
         ++id) {
      ASSERT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
    }
    ExpectEnumerationFresh(net, "join many");

    // Delta restore: the journal path must put back the base's index.
    base.RestoreInto(&net);
    ASSERT_TRUE(base.CheckRestoreIdentity(net).ok()) << "seed " << seed;
    ExpectEnumerationFresh(net, "delta restore");
    for (PeerId id = 0; id < net.size(); ++id) {
      ASSERT_EQ(net.ring_pos(id), base.network().ring_pos(id)) << "peer " << id;
    }
    // Mutating again after the delta restore keeps the index fresh.
    net.Crash(random_alive());
    net.Join(random_key(), DegreeCaps{8, 8});
    net.CrashMany({random_alive(), random_alive()});
    ExpectEnumerationFresh(net, "after delta restore");
  }
}

}  // namespace
}  // namespace oscar
