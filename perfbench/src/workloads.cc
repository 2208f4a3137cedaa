#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "checks.h"
#include "common/string_util.h"
#include "core/experiments.h"
#include "core/simulation.h"
#include "metrics/degree_metrics.h"
#include "overlay/maintenance.h"
#include "routing/backtracking_router.h"
#include "routing/greedy_router.h"
#include "sampling/random_walk_sampler.h"
#include "serve/load_generator.h"
#include "sim/scenario.h"
#include "spans.h"
#include "trace/columnar_trace.h"
#include "trace/trace_reader.h"

namespace perfbench {
namespace {

using oscar::StrCat;
using Clock = std::chrono::steady_clock;

// ---- Workload shapes --------------------------------------------------
// A run with seed s grows K overlays from seeds K*s .. K*s + K-1;
// setup_s is the median of their set-up times. Each timed round runs
// the workload on every topology, and every end-to-end figure is a
// trimmed mean over those topologies (or replays): one topology whose
// greedy routes run long cannot swing a run's figures on its own.

// serve-zipf: the read path over frozen snapshots.
constexpr size_t kServeTopologies = 5;
constexpr size_t kServePeers = 3000;
constexpr uint32_t kServeThreads = 2;
constexpr size_t kServeLookups = 200000;  // Per LoadGenerator::Run.
constexpr size_t kServeHotKeys = 128;
constexpr double kServeZipf = 1.1;
// Offered rates (lookups/s of virtual time); capacity sits near 7000/s.
const std::vector<double> kServeRates = {2000.0, 4000.0, 6000.0, 9000.0};
const std::vector<std::string> kServePolicies = {"none", "drop-tail",
                                                 "peer-cap"};
// The reference cell the latency metrics come from: below capacity,
// no admission control.
constexpr double kServeReferenceRate = 4000.0;
// p99 limit (virtual ms) that defines serve.capacity_per_s.
constexpr double kServeP99LimitMs = 100.0;
// Independent owner checks per topology.
constexpr size_t kOwnerSample = 1000;

// sim-churn-repair: rolling churn racing virtual-time repair rounds.
constexpr size_t kChurnTopologies = 3;
constexpr size_t kChurnPeers = 2000;
constexpr size_t kChurnLookups = 3334;  // Per replay.
// 100 lookups/s: in-flight lookups stay well under the admission cap of
// 64, so latency measures routing under churn, not the backlog.
constexpr double kChurnArrivalMs = 10.0;
// Repair every 0.7 arrival spans: rounds at 0.7 and 1.4 spans, the
// first racing the last churn event and the last 30% of arrivals.
constexpr double kChurnRepairCadenceSpans = 0.7;
constexpr size_t kChurnRepairRounds = 2;

// sim-flash-traced: a Zipf-hot burst with the columnar trace attached.
// Each topology replays two bursts with different seeds (so different
// hot keys) per round.
constexpr size_t kFlashTopologies = 3;
constexpr size_t kFlashBursts = 2;
constexpr size_t kFlashPeers = 2000;
constexpr size_t kFlashLookups = 33334;  // Per replay.

// Cross-check queries (outside the timed phase) and layer-probe sizes.
constexpr size_t kCrossCheckLookups = 1000;
constexpr size_t kRouteProbe = 50000;
constexpr size_t kSampleProbe = 20000;
constexpr size_t kPoolProbeLookups = 200000;
constexpr size_t kSimProbeLookups = 2000;
constexpr size_t kTraceProbeLookups = 10000;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

/// Mean after dropping the lowest and the highest value (the median of
/// three; the plain mean of one or two).
double TrimmedMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.size() >= 3) {
    values.pop_back();
    values.erase(values.begin());
  }
  return Mean(values);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/// Peer keys, degree caps and links in CSR plus the ring, as a snapshot
/// stores them.
double SnapshotMb(const TopologyModel& m) {
  size_t edges = 0;
  for (const auto& row : m.out) edges += row.size();
  const double n = static_cast<double>(m.size());
  const double bytes = n * (8 + 8 + 1 + 4) + 2.0 * 4.0 * (n + 1) +
                       2.0 * 4.0 * static_cast<double>(edges) +
                       16.0 * static_cast<double>(m.ring.size());
  return bytes / (1024.0 * 1024.0);
}

/// Everything one workload run accumulates.
struct Context {
  const RunOptions& options;
  RunResult* result;
  SpanRecorder recorder;
  std::map<std::string, double> layer;  // Per-layer metrics (traced).

  Context(const RunOptions& o, RunResult* r)
      : options(o),
        result(r),
        recorder(o.trace, StrCat(o.workload, "-seed", o.seed)) {}

  /// Records a check's verdict; `ops` lookups count as failed on reject.
  void Check(const std::string& error, uint64_t ops = 0) {
    if (error.empty()) return;
    result->correct = false;
    result->failed += ops;
    result->errors.push_back(error);
  }
};

/// One grown topology and the options (seed included) that grew it.
struct Topology {
  oscar::ScenarioOptions base;
  oscar::GrownTopology grown;
  TopologyModel model;
  double gini = 0.0;
  // Read right after growth: churn joins and repair rounds in the
  // replays add to the same overlay's counter.
  double grow_steps = 0.0;
  double sampling_steps_per_peer = 0.0;
};

struct Setup {
  std::vector<Topology> topologies;
  double setup_s = 0.0;
  // Read when the timed phase ends, before the post-run checks (trace
  // decodes, cross-checks) can raise it.
  double peak_rss_mb = 0.0;
};

/// Grows topology 0 the way GrowScenarioTopology does, but step by step,
/// to time joins, the checkpoint rewire and the freeze apart (traced
/// runs only). The result must equal the topology already grown.
bool GrowInLayers(Context* ctx, const Topology& reference,
                  std::string* error) {
  const oscar::ScenarioOptions& base = reference.base;
  auto keys = oscar::MakeKeyDistribution(base.keys);
  auto degrees = oscar::MakePaperDegreeDistribution(base.degrees);
  auto factory = oscar::MakeNamedOverlay(base.overlay);
  if (!keys.ok() || !degrees.ok() || !factory.ok()) {
    *error = "growth: unknown key, degree or overlay name";
    return false;
  }
  oscar::GrowthConfig config;
  config.target_size = base.network_size;
  config.queries_per_checkpoint = 0;
  config.seed = base.seed;
  config.checkpoints = {base.network_size};
  config.key_distribution = keys.value();
  config.degree_distribution = degrees.value();
  config.overlay = factory.value()();
  oscar::Simulation growth(std::move(config));

  ScopedSpan grow_span(ctx->recorder, "Simulation::Run");
  const auto grow_start = Clock::now();
  auto grown = growth.Run();
  const double grow_s = Since(grow_start);
  grow_span.Close();
  if (!grown.ok()) {
    *error = StrCat("growth: ", grown.status().message());
    return false;
  }
  ScopedSpan freeze_span(ctx->recorder, "TopologySnapshot");
  const auto freeze_start = Clock::now();
  const oscar::TopologySnapshot snapshot(growth.network());
  const double freeze_s = Since(freeze_start);
  freeze_span.Close();

  ctx->Check(CheckSameTopology(TopologyModel::FromSnapshot(snapshot),
                               reference.model));
  const double rewire_s = grown.value().rewire_wall_ms / 1000.0;
  ctx->layer["core.grow_s"] = grow_s;
  ctx->layer["core.rewire_s"] = rewire_s;
  ctx->layer["core.join_s"] = grow_s - rewire_s;
  ctx->layer["core.freeze_s"] = freeze_s;
  return true;
}

/// Set-up and timed phase, interleaved: grows and checks topology k,
/// then runs `step(k)` on it at once. Set-up and timed samples so both
/// spread over the whole run, and a slow stretch of the host lands on a
/// share of each instead of on all of one. After every topology's first
/// step (round 1), whole rounds of one step per topology repeat while
/// another round is expected to end within `seconds` of timed work.
/// `round_walls` receives each round's timed wall. Returns false when a
/// growth fails; a failing step ends the timed phase.
bool GrowAndRun(Context* ctx, const oscar::ScenarioOptions& base,
                size_t count, uint32_t threads,
                const std::function<bool(size_t)>& step, Setup* out,
                std::vector<double>* round_walls, std::string* error) {
  // GrowScenarioTopology reads the checkpoint-rewire fan-out width from
  // the environment.
  setenv("OSCAR_THREADS", std::to_string(threads).c_str(), 1);
  out->topologies.reserve(count);  // Steps hold references into it.
  std::vector<double> walls;
  double round1 = 0.0;
  bool stepping = true;
  for (size_t k = 0; k < count; ++k) {
    Topology t;
    t.base = base;
    t.base.seed = ctx->options.seed * count + k;
    ScopedSpan span(ctx->recorder, "GrowScenarioTopology");
    const auto start = Clock::now();
    auto grown = oscar::GrowScenarioTopology(t.base);
    walls.push_back(Since(start));
    span.Close();
    if (!grown.ok()) {
      *error = StrCat("GrowScenarioTopology: ", grown.status().message());
      return false;
    }
    t.grown = std::move(grown).value();
    const oscar::TopologySnapshot& snapshot = t.grown.snapshot;
    t.grow_steps = static_cast<double>(t.grown.overlay->sampling_steps());
    t.sampling_steps_per_peer =
        t.grow_steps / static_cast<double>(snapshot.size());
    t.model = TopologyModel::FromSnapshot(snapshot);
    ctx->Check(CheckGrowth(t.model));
    t.gini = oscar::ComputeDegreeLoad(snapshot.Restore()).load_gini;
    ctx->Check(CheckGini(t.model, t.gini));
    out->topologies.push_back(std::move(t));
    if (stepping) {
      const auto step_start = Clock::now();
      stepping = step(k);
      round1 += Since(step_start);
    }
  }
  out->setup_s = Median(walls);
  if (stepping) round_walls->push_back(round1);
  double timed = round1;
  while (stepping && timed + Mean(*round_walls) <= ctx->options.seconds) {
    const auto start = Clock::now();
    for (size_t k = 0; k < count && stepping; ++k) stepping = step(k);
    if (stepping) round_walls->push_back(Since(start));
    timed += Since(start);
  }
  out->peak_rss_mb = PeakRssMb();

  if (ctx->options.trace) {
    const Topology& first = out->topologies.front();
    ctx->layer["sampling.grow_steps"] = first.grow_steps;
    ctx->layer["core.snapshot_mb"] = SnapshotMb(first.model);
    if (!GrowInLayers(ctx, first, error)) return false;
  }
  return true;
}

/// Exact figures of one LoadGenerator::Run or scenario replay.
struct Exact {
  double msgs_per_lookup = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double delivered = 0.0;
};

/// `exact` holds round 1's figures, one per run or replay; `per_s` the
/// lookups per second of every run or replay of the timed phase.
std::vector<Metric> EndToEnd(const Setup& setup,
                             const std::vector<double>& per_s,
                             const std::vector<Exact>& exact) {
  std::vector<double> msgs, p50, p99, gini, steps;
  double delivered = 0.0;
  for (const Exact& e : exact) {
    msgs.push_back(e.msgs_per_lookup);
    p50.push_back(e.p50_ms);
    p99.push_back(e.p99_ms);
    delivered += e.delivered;
  }
  for (const Topology& t : setup.topologies) {
    gini.push_back(t.gini);
    steps.push_back(t.sampling_steps_per_peer);
  }
  return {
      {"setup_s", setup.setup_s, "s"},
      {"lookups_per_s", TrimmedMean(per_s), "1/s"},
      {"peak_rss_mb", setup.peak_rss_mb, "MB"},
      {"msgs_per_lookup", TrimmedMean(msgs), "msgs"},
      {"lookup_p50_ms", TrimmedMean(p50), "ms"},
      {"lookup_p99_ms", TrimmedMean(p99), "ms"},
      {"lookups_delivered", delivered, "count"},
      {"indegree_load_gini", TrimmedMean(gini), "ratio"},
      {"sampling_steps_per_peer", TrimmedMean(steps), "steps"},
  };
}

// ---- Layer probes (traced runs) ------------------------------------------
// A probe times a fixed batch of calls into one layer over the
// workload's first topology. Where a workload does not run a layer at
// all, a small probe still measures it so every per-layer metric is
// present in every traced run; README.md lists which ones those are.

struct QueryDraw {
  PeerId source = 0;
  uint64_t key = 0;
};

std::vector<QueryDraw> DrawQueries(const TopologyModel& m, uint64_t seed,
                                   uint64_t stream, size_t count) {
  oscar::Rng rng = oscar::Rng::Fork(seed, stream, 0);
  std::vector<QueryDraw> draws(count);
  for (QueryDraw& q : draws) {
    q.source = m.ring[rng.UniformInt(m.ring.size())];
    // Half the keys are peer keys (hot-spot lookups), half uniform.
    q.key = rng.NextDouble() < 0.5
                ? m.keys[m.ring[rng.UniformInt(m.ring.size())]]
                : rng.Next();
  }
  return draws;
}

/// Router::Route over the snapshot (CSR path) and over a restored live
/// Network, plus the restore itself. Returns hops and wasted messages
/// per lookup of the CSR batch.
std::pair<double, double> RoutingProbe(Context* ctx, const Topology& t) {
  const std::vector<QueryDraw> draws =
      DrawQueries(t.model, t.base.seed, 101, kRouteProbe);
  const oscar::TopologySnapshot& snapshot = t.grown.snapshot;
  uint64_t hops = 0;
  uint64_t wasted = 0;
  {
    const oscar::GreedyRouter router;
    ScopedSpan span(ctx->recorder, "Router::Route csr", draws.size());
    const auto start = Clock::now();
    for (const QueryDraw& q : draws) {
      const oscar::RouteResult r =
          router.Route(snapshot, q.source, oscar::KeyId::FromRaw(q.key));
      hops += r.hops;
      wasted += r.wasted;
    }
    ctx->layer["routing.csr_ns_per_hop"] =
        Since(start) * 1e9 / static_cast<double>(std::max<uint64_t>(hops, 1));
  }
  oscar::Network net;
  {
    ScopedSpan span(ctx->recorder, "TopologySnapshot::RestoreInto");
    const auto start = Clock::now();
    snapshot.RestoreInto(&net);
    ctx->layer["core.restore_s"] = Since(start);
  }
  {
    const oscar::BacktrackingRouter router;
    uint64_t live_hops = 0;
    ScopedSpan span(ctx->recorder, "Router::Route live", draws.size());
    const auto start = Clock::now();
    for (const QueryDraw& q : draws) {
      live_hops +=
          router.Route(net, q.source, oscar::KeyId::FromRaw(q.key)).hops;
    }
    ctx->layer["routing.live_ns_per_hop"] =
        Since(start) * 1e9 /
        static_cast<double>(std::max<uint64_t>(live_hops, 1));
  }
  const double n = static_cast<double>(draws.size());
  return {static_cast<double>(hops) / n, static_cast<double>(wasted) / n};
}

/// SegmentSampler::SampleInSegment over the frozen topology: a fixed
/// batch of random-walk samples into segments of 2^-1 .. 2^-8 of the
/// ring.
void SamplingProbe(Context* ctx, const Topology& t) {
  const TopologyModel& m = t.model;
  oscar::Rng rng = oscar::Rng::Fork(t.base.seed, 102, 0);
  const oscar::RandomWalkSegmentSampler sampler;
  const oscar::NetworkView view(t.grown.snapshot);
  uint64_t steps = 0;
  ScopedSpan span(ctx->recorder, "SegmentSampler::SampleInSegment",
                  kSampleProbe);
  const auto start = Clock::now();
  for (size_t i = 0; i < kSampleProbe; ++i) {
    const PeerId origin = m.ring[rng.UniformInt(m.ring.size())];
    const oscar::KeyId from =
        oscar::KeyId::FromRaw(m.keys[m.ring[rng.UniformInt(m.ring.size())]]);
    const oscar::KeyId to =
        from.OffsetBy(std::pow(2.0, -(1.0 + 7.0 * rng.NextDouble())));
    auto sample = sampler.SampleInSegment(view, origin, from, to, &rng);
    if (sample.ok()) steps += sample.value().steps;
  }
  ctx->layer["sampling.walk_ns_per_step"] =
      Since(start) * 1e9 / static_cast<double>(std::max<uint64_t>(steps, 1));
}

oscar::ServeOptions ServeShape(uint64_t seed, size_t lookups,
                               uint32_t threads) {
  oscar::ServeOptions serve;
  serve.lookups = lookups;
  serve.seed = seed;
  serve.threads = threads;
  serve.offered_rates_per_s = kServeRates;
  serve.policies = kServePolicies;
  serve.hot_keys = kServeHotKeys;
  serve.zipf_exponent = kServeZipf;
  return serve;
}

/// Highest offered rate whose `none` cell meets the p99 limit with no
/// drops (0 when none does).
double CapacityPerS(const oscar::ServeReport& report) {
  double capacity = 0.0;
  for (const oscar::ServeCellReport& cell : report.cells) {
    if (cell.policy == "none" && cell.offered_per_s > 0.0 &&
        cell.dropped == 0 && cell.shed == 0 &&
        cell.latency.p99_ms <= kServeP99LimitMs) {
      capacity = std::max(capacity, cell.offered_per_s);
    }
  }
  return capacity;
}

/// Serve-layer metrics from one report per topology and the route and
/// sweep wall times of every LoadGenerator::Run.
void ServeLayer(Context* ctx, const std::vector<oscar::ServeReport>& reports,
                const std::vector<double>& route_s,
                const std::vector<double>& sweep_s) {
  double dropped = 0.0;
  double shed = 0.0;
  double arrivals = 0.0;
  std::vector<double> capacity;
  for (const oscar::ServeReport& report : reports) {
    for (const oscar::ServeCellReport& cell : report.cells) {
      dropped += static_cast<double>(cell.dropped);
      shed += static_cast<double>(cell.shed);
    }
    arrivals += static_cast<double>(report.total_submitted);
    capacity.push_back(CapacityPerS(report));
  }
  const double runs = static_cast<double>(reports.size());
  const double sweep = Median(sweep_s);
  ctx->layer["serve.route_s"] = Median(route_s);
  ctx->layer["serve.sweep_s"] = sweep;
  ctx->layer["serve.sweep_ns_per_arrival"] = sweep * 1e9 * runs / arrivals;
  ctx->layer["serve.capacity_per_s"] = Mean(capacity);
  ctx->layer["serve.dropped"] = dropped;
  ctx->layer["serve.shed"] = shed;
}

/// Route phase at 1 and at 2 threads over one fixed lookup batch.
void PoolProbe(Context* ctx, const Topology& t) {
  double route_s[2] = {0.0, 0.0};
  for (uint32_t threads = 1; threads <= 2; ++threads) {
    oscar::ServeOptions serve =
        ServeShape(t.base.seed, kPoolProbeLookups, threads);
    serve.offered_rates_per_s = {kServeReferenceRate};
    serve.policies = {"none"};
    oscar::LoadGenerator generator(t.grown.snapshot, serve);
    ScopedSpan span(ctx->recorder, "LoadGenerator::Run pool", serve.lookups);
    auto run = generator.Run();
    span.Close();
    if (!run.ok()) {
      ctx->Check(StrCat("pool probe: ", run.status().message()));
      return;
    }
    route_s[threads - 1] = run.value().route_wall_s;
  }
  ctx->layer["common.pool_speedup"] = route_s[0] / route_s[1];
}

/// A small serve sweep for workloads that do not serve.
void ServeProbe(Context* ctx, const Topology& t) {
  const oscar::ServeOptions serve =
      ServeShape(t.base.seed, kPoolProbeLookups, kServeThreads);
  oscar::LoadGenerator generator(t.grown.snapshot, serve);
  ScopedSpan span(ctx->recorder, "LoadGenerator::Run probe", serve.lookups);
  const auto start = Clock::now();
  auto run = generator.Run();
  const double wall = Since(start);
  span.Close();
  if (!run.ok()) {
    ctx->Check(StrCat("serve probe: ", run.status().message()));
    return;
  }
  ctx->Check(CheckServeReport(run.value(), serve.lookups));
  ServeLayer(ctx, {run.value()}, {run.value().route_wall_s},
             {wall - run.value().route_wall_s});
}

/// Event-engine and churn metrics summed over one round's replays;
/// `replay_s` holds the wall time of every replay of those rounds.
void SimLayer(Context* ctx, const std::vector<oscar::ScenarioResult>& results,
              const std::vector<double>& replay_s) {
  double events = 0.0, peak = 0.0, sent = 0.0, timeouts = 0.0, retries = 0.0;
  double leaves = 0.0, joins = 0.0, hops = 0.0, wasted = 0.0, done = 0.0;
  for (const oscar::ScenarioResult& result : results) {
    const oscar::MessageSimReport& r = result.report;
    events += static_cast<double>(result.events_dispatched);
    peak = std::max(peak, static_cast<double>(r.peak_in_flight));
    sent += static_cast<double>(r.messages_sent);
    timeouts += static_cast<double>(r.timeouts);
    retries += static_cast<double>(r.retries);
    leaves += static_cast<double>(result.crashed);
    joins += static_cast<double>(result.joined);
    hops += r.mean_hops * static_cast<double>(r.completed);
    wasted += r.mean_wasted * static_cast<double>(r.completed);
    done += static_cast<double>(r.completed);
  }
  double replay_total = 0.0;
  for (double s : replay_s) replay_total += s;
  const double rounds = static_cast<double>(replay_s.size()) /
                        static_cast<double>(results.size());
  ctx->layer["sim.events"] = events;
  ctx->layer["sim.ns_per_event"] =
      replay_total * 1e9 / (std::max(events, 1.0) * rounds);
  ctx->layer["sim.peak_in_flight"] = peak;
  ctx->layer["sim.messages_sent"] = sent;
  ctx->layer["sim.timeouts"] = timeouts;
  ctx->layer["sim.retries"] = retries;
  ctx->layer["churn.leaves"] = leaves;
  ctx->layer["churn.joins"] = joins;
  ctx->layer["routing.hops_per_lookup"] = hops / std::max(done, 1.0);
  ctx->layer["routing.wasted_per_lookup"] = wasted / std::max(done, 1.0);
}

/// A short churn-free replay for the workload that does not simulate.
void SimProbe(Context* ctx, const Topology& t) {
  oscar::ScenarioOptions probe = t.base;
  probe.lookups = kSimProbeLookups;
  probe.maintenance_cadence_ms = 0.0;  // The event engine alone.
  ScopedSpan span(ctx->recorder, "RunScenarioOn probe", probe.lookups);
  const auto start = Clock::now();
  auto run = oscar::RunScenarioOn("baseline", probe, t.grown);
  const double wall = Since(start);
  span.Close();
  if (!run.ok()) {
    ctx->Check(StrCat("sim probe: ", run.status().message()));
    return;
  }
  ctx->Check(CheckSimReport(run.value(), probe.lookups));
  SimLayer(ctx, {run.value()}, {wall});
}

void MaintenanceLayer(Context* ctx, double rounds, double rebuilt,
                      double pruned, double steps, double busy_s) {
  ctx->layer["overlay.maint_rounds"] = rounds;
  ctx->layer["overlay.maint_rebuilt_peers"] = rebuilt;
  ctx->layer["overlay.maint_pruned_links"] = pruned;
  ctx->layer["overlay.maint_sampling_steps"] = steps;
  ctx->layer["overlay.maint_busy_s"] = busy_s;
  // Rebuilds per useful outcome; a round that prunes nothing and still
  // rebuilds counts every rebuild as waste.
  ctx->layer["overlay.maint_rebuilds_per_pruned_link"] =
      rebuilt / std::max(pruned, 1.0);
}

/// One Maintainer::RunRound over a fresh restore of the topology; the
/// round's numbers become the maintenance metrics when `report`.
void MaintenanceProbe(Context* ctx, const Topology& t, bool report) {
  oscar::Network net;
  t.grown.snapshot.RestoreInto(&net);
  oscar::Maintainer maintainer(t.grown.overlay, oscar::MaintenanceOptions{});
  oscar::Rng rng = oscar::Rng::Fork(t.base.seed, 103, 0);
  ScopedSpan span(ctx->recorder, "Maintainer::RunRound");
  const auto start = Clock::now();
  auto round = maintainer.RunRound(&net, &rng);
  const double wall = Since(start);
  span.Close();
  if (!round.ok()) {
    ctx->Check(StrCat("maintenance probe: ", round.status().message()));
    return;
  }
  if (report) {
    const oscar::MaintenanceReport& r = round.value();
    MaintenanceLayer(ctx, 1.0, static_cast<double>(r.rebuilt_peers),
                     static_cast<double>(r.pruned_links),
                     static_cast<double>(r.sampling_steps), wall);
  }
}

/// One flash-crowd replay, with the columnar writer attached when
/// `trace_path` is not empty.
struct FlashReplay {
  std::optional<oscar::ScenarioResult> result;
  double wall_s = 0.0;
  uint64_t events = 0;
};

FlashReplay ReplayFlash(Context* ctx, const oscar::ScenarioOptions& base,
                        const Topology& t, oscar::Network* scratch,
                        const std::string& trace_path) {
  FlashReplay out;
  oscar::ScenarioOptions options = base;
  std::ofstream file;
  std::unique_ptr<oscar::ColumnarTraceWriter> writer;
  ScopedSpan span(ctx->recorder, "RunScenarioOn flash-crowd", base.lookups);
  const auto start = Clock::now();
  if (!trace_path.empty()) {
    file.open(trace_path, std::ios::binary | std::ios::out | std::ios::trunc);
    writer = std::make_unique<oscar::ColumnarTraceWriter>(&file);
    options.sim.sink = writer.get();
  }
  auto run = oscar::RunScenarioOn("flash-crowd", options, t.grown, scratch);
  if (writer != nullptr) {
    ScopedSpan close_span(ctx->recorder, "ColumnarTraceWriter::Close");
    const oscar::Status closed = writer->Close();
    file.close();
    if (!closed.ok() || !file) {
      ctx->Check(StrCat("trace: writing ", trace_path, " failed"));
    }
    out.events = writer->events_written();
  }
  out.wall_s = Since(start);
  span.Close();
  if (!run.ok()) {
    ctx->Check(StrCat("flash-crowd: ", run.status().message()),
               base.lookups);
    return out;
  }
  out.result = std::move(run).value();
  return out;
}

/// Decodes a replay's trace (span "ReadTraceFile") and checks it.
void CheckTraceOutput(Context* ctx, const std::string& path,
                      const FlashReplay& replay, const Topology& t) {
  ScopedSpan span(ctx->recorder, "ReadTraceFile");
  ctx->Check(CheckTraceFile(path, replay.events, replay.result->report,
                            t.model));
}

void TraceLayer(Context* ctx, double bytes, uint64_t events,
                double traced_s, double untraced_s) {
  const double overhead = traced_s - untraced_s;
  const double n = static_cast<double>(std::max<uint64_t>(events, 1));
  ctx->layer["trace.events"] = static_cast<double>(events);
  ctx->layer["trace.bytes_per_event"] = bytes / n;
  ctx->layer["trace.overhead_s"] = overhead;
  ctx->layer["trace.ns_per_event"] = overhead * 1e9 / n;
}

double FileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return file ? static_cast<double>(file.tellg()) : 0.0;
}

/// A short traced flash-crowd replay for workloads that do not trace.
void TraceProbe(Context* ctx, const Topology& t) {
  oscar::ScenarioOptions probe = t.base;
  probe.lookups = kTraceProbeLookups;
  probe.maintenance_cadence_ms = 0.0;  // The trace layer alone.
  const std::string path = ctx->options.out_dir + "/probe.otrace";
  oscar::Network scratch;
  const FlashReplay untraced = ReplayFlash(ctx, probe, t, &scratch, "");
  const FlashReplay traced = ReplayFlash(ctx, probe, t, &scratch, path);
  if (!untraced.result || !traced.result) return;
  CheckTraceOutput(ctx, path, traced, t);
  TraceLayer(ctx, FileBytes(path), traced.events, traced.wall_s,
             untraced.wall_s);
}

/// spans.overhead_s: the traced rounds' median minus one more round
/// (one step per topology) run with the span recorder switched off.
void SpanOverhead(Context* ctx, const std::vector<double>& traced_walls,
                  size_t topologies, const std::function<bool(size_t)>& step) {
  SpanRecorder kept = std::move(ctx->recorder);
  ctx->recorder = SpanRecorder(false, "");
  const auto start = Clock::now();
  for (size_t k = 0; k < topologies && step(k); ++k) {
  }
  const double untraced = Since(start);
  ctx->recorder = std::move(kept);
  ctx->layer["spans.overhead_s"] = Median(traced_walls) - untraced;
}

oscar::ScenarioOptions BaseOptions(size_t peers, size_t lookups,
                                   const char* keys) {
  oscar::ScenarioOptions base;
  base.network_size = peers;
  base.lookups = lookups;
  base.keys = keys;
  return base;
}

void CrossCheck(Context* ctx, const Topology& t) {
  oscar::ScenarioOptions check = t.base;
  check.lookups = kCrossCheckLookups;
  auto compared = oscar::CrossCheckMessageVsSync(check, t.grown);
  if (!compared.ok()) {
    ctx->Check(StrCat("cross-check: ", compared.status().message()));
  } else if (compared.value() != check.lookups) {
    ctx->Check(StrCat("cross-check: compared ", compared.value(), " of ",
                      check.lookups, " queries"));
  }
}

// ---- serve-zipf -----------------------------------------------------------

bool ServeZipf(Context* ctx, std::string* error) {
  const RunOptions& o = ctx->options;
  Setup setup;
  const size_t lookups = kServeLookups;
  std::vector<oscar::ServeReport> first;  // Round 1, one per topology.
  std::vector<double> per_s;
  std::vector<double> route_s;
  std::vector<double> sweep_s;
  auto step = [&](size_t k) {
    const Topology& t = setup.topologies[k];
    const oscar::ServeOptions serve =
        ServeShape(t.base.seed, lookups, kServeThreads);
    oscar::LoadGenerator generator(t.grown.snapshot, serve);
    ScopedSpan span(ctx->recorder, "LoadGenerator::Run", lookups);
    const auto start = Clock::now();
    auto run = generator.Run();
    const double wall = Since(start);
    span.Close();
    ctx->result->attempted += lookups;
    if (!run.ok()) {
      ctx->Check(StrCat("serve: ", run.status().message()), lookups);
      return false;
    }
    const oscar::ServeReport& report = run.value();
    if (first.size() <= k) {
      ctx->Check(CheckServeReport(report, lookups));
      first.push_back(report);
    } else if (report.mean_messages != first[k].mean_messages ||
               report.route_success_rate != first[k].route_success_rate) {
      ctx->Check("serve: a repeated round gave a different report");
    }
    ctx->result->failed += lookups - std::min(lookups, report.routed);
    per_s.push_back(static_cast<double>(lookups) / wall);
    route_s.push_back(report.route_wall_s);
    sweep_s.push_back(wall - report.route_wall_s);
    return true;
  };
  std::vector<double> walls;
  if (!GrowAndRun(ctx, BaseOptions(kServePeers, kSimProbeLookups, "gnutella"),
                  kServeTopologies, kServeThreads, step, &setup, &walls,
                  error)) {
    return false;
  }
  if (first.size() != setup.topologies.size()) {
    *error = "serve: no round completed";
    return false;
  }

  // Owner checks on a seeded sample of lookups over each snapshot.
  const oscar::GreedyRouter router;
  for (const Topology& t : setup.topologies) {
    for (const QueryDraw& q :
         DrawQueries(t.model, t.base.seed, 104, kOwnerSample)) {
      ctx->Check(CheckRoute(t.model, q.source, q.key,
                            router.Route(t.grown.snapshot, q.source,
                                         oscar::KeyId::FromRaw(q.key))),
                 1);
    }
  }

  std::vector<Exact> exact;
  for (const oscar::ServeReport& report : first) {
    const oscar::ServeCellReport* reference = nullptr;
    for (const oscar::ServeCellReport& cell : report.cells) {
      if (cell.policy == "none" && cell.offered_per_s == kServeReferenceRate) {
        reference = &cell;
      }
    }
    if (reference == nullptr) {
      *error = "serve: the reference cell is missing";
      return false;
    }
    if (reference->dropped != 0 || reference->shed != 0) {
      ctx->Check("serve: the reference cell (below capacity) lost lookups");
    }
    exact.push_back({report.mean_messages, reference->latency.p50_ms,
                     reference->latency.p99_ms,
                     std::round(report.route_success_rate *
                                static_cast<double>(report.routed))});
  }

  if (o.trace) {
    const Topology& t = setup.topologies.front();
    ServeLayer(ctx, first, route_s, sweep_s);
    const auto [hops, wasted] = RoutingProbe(ctx, t);
    SamplingProbe(ctx, t);
    PoolProbe(ctx, t);
    SimProbe(ctx, t);
    // The serve path routes over the snapshot; its hops, not the probe
    // replay's, are this workload's routing figures.
    ctx->layer["routing.hops_per_lookup"] = hops;
    ctx->layer["routing.wasted_per_lookup"] = wasted;
    MaintenanceProbe(ctx, t, /*report=*/true);
    TraceProbe(ctx, t);
    SpanOverhead(ctx, walls, setup.topologies.size(), step);
    return true;
  }
  ctx->result->metrics = EndToEnd(setup, per_s, exact);
  return true;
}

// ---- sim-* ----------------------------------------------------------------

Exact SimExact(const oscar::MessageSimReport& r) {
  const double done = static_cast<double>(std::max<size_t>(r.completed, 1));
  return {r.mean_hops + r.mean_wasted + static_cast<double>(r.retries) / done,
          r.latency.p50_ms, r.latency.p99_ms,
          static_cast<double>(r.succeeded)};
}

bool SameOutcome(const oscar::ScenarioResult& a,
                 const oscar::ScenarioResult& b) {
  return a.report.succeeded == b.report.succeeded &&
         a.report.messages_sent == b.report.messages_sent &&
         a.report.latency.p99_ms == b.report.latency.p99_ms &&
         a.events_dispatched == b.events_dispatched &&
         a.crashed == b.crashed && a.joined == b.joined;
}

bool SimChurnRepair(Context* ctx, std::string* error) {
  const RunOptions& o = ctx->options;
  oscar::ScenarioOptions base =
      BaseOptions(kChurnPeers, kChurnLookups, "gnutella");
  base.arrival_interval_ms = kChurnArrivalMs;
  base.maintenance_cadence_ms = kChurnRepairCadenceSpans *
                                static_cast<double>(base.lookups) *
                                kChurnArrivalMs;
  Setup setup;
  std::vector<oscar::Network> scratch(kChurnTopologies);
  std::vector<oscar::ScenarioResult> first;  // Round 1, one per topology.
  std::vector<double> per_s;
  auto replay = [&](size_t k, const oscar::ScenarioOptions& options) {
    ScopedSpan span(ctx->recorder, "RunScenarioOn rolling-churn",
                    options.lookups);
    return oscar::RunScenarioOn("rolling-churn", options,
                                setup.topologies[k].grown, &scratch[k]);
  };
  auto step = [&](size_t k) {
    const oscar::ScenarioOptions& options = setup.topologies[k].base;
    const auto start = Clock::now();
    auto run = replay(k, options);
    per_s.push_back(static_cast<double>(options.lookups) / Since(start));
    ctx->result->attempted += options.lookups;
    if (!run.ok()) {
      ctx->Check(StrCat("rolling-churn: ", run.status().message()),
                 options.lookups);
      return false;
    }
    const oscar::ScenarioResult& result = run.value();
    ctx->result->failed +=
        result.report.submitted - result.report.completed;
    if (first.size() > k) {
      if (!SameOutcome(result, first[k])) {
        ctx->Check("rolling-churn: a repeated replay gave another result");
      }
      return true;
    }
    ctx->Check(CheckSimReport(result, options.lookups));
    const oscar::ChurnScheduleOptions& churn = result.options.churn;
    const size_t events = static_cast<size_t>(churn.events);
    if (result.crashed != events * churn.leaves_per_event ||
        result.joined != events * churn.joins_per_event) {
      ctx->Check(StrCat("churn: ", result.crashed, " leaves and ",
                        result.joined, " joins against a schedule of ",
                        events, " x ", churn.leaves_per_event));
    }
    if (result.maintenance.size() != kChurnRepairRounds) {
      ctx->Check(StrCat("repair: ", result.maintenance.size(),
                        " rounds ran, ", kChurnRepairRounds, " scheduled"));
    }
    first.push_back(result);
    return true;
  };
  std::vector<double> walls;
  if (!GrowAndRun(ctx, base, kChurnTopologies, 1, step, &setup, &walls,
                  error)) {
    return false;
  }
  if (first.size() != setup.topologies.size()) {
    *error = "rolling-churn: no round completed";
    return false;
  }
  for (const Topology& t : setup.topologies) CrossCheck(ctx, t);

  if (o.trace) {
    const Topology& t = setup.topologies.front();
    // Repair's wall cost: the same replays with the rounds switched off.
    std::vector<double> bare_walls;
    for (size_t k = 0; k < setup.topologies.size(); ++k) {
      oscar::ScenarioOptions no_repair = setup.topologies[k].base;
      no_repair.maintenance_cadence_ms = 0.0;
      const auto start = Clock::now();
      auto bare = replay(k, no_repair);
      bare_walls.push_back(Since(start));
      if (!bare.ok()) {
        ctx->Check(StrCat("rolling-churn: ", bare.status().message()));
      }
    }
    double rounds = 0.0, rebuilt = 0.0, pruned = 0.0, steps = 0.0;
    for (const oscar::ScenarioResult& result : first) {
      rounds += static_cast<double>(result.maintenance.size());
      steps += static_cast<double>(result.maintenance_sampling_steps);
      for (const oscar::MaintenanceRoundRecord& r : result.maintenance) {
        rebuilt += static_cast<double>(r.report.rebuilt_peers);
        pruned += static_cast<double>(r.report.pruned_links);
      }
    }
    double bare_s = 0.0;
    for (double s : bare_walls) bare_s += s;
    MaintenanceLayer(ctx, rounds, rebuilt, pruned, steps,
                     Median(walls) - bare_s);
    // The event engine's own cost: the replays without repair.
    SimLayer(ctx, first, bare_walls);
    RoutingProbe(ctx, t);
    SamplingProbe(ctx, t);
    PoolProbe(ctx, t);
    ServeProbe(ctx, t);
    MaintenanceProbe(ctx, t, /*report=*/false);
    TraceProbe(ctx, t);
    SpanOverhead(ctx, walls, setup.topologies.size(), step);
    return true;
  }
  std::vector<Exact> exact;
  for (const oscar::ScenarioResult& result : first) {
    exact.push_back(SimExact(result.report));
  }
  ctx->result->metrics = EndToEnd(setup, per_s, exact);
  return true;
}

bool SimFlashTraced(Context* ctx, std::string* error) {
  const RunOptions& o = ctx->options;
  Setup setup;
  // One replay per (topology, burst); a burst's seed picks its hot keys.
  // Burst k * kFlashBursts + b belongs to topology k.
  struct Burst {
    oscar::ScenarioOptions options;
    std::string trace_path;
    oscar::Network scratch;
  };
  std::vector<Burst> bursts(kFlashTopologies * kFlashBursts);
  std::vector<FlashReplay> first;  // Round 1, one per burst.
  std::vector<double> per_s;
  auto step = [&](size_t k) {
    const Topology& t = setup.topologies[k];
    for (size_t i = k * kFlashBursts; i < (k + 1) * kFlashBursts; ++i) {
      Burst& burst = bursts[i];
      if (burst.trace_path.empty()) {
        burst.options = t.base;
        burst.options.seed = t.base.seed + (i % kFlashBursts) * 1000003;
        burst.trace_path = StrCat(o.out_dir, "/flash-crowd-", i, ".otrace");
      }
      FlashReplay replay = ReplayFlash(ctx, burst.options, t, &burst.scratch,
                                       burst.trace_path);
      ctx->result->attempted += burst.options.lookups;
      if (!replay.result) return false;
      per_s.push_back(static_cast<double>(burst.options.lookups) /
                      replay.wall_s);
      if (first.size() > i) {
        if (!SameOutcome(*replay.result, *first[i].result) ||
            replay.events != first[i].events) {
          ctx->Check("flash-crowd: a repeated replay gave another result");
        }
        continue;
      }
      const oscar::MessageSimReport& r = replay.result->report;
      ctx->Check(CheckSimReport(*replay.result, burst.options.lookups));
      // No churn and no loss: every lookup must reach its owner.
      const size_t undelivered = r.submitted - std::min(r.succeeded,
                                                        r.submitted);
      ctx->result->failed += undelivered;
      if (undelivered > 0) {
        ctx->Check(StrCat("flash-crowd: ", undelivered,
                          " lookups undelivered without churn"));
      }
      first.push_back(std::move(replay));
    }
    return true;
  };
  std::vector<double> walls;
  if (!GrowAndRun(ctx, BaseOptions(kFlashPeers, kFlashLookups, "clustered"),
                  kFlashTopologies, 1, step, &setup, &walls, error)) {
    return false;
  }
  if (first.size() != bursts.size()) {
    *error = "flash-crowd: no round completed";
    return false;
  }
  for (const Topology& t : setup.topologies) CrossCheck(ctx, t);
  // Every round rewrites the same traces; check the last round's files.
  for (size_t i = 0; i < bursts.size(); ++i) {
    CheckTraceOutput(ctx, bursts[i].trace_path, first[i],
                     setup.topologies[i / kFlashBursts]);
  }

  if (o.trace) {
    const Topology& t = setup.topologies.front();
    std::vector<oscar::ScenarioResult> results;
    std::vector<double> untraced_walls;
    double bytes = 0.0;
    double untraced_s = 0.0;
    uint64_t events = 0;
    for (size_t i = 0; i < bursts.size(); ++i) {
      Burst& burst = bursts[i];
      results.push_back(*first[i].result);
      bytes += FileBytes(burst.trace_path);
      events += first[i].events;
      untraced_walls.push_back(
          ReplayFlash(ctx, burst.options, setup.topologies[i / kFlashBursts],
                      &burst.scratch, "")
              .wall_s);
      untraced_s += untraced_walls.back();
    }
    TraceLayer(ctx, bytes, events, Median(walls), untraced_s);
    // The event engine's own cost: the replays without the writer.
    SimLayer(ctx, results, untraced_walls);
    RoutingProbe(ctx, t);
    SamplingProbe(ctx, t);
    PoolProbe(ctx, t);
    ServeProbe(ctx, t);
    MaintenanceProbe(ctx, t, /*report=*/true);
    SpanOverhead(ctx, walls, setup.topologies.size(), step);
    return true;
  }
  std::vector<Exact> exact;
  for (const FlashReplay& replay : first) {
    exact.push_back(SimExact(replay.result->report));
  }
  ctx->result->metrics = EndToEnd(setup, per_s, exact);
  return true;
}

struct PerLayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them.
const std::vector<PerLayerMetric>& PerLayerMetrics() {
  static const std::vector<PerLayerMetric> kMetrics = {
      {"core.grow_s", "s"},
      {"core.join_s", "s"},
      {"core.rewire_s", "s"},
      {"core.freeze_s", "s"},
      {"core.restore_s", "s"},
      {"core.snapshot_mb", "MB"},
      {"sampling.grow_steps", "steps"},
      {"sampling.walk_ns_per_step", "ns"},
      {"routing.csr_ns_per_hop", "ns"},
      {"routing.live_ns_per_hop", "ns"},
      {"routing.hops_per_lookup", "msgs"},
      {"routing.wasted_per_lookup", "msgs"},
      {"serve.route_s", "s"},
      {"serve.sweep_s", "s"},
      {"serve.sweep_ns_per_arrival", "ns"},
      {"common.pool_speedup", "ratio"},
      {"serve.capacity_per_s", "1/s"},
      {"serve.dropped", "count"},
      {"serve.shed", "count"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.peak_in_flight", "count"},
      {"sim.messages_sent", "count"},
      {"sim.timeouts", "count"},
      {"sim.retries", "count"},
      {"churn.leaves", "count"},
      {"churn.joins", "count"},
      {"overlay.maint_rounds", "count"},
      {"overlay.maint_rebuilt_peers", "count"},
      {"overlay.maint_pruned_links", "count"},
      {"overlay.maint_sampling_steps", "steps"},
      {"overlay.maint_busy_s", "s"},
      {"overlay.maint_rebuilds_per_pruned_link", "ratio"},
      {"trace.events", "count"},
      {"trace.bytes_per_event", "B"},
      {"trace.ns_per_event", "ns"},
      {"trace.overhead_s", "s"},
      {"spans.overhead_s", "s"},
  };
  return kMetrics;
}

}  // namespace

bool RunWorkload(const RunOptions& options, RunResult* result,
                 std::string* error) {
  Context ctx(options, result);
  const int64_t root =
      ctx.recorder.Begin(StrCat("workload ", options.workload));
  bool ok = false;
  if (options.workload == "serve-zipf") {
    ok = ServeZipf(&ctx, error);
  } else if (options.workload == "sim-churn-repair") {
    ok = SimChurnRepair(&ctx, error);
  } else if (options.workload == "sim-flash-traced") {
    ok = SimFlashTraced(&ctx, error);
  } else {
    *error = StrCat("unknown workload '", options.workload, "'");
    return false;
  }
  if (!ok) return false;
  if (!options.trace) return true;
  ctx.recorder.End(root);

  for (const PerLayerMetric& metric : PerLayerMetrics()) {
    auto found = ctx.layer.find(metric.name);
    if (found == ctx.layer.end()) {
      *error = StrCat("traced run did not measure ", metric.name);
      return false;
    }
    result->metrics.push_back({metric.name, found->second, metric.unit});
  }
  const std::string span_path =
      StrCat(options.out_dir, "/spans-", options.workload, "-seed",
             options.seed, ".jsonl");
  if (!ctx.recorder.WriteJsonLines(span_path)) {
    ctx.Check(StrCat("spans: cannot write ", span_path));
  }
  return true;
}

}  // namespace perfbench
