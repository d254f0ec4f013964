// Determinism contract of the parallel planning engine: any thread count
// must produce bit-identical plans, objectives, and evaluations to the
// single-threaded seed path — parallelism buys wall time, never different
// answers. Pooled planners read one const SampleSet from every worker with
// no lock, so these cases are also the race surface the TSan arm runs.
// Plus SampleHits against a dense reference walk, and the regression test
// for the old root-index assumption in SampleHits (node 0 silently skipped
// when the root is not node 0).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/plan_eval.h"
#include "src/core/plan_manager.h"
#include "src/core/proof_planner.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace core {
namespace {

struct Instance {
  net::Topology topology;
  sampling::SampleSet samples;
  PlannerContext ctx;
};

Instance MakeInstance(int n, int k, int num_samples, uint64_t seed) {
  Rng rng(seed);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = n;
  geo.radio_range = 25.0;
  Instance inst{net::BuildConnectedGeometricNetwork(geo, &rng).value(),
                sampling::SampleSet::ForTopK(n, k), PlannerContext{}};
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
  for (int s = 0; s < num_samples; ++s) inst.samples.Add(field.Sample(&rng));
  inst.ctx.topology = &inst.topology;
  return inst;
}

void ExpectSamePlan(const QueryPlan& a, const QueryPlan& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.chosen, b.chosen);
}

TEST(ParallelPlanningTest, SampleHitsIdenticalForAnyThreadCount) {
  Instance inst = MakeInstance(60, 8, 20, 41);
  LpFilterPlanner planner;
  auto plan = planner.Plan(inst.ctx, inst.samples, PlanRequest{8, 10.0});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const int serial = SampleHits(*plan, inst.topology, inst.samples);
  for (int threads : {2, 3, 4, 8}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(SampleHits(*plan, inst.topology, inst.samples, &pool), serial)
        << threads << " threads";
  }
}

TEST(ParallelPlanningTest, GreedyPlansBitIdenticalAcrossThreadCounts) {
  Instance inst = MakeInstance(60, 8, 15, 42);
  for (double budget : {2.0, 6.0, 14.0}) {
    GreedyPlanner serial;
    GreedyPlanner parallel(GreedyPlannerOptions{/*threads=*/4});
    auto a = serial.Plan(inst.ctx, inst.samples, PlanRequest{8, budget});
    auto b = parallel.Plan(inst.ctx, inst.samples, PlanRequest{8, budget});
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSamePlan(*a, *b);
  }
}

TEST(ParallelPlanningTest, LpNoFilterPlansBitIdenticalAcrossThreadCounts) {
  Instance inst = MakeInstance(50, 8, 12, 43);
  for (double budget : {4.0, 8.0, 16.0}) {
    LpNoFilterPlanner serial;
    LpPlannerOptions opts;
    opts.threads = 4;
    LpNoFilterPlanner parallel(opts);
    auto a = serial.Plan(inst.ctx, inst.samples, PlanRequest{8, budget});
    auto b = parallel.Plan(inst.ctx, inst.samples, PlanRequest{8, budget});
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSamePlan(*a, *b);
    // Objective values must match to the last bit, not just approximately.
    EXPECT_EQ(serial.last_lp_objective(), parallel.last_lp_objective());
  }
}

TEST(ParallelPlanningTest, LpFilterPlansBitIdenticalAcrossThreadCounts) {
  Instance inst = MakeInstance(50, 8, 12, 44);
  for (double budget : {4.0, 8.0, 16.0}) {
    LpFilterPlanner serial;
    LpPlannerOptions opts;
    opts.threads = 4;
    LpFilterPlanner parallel(opts);
    auto a = serial.Plan(inst.ctx, inst.samples, PlanRequest{8, budget});
    auto b = parallel.Plan(inst.ctx, inst.samples, PlanRequest{8, budget});
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSamePlan(*a, *b);
    EXPECT_EQ(serial.last_lp_objective(), parallel.last_lp_objective());
  }
}

TEST(ParallelPlanningTest, PlanSweepMatchesSerialSweepInOrder) {
  Instance inst = MakeInstance(50, 8, 12, 45);
  std::vector<PlanRequest> requests;
  for (double budget : {2.0, 4.0, 6.0, 8.0, 12.0, 16.0}) {
    requests.push_back(PlanRequest{8, budget});
  }
  // Also sweep k at a fixed budget — a second independent dimension.
  for (int k : {2, 5, 12}) requests.push_back(PlanRequest{k, 10.0});

  PlannerFactory factory = [] { return std::make_unique<LpNoFilterPlanner>(); };
  const auto serial = PlanSweep(factory, inst.ctx, inst.samples, requests);
  util::ThreadPool pool(4);
  const auto parallel =
      PlanSweep(factory, inst.ctx, inst.samples, requests, &pool);

  ASSERT_EQ(serial.size(), requests.size());
  ASSERT_EQ(parallel.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].status().ToString();
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].status().ToString();
    ExpectSamePlan(*serial[i], *parallel[i]);
  }
}

TEST(ParallelPlanningTest, PlanManagerDecisionsUnchangedByPool) {
  Instance inst = MakeInstance(40, 6, 10, 46);
  net::NetworkSimulator sim_a(&inst.topology, inst.ctx.energy);
  net::NetworkSimulator sim_b(&inst.topology, inst.ctx.energy);
  util::ThreadPool pool(4);

  GreedyPlanner planner_a, planner_b;
  PlanManagerOptions with_pool;
  with_pool.pool = &pool;
  PlanManager serial(&planner_a, PlanRequest{6, 8.0});
  PlanManager parallel(&planner_b, PlanRequest{6, 8.0}, with_pool);

  auto a = serial.MaybeReplan(inst.ctx, inst.samples, &sim_a);
  auto b = parallel.MaybeReplan(inst.ctx, inst.samples, &sim_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  ASSERT_TRUE(serial.has_plan() && parallel.has_plan());
  ExpectSamePlan(serial.plan(), parallel.plan());
}

// The slide-and-rebuild sweep: every planner, serial and pooled, across a
// sliding window, a budget drift and a topology rebuild. Both must agree
// bit for bit, plans and LP work alike, and so must the plans' hit counts.
TEST(ParallelPlanningTest, AllPlannersBitIdenticalAcrossSlidesAndRebuilds) {
  util::ThreadPool score_pool(4);
  for (int which = 0; which < 4; ++which) {
    Rng rng(90 + which);
    net::GeometricNetworkOptions geo;
    geo.num_nodes = 36;
    geo.radio_range = 25.0;
    net::Topology topology =
        net::BuildConnectedGeometricNetwork(geo, &rng).value();
    data::GaussianField field =
        data::GaussianField::Random(36, 40, 60, 1, 16, &rng);
    Rng sample_rng((90 + which) ^ 0xabcdef);
    sampling::SampleSet samples =
        sampling::SampleSet::ForTopK(36, 6, /*window=*/10);
    for (int s = 0; s < 10; ++s) samples.Add(field.Sample(&sample_rng));
    PlannerContext ctx;
    ctx.topology = &topology;

    auto make = [which](int threads) -> std::unique_ptr<Planner> {
      LpPlannerOptions lp;
      lp.threads = threads;
      switch (which) {
        case 0:
          return std::make_unique<GreedyPlanner>(GreedyPlannerOptions{threads});
        case 1:
          return std::make_unique<LpNoFilterPlanner>(lp);
        case 2:
          return std::make_unique<LpFilterPlanner>(lp);
        default:
          return std::make_unique<ProofPlanner>(lp);
      }
    };
    auto serial = make(1);
    auto pooled = make(4);

    // Proof plans need the per-edge floor covered; the others get a mid
    // budget so rounding and repair paths all engage.
    auto base_budget = [&] {
      return which == 3 ? ProofPlanner::MinimumCost(ctx) * 1.6 : 9.0;
    };
    PlanRequest request{6, base_budget()};

    auto plan_both = [&](const std::string& where) {
      auto a = serial->Plan(ctx, samples, request);
      auto b = pooled->Plan(ctx, samples, request);
      const std::string label = where + ", planner " + serial->name();
      ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
      EXPECT_EQ(a->kind, b->kind) << label;
      EXPECT_EQ(a->bandwidth, b->bandwidth) << label;
      EXPECT_EQ(a->chosen, b->chosen) << label;
      const lp::SolveStats& sa = serial->last_stats().lp;
      const lp::SolveStats& sb = pooled->last_stats().lp;
      EXPECT_EQ(sa.phase1_iterations, sb.phase1_iterations) << label;
      EXPECT_EQ(sa.phase2_iterations, sb.phase2_iterations) << label;
      EXPECT_EQ(sa.rows, sb.rows) << label;
      EXPECT_EQ(sa.columns, sb.columns) << label;
      EXPECT_EQ(SampleHits(*a, topology, samples, &score_pool),
                SampleHits(*a, topology, samples))
          << label;
    };

    plan_both("cold");
    // Slide the window: three appends (evicting three rows) per step.
    for (int step = 0; step < 3; ++step) {
      for (int add = 0; add < 3; ++add) samples.Add(field.Sample(&sample_rng));
      plan_both("slide step " + std::to_string(step));
    }
    request.energy_budget_mj *= 1.25;
    plan_both("budget drift");

    Rng rebuild_rng(1234 + which);
    geo.radio_range = 28.0;
    net::Topology rebuilt =
        net::BuildConnectedGeometricNetwork(geo, &rebuild_rng).value();
    EXPECT_NE(rebuilt.epoch(), topology.epoch());
    topology = std::move(rebuilt);
    request.energy_budget_mj = base_budget();
    plan_both("after rebuild");
    plan_both("steady state on rebuilt tree");
  }
}

// The dense reference for SampleHits: the recurrence
// f(u) = min(bandwidth[u], [u contributes] + sum_children f(c)) over every
// node in post-order, reading contributions one at a time.
int DenseHitsForSample(const QueryPlan& plan, const net::Topology& topology,
                       const sampling::SampleSet& samples, int j) {
  const int n = topology.num_nodes();
  const int root = topology.root();
  int hits = samples.Contributes(j, root) ? 1 : 0;
  if (plan.kind == PlanKind::kNodeSelection) {
    for (int i = 0; i < n; ++i) {
      if (i != root && plan.chosen[i] && samples.Contributes(j, i)) ++hits;
    }
    return hits;
  }
  std::vector<int> f(n, 0);
  for (int u : topology.PostOrder()) {
    if (u == root) continue;
    int avail = samples.Contributes(j, u) ? 1 : 0;
    for (int c : topology.children(u)) avail += f[c];
    f[u] = std::min(plan.bandwidth[u], avail);
  }
  for (int c : topology.children(root)) hits += f[c];
  return hits;
}

TEST(SampleHitsTest, PackedMatchesDenseWalkForBothPlanKinds) {
  util::ThreadPool pool(3);
  for (int n : {65, 90, 130}) {
    Rng rng(0xabc + n);
    net::GeometricNetworkOptions geo;
    geo.num_nodes = n;
    geo.radio_range = 25.0;
    net::Topology topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
    data::GaussianField field =
        data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
    sampling::SampleSet topk = sampling::SampleSet::ForTopK(n, 6);
    sampling::SampleSet selection = sampling::SampleSet::ForSelection(n, 58.0);
    for (int s = 0; s < 70; ++s) {
      const std::vector<double> values = field.Sample(&rng);
      topk.Add(values);
      selection.Add(values);
    }

    Rng plan_rng(0x9 + n);
    // Node-selection plan: a random half of the nodes.
    std::vector<char> chosen(n, 0);
    for (int i = 0; i < n; ++i) {
      chosen[i] = static_cast<char>(plan_rng.UniformInt(0, 1));
    }
    QueryPlan node_selection =
        QueryPlan::NodeSelection(6, std::move(chosen), topo);
    node_selection.Normalize(topo);
    // Bandwidth plan: random small per-edge budgets (including zeros, which
    // prune whole subtrees in the packed recurrence).
    std::vector<int> bw(n, 0);
    for (int i = 0; i < n; ++i) {
      bw[i] = static_cast<int>(plan_rng.UniformInt(0, 3));
    }
    QueryPlan bandwidth = QueryPlan::Bandwidth(6, std::move(bw));
    bandwidth.Normalize(topo);

    for (const sampling::SampleSet* samples : {&topk, &selection}) {
      for (const QueryPlan* plan : {&node_selection, &bandwidth}) {
        const std::string where = "n=" + std::to_string(n) +
                                  (samples == &topk ? " top-k" : " selection") +
                                  (plan == &bandwidth ? " bandwidth" : " nodes");
        int dense_total = 0;
        for (int j = 0; j < samples->num_samples(); ++j) {
          const int dense = DenseHitsForSample(*plan, topo, *samples, j);
          EXPECT_EQ(SampleHitsForSample(*plan, topo, *samples, j), dense)
              << where << " j=" << j;
          dense_total += dense;
        }
        EXPECT_EQ(SampleHits(*plan, topo, *samples), dense_total) << where;
        EXPECT_EQ(SampleHits(*plan, topo, *samples, &pool), dense_total)
            << where;
      }
    }
  }
}

// ---- Regression: the root must be skipped by id, not by assuming id 0 ----

TEST(SampleHitsTest, NodeSelectionCountsNodeZeroWhenRootIsElsewhere) {
  // Chain 0 -> 1 -> 2 rooted at node 2. Node 0 holds the top value and is
  // chosen; the old `for (i = 1; ...)` loop silently skipped it.
  auto topo = net::Topology::FromParents({1, 2, net::Topology::kNoParent});
  ASSERT_TRUE(topo.ok());

  sampling::SampleSet samples = sampling::SampleSet::ForTopK(3, 1);
  samples.Add({10.0, 1.0, 0.0});  // top-1 is node 0

  QueryPlan plan;
  plan.kind = PlanKind::kNodeSelection;
  plan.k = 1;
  plan.chosen = {1, 0, 0};
  plan.bandwidth = {1, 1, 0};  // node 0's value crosses edges 0 and 1

  EXPECT_EQ(SampleHits(plan, *topo, samples), 1);
}

TEST(SampleHitsTest, BandwidthPlanDeliversHitsWhenRootIsElsewhere) {
  auto topo = net::Topology::FromParents({1, 2, net::Topology::kNoParent});
  ASSERT_TRUE(topo.ok());

  sampling::SampleSet samples = sampling::SampleSet::ForTopK(3, 2);
  samples.Add({10.0, 1.0, 7.0});  // top-2: nodes 0 and 2 (the root)

  QueryPlan plan;
  plan.kind = PlanKind::kBandwidth;
  plan.k = 2;
  plan.bandwidth = {1, 1, 0};
  // Node 0's contribution flows across both edges; the root's own value is
  // free: 2 hits total.
  EXPECT_EQ(SampleHits(plan, *topo, samples), 2);
}

}  // namespace
}  // namespace core
}  // namespace prospector
