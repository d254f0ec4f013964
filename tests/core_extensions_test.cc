#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/generalized.h"
#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/plan_eval.h"
#include "src/core/plan_manager.h"
#include "src/data/gaussian_field.h"
#include "src/net/simulator.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

struct World {
  net::Topology topo;
  data::GaussianField field;
  PlannerContext ctx;

  explicit World(uint64_t seed, int n = 40) {
    Rng rng(seed);
    net::GeometricNetworkOptions geo;
    geo.num_nodes = n;
    geo.radio_range = 28.0;
    topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
    field = data::GaussianField::Random(n, 40, 60, 1, 9, &rng);
    ctx.topology = &topo;
  }
};

// ---- PlanManager ----

TEST(PlanManagerTest, FirstReplanAlwaysDisseminates) {
  World w(1);
  Rng rng(2);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  GreedyPlanner planner;
  PlanManager mgr(&planner, PlanRequest{5, 10.0});
  EXPECT_FALSE(mgr.has_plan());
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  auto changed = mgr.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  EXPECT_TRUE(mgr.has_plan());
  EXPECT_GT(sim.stats().total_energy_mj, 0.0) << "install must be charged";
  EXPECT_EQ(mgr.disseminations(), 1);
}

TEST(PlanManagerTest, StableSamplesDoNotRedisseminate) {
  World w(3);
  Rng rng(4);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  GreedyPlanner planner;
  PlanManager mgr(&planner, PlanRequest{5, 10.0});
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  ASSERT_TRUE(mgr.MaybeReplan(w.ctx, samples, &sim).ok());
  // Same samples: the recomputed plan cannot beat the installed one.
  auto again = mgr.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ(mgr.disseminations(), 1);
}

TEST(PlanManagerTest, DistributionShiftTriggersRedissemination) {
  World w(5);
  Rng rng(6);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5,
                                                             /*window=*/10);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  GreedyPlanner planner;
  PlanManager mgr(&planner, PlanRequest{5, 10.0});
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  ASSERT_TRUE(mgr.MaybeReplan(w.ctx, samples, &sim).ok());

  // The hot region moves: a different set of nodes now dominates.
  data::GaussianField shifted = w.field;
  for (int i = 1; i < 40; ++i) {
    shifted.set_node(i, i % 7 == 0 ? 90.0 : 30.0, 1.0);
  }
  for (int s = 0; s < 10; ++s) samples.Add(shifted.Sample(&rng));
  auto changed = mgr.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
  EXPECT_EQ(mgr.disseminations(), 2);
}

TEST(PlanManagerTest, AccuracyObservationControlsExploreRate) {
  GreedyPlanner planner;
  PlanManagerOptions opts;
  opts.min_accuracy = 0.9;
  opts.base_explore_probability = 0.02;
  opts.boosted_explore_probability = 0.25;
  PlanManager mgr(&planner, PlanRequest{5, 10.0}, opts);
  EXPECT_DOUBLE_EQ(mgr.explore_probability(), 0.02);
  mgr.ObserveAccuracy(0.6);
  EXPECT_DOUBLE_EQ(mgr.explore_probability(), 0.25);
  mgr.ObserveAccuracy(0.95);
  EXPECT_DOUBLE_EQ(mgr.explore_probability(), 0.02);
}

// A planner that records how often it actually runs — the probe for
// PlanManager's steady-state short-circuit.
class CountingPlanner : public Planner {
 public:
  Result<QueryPlan> Plan(const PlannerContext& ctx,
                         const sampling::SampleSet& samples,
                         const PlanRequest& request) override {
    ++calls;
    return inner.Plan(ctx, samples, request);
  }
  std::string name() const override { return "counting"; }

  GreedyPlanner inner;
  int calls = 0;
};

// A world plus a 10-sample window and a manager that has installed its
// first plan: the starting point of every short-circuit case.
struct SteadyState {
  World w;
  Rng rng;
  sampling::SampleSet samples;
  net::NetworkSimulator sim;
  CountingPlanner planner;
  PlanManager manager;

  explicit SteadyState(uint64_t seed)
      : w(seed),
        rng(seed + 1),
        samples(sampling::SampleSet::ForTopK(40, 5)),
        sim(&w.topo, w.ctx.energy),
        manager(&planner, PlanRequest{5, 8.0}) {
    for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
    auto first = manager.MaybeReplan(w.ctx, samples, &sim);
    EXPECT_TRUE(first.ok() && *first);
    EXPECT_EQ(planner.calls, 1);
  }

  bool Replan() {
    auto changed = manager.MaybeReplan(w.ctx, samples, &sim);
    EXPECT_TRUE(changed.ok()) << changed.status().ToString();
    return changed.ok() && *changed;
  }
};

TEST(PlanManagerTest, SteadyStateReplansAreShortCircuited) {
  SteadyState st(66);
  // Nothing moved: the decision memo answers without planning.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(st.Replan());
  EXPECT_EQ(st.planner.calls, 1);
  EXPECT_EQ(st.manager.disseminations(), 1);

  // Invalidation (a heal) wipes the memo too.
  st.manager.InvalidatePlan();
  EXPECT_TRUE(st.Replan());
  EXPECT_EQ(st.planner.calls, 2);
}

TEST(PlanManagerTest, NewSampleForcesReplan) {
  SteadyState st(67);
  st.samples.Add(st.w.field.Sample(&st.rng));  // bumps the window version
  st.Replan();
  EXPECT_EQ(st.planner.calls, 2);
  st.Replan();  // ... and the new window is memoized in turn
  EXPECT_EQ(st.planner.calls, 2);
}

TEST(PlanManagerTest, RebuiltTopologyForcesReplan) {
  SteadyState st(68);
  // The same parents under a new construction stamp: only the epoch moves.
  std::vector<int> parents(st.w.topo.num_nodes());
  for (int i = 0; i < st.w.topo.num_nodes(); ++i) {
    parents[i] = st.w.topo.parent(i);
  }
  net::Topology rebuilt = net::Topology::FromParents(parents).value();
  ASSERT_NE(rebuilt.epoch(), st.w.topo.epoch());
  st.w.topo = std::move(rebuilt);
  st.Replan();
  EXPECT_EQ(st.planner.calls, 2);
}

TEST(PlanManagerTest, ChangedFailureModelForcesReplan) {
  SteadyState st(69);
  st.w.ctx.failures = net::FailureModel::Uniform(0.2);
  st.Replan();
  EXPECT_EQ(st.planner.calls, 2);
  // Same probabilities, new reroute cost: still a different cost model.
  st.w.ctx.failures.reroute_cost_factor = 3.0;
  st.Replan();
  EXPECT_EQ(st.planner.calls, 3);
}

TEST(TopKAccuracyTest, EmptyTruthYieldsVacuousRecallNotDivByZero) {
  ExecutionResult result;  // no answers either
  AccuracyMetrics m = TopKAccuracy(result, /*truth=*/{}, /*k=*/5);
  EXPECT_EQ(m.recall, 1.0);
  EXPECT_EQ(m.answered, 0);

  // Answers against an empty truth: still no crash, recall stays vacuous,
  // precision reports the all-miss.
  result.answer.push_back(Reading{3, 1.5});
  m = TopKAccuracy(result, /*truth=*/{}, /*k=*/5);
  EXPECT_EQ(m.recall, 1.0);
  EXPECT_EQ(m.precision, 0.0);
}

// ---- Generalized subset queries ----

TEST(GeneralizedTest, SubsetBandwidthCapTracksLargestAnswer) {
  sampling::SampleSet s = sampling::SampleSet::ForSelection(5, 10.0);
  s.Add({11, 12, 1, 2, 3});     // 2 contributors
  s.Add({11, 12, 13, 14, 3});   // 4 contributors
  EXPECT_EQ(SubsetBandwidthCap(s, 0), 4);
  EXPECT_EQ(SubsetBandwidthCap(s, 2), 6);
}

class SelectionQueryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectionQueryPropertyTest, GenerousBudgetRecallsSelection) {
  World w(100 + GetParam());
  Rng rng(200 + GetParam());
  const double threshold = 62.0;  // selective: only upper-tail readings
  sampling::SampleSet samples =
      sampling::SampleSet::ForSelection(40, threshold);
  for (int s = 0; s < 15; ++s) samples.Add(w.field.Sample(&rng));

  LpFilterPlanner planner;
  auto plan = PlanSubsetQuery(&planner, w.ctx, samples, /*budget=*/40.0,
                              /*headroom=*/3);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Evaluate on fresh epochs.
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  RunningStats recall;
  for (int q = 0; q < 30; ++q) {
    const std::vector<double> truth = w.field.Sample(&rng);
    std::vector<int> contributors;
    for (int i = 0; i < 40; ++i) {
      if (truth[i] > threshold) contributors.push_back(i);
    }
    auto r = CollectionExecutor::Execute(*plan, truth, &sim);
    recall.Add(SubsetRecall(r, contributors, 40));
    sim.ResetStats();
  }
  EXPECT_GT(recall.mean(), 0.55) << "generous budget should catch most of "
                                    "the selection answers";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionQueryPropertyTest,
                         ::testing::Range(1, 8));

TEST(GeneralizedTest, QuantileSamplesDriveaPlan) {
  World w(300);
  Rng rng(301);
  sampling::SampleSet samples = sampling::SampleSet::ForQuantile(40, 0.5);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  EXPECT_EQ(SubsetBandwidthCap(samples, 0), 1);
  LpFilterPlanner planner;
  auto plan = PlanSubsetQuery(&planner, w.ctx, samples, 10.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->CountVisitedNodes(w.topo), 1);
}

TEST(GeneralizedTest, SubsetRecallEdgeCases) {
  ExecutionResult r;
  r.arrived = {{2, 5.0}};
  EXPECT_DOUBLE_EQ(SubsetRecall(r, {}, 5), 1.0);  // empty answer: trivially ok
  EXPECT_DOUBLE_EQ(SubsetRecall(r, {2}, 5), 1.0);
  EXPECT_DOUBLE_EQ(SubsetRecall(r, {1, 2}, 5), 0.5);
}

}  // namespace
}  // namespace core
}  // namespace prospector
