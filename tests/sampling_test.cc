#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/net/simulator.h"
#include "src/net/topology.h"
#include "src/sampling/collector.h"
#include "src/sampling/sample_set.h"
#include "src/util/rng.h"

namespace prospector {
namespace sampling {
namespace {

TEST(SampleSetTest, TopKOnesAndColumnSums) {
  SampleSet s = SampleSet::ForTopK(5, 2);
  s.Add({1, 9, 3, 7, 5});
  s.Add({1, 9, 8, 2, 0});
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{1, 3}));
  EXPECT_EQ(s.ones(1), (std::vector<int>{1, 2}));
  EXPECT_TRUE(s.Contributes(0, 3));
  EXPECT_FALSE(s.Contributes(1, 3));
  EXPECT_EQ(s.column_sums(), (std::vector<int>{0, 2, 1, 1, 0}));
  EXPECT_EQ(s.total_ones(), 4);
}

TEST(SampleSetTest, TopKTieBreaksTowardLowerId) {
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.Add({5.0, 5.0, 1.0});
  EXPECT_EQ(s.ones(0), (std::vector<int>{0}));
}

TEST(SampleSetTest, WindowEvictsOldestAndFixesSums) {
  SampleSet s = SampleSet::ForTopK(3, 1, /*window=*/2);
  s.Add({9, 1, 1});  // top: node 0
  s.Add({1, 9, 1});  // top: node 1
  s.Add({1, 1, 9});  // top: node 2; evicts the first
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.column_sums(), (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(s.total_ones(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{1}));  // oldest kept is the 2nd add
}

TEST(SampleSetTest, SelectionContributor) {
  SampleSet s = SampleSet::ForSelection(4, 5.0);
  s.Add({6, 2, 5.5, 4});
  EXPECT_EQ(s.ones(0), (std::vector<int>{0, 2}));
}

TEST(SampleSetTest, QuantileContributor) {
  SampleSet s = SampleSet::ForQuantile(5, 0.5);
  s.Add({10, 30, 20, 50, 40});
  // Median of {10,20,30,40,50} is 30 -> node 1.
  EXPECT_EQ(s.ones(0), (std::vector<int>{1}));
}

TEST(SampleSetTest, OutOfRangeQuantileClampsToEndpoints) {
  // A negative q used to wrap through size_t and pick the maximum.
  SampleSet lo = SampleSet::ForQuantile(5, -0.5);
  lo.Add({10, 30, 20, 50, 40});
  EXPECT_EQ(lo.ones(0), (std::vector<int>{0}));  // minimum -> node 0
  SampleSet hi = SampleSet::ForQuantile(5, 1.75);
  hi.Add({10, 30, 20, 50, 40});
  EXPECT_EQ(hi.ones(0), (std::vector<int>{3}));  // maximum -> node 3
}

TEST(SampleSetTest, IsSmallerUsesSampleValues) {
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.Add({5, 3, 8});
  EXPECT_TRUE(s.IsSmaller(0, 1, 0));
  EXPECT_FALSE(s.IsSmaller(0, 2, 0));
}

TEST(SampleSetTest, AddTraceLoadsEveryEpoch) {
  data::Trace t(3);
  ASSERT_TRUE(t.AddEpoch({1, 2, 3}).ok());
  ASSERT_TRUE(t.AddEpoch({3, 2, 1}).ok());
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.AddTrace(t);
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{2}));
  EXPECT_EQ(s.ones(1), (std::vector<int>{0}));
}

TEST(SampleSetTest, RecentKeepsOnlyTheTail) {
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.Add({9, 1, 1});
  s.Add({1, 9, 1});
  s.Add({1, 1, 9});
  SampleSet tail = s.Recent(2);
  EXPECT_EQ(tail.num_samples(), 2);
  EXPECT_EQ(tail.ones(0), (std::vector<int>{1}));
  EXPECT_EQ(tail.ones(1), (std::vector<int>{2}));
  EXPECT_EQ(tail.column_sums(), (std::vector<int>{0, 1, 1}));
  // Asking for more than exists returns everything.
  EXPECT_EQ(s.Recent(10).num_samples(), 3);
}

TEST(SampleSetTest, RemappedDropsRemovedNodesAndRecomputesOnes) {
  SampleSet s = SampleSet::ForTopK(4, 1);
  s.Add({1, 9, 5, 2});  // top: node 1
  // Remove node 1; nodes 0,2,3 -> new ids 0,1,2.
  SampleSet r = s.Remapped({0, -1, 1, 2}, 3);
  ASSERT_EQ(r.num_samples(), 1);
  EXPECT_EQ(r.ones(0), (std::vector<int>{1}));  // old node 2 is now the top
  EXPECT_DOUBLE_EQ(r.value(0, 2), 2.0);
}

TEST(SampleSetTest, VersionBumpsOnEveryAddAndStampsStayStable) {
  SampleSet s = SampleSet::ForTopK(4, 2, /*window=*/3);
  const uint64_t v0 = s.version();
  EXPECT_EQ(s.id(), v0);  // a fresh set's lineage is its creation stamp

  s.Add({1, 2, 3, 4});
  const uint64_t v1 = s.version();
  EXPECT_GT(v1, v0);
  s.Add({4, 3, 2, 1});
  EXPECT_GT(s.version(), v1);

  // The lineage stamp stays put while the window slides; only the version
  // moves.
  s.Add({5, 6, 7, 8});
  s.Add({8, 7, 6, 5});  // evicts the first row
  EXPECT_EQ(s.num_samples(), 3);
  EXPECT_EQ(s.id(), v0);

  // Derived windows start lineages of their own, stamped after everything
  // the source drew.
  const SampleSet tail = s.Recent(2);
  EXPECT_GT(tail.id(), s.version());
  const SampleSet same_ids = s.Remapped({0, 1, 2, 3}, 4);
  EXPECT_GT(same_ids.id(), tail.version());
}

// The packed row, the contributor list and Contributes() are three views
// of one row of Q and must agree bit for bit, with the padding bits past
// the last node clear; the maintained column sums and total must equal a
// recount of the window.
void ExpectPackedRowsExact(const SampleSet& s, const std::string& where) {
  const int n = s.num_nodes();
  const int words = s.words_per_row();
  ASSERT_EQ(words, (n + 63) / 64) << where;
  std::vector<int> sums(n, 0);
  int total = 0;
  for (int j = 0; j < s.num_samples(); ++j) {
    std::vector<char> in_ones(n, 0);
    for (int i : s.ones(j)) {
      in_ones[i] = 1;
      ++sums[i];
      ++total;
    }
    const uint64_t* row = s.row(j);
    for (int i = 0; i < n; ++i) {
      const bool bit = (row[i >> 6] >> (i & 63)) & 1;
      ASSERT_EQ(bit, in_ones[i] != 0) << where << " j=" << j << " i=" << i;
      ASSERT_EQ(s.Contributes(j, i), bit) << where << " j=" << j << " i=" << i;
    }
    if (n % 64 != 0) {
      EXPECT_EQ(row[words - 1] >> (n % 64), 0u) << where << " j=" << j;
    }
  }
  EXPECT_EQ(s.column_sums(), sums) << where;
  EXPECT_EQ(s.total_ones(), total) << where;
}

std::vector<double> RandomReading(int n, Rng* rng) {
  std::vector<double> values(n);
  for (double& v : values) v = rng->Uniform(0.0, 100.0);
  return values;
}

// Node counts below, at and just past the 64-bit word boundary.
constexpr int kWordBoundaryNodeCounts[] = {1, 63, 64, 65, 130};

TEST(SampleSetTest, PackedRowsMatchOnesAtWordBoundarySizes) {
  for (int n : kWordBoundaryNodeCounts) {
    for (int count : {1, 63, 65}) {
      Rng rng(0x5eed + n * 131 + count);
      SampleSet topk = SampleSet::ForTopK(n, std::min(n, 4));
      SampleSet selection = SampleSet::ForSelection(n, 80.0);
      for (int t = 0; t < count; ++t) {
        const std::vector<double> values = RandomReading(n, &rng);
        topk.Add(values);
        selection.Add(values);
      }
      const std::string where =
          "n=" + std::to_string(n) + " samples=" + std::to_string(count);
      ExpectPackedRowsExact(topk, "top-k " + where);
      ExpectPackedRowsExact(selection, "selection " + where);
    }
  }
}

TEST(SampleSetTest, PackedRowsStayExactAcrossWindowSlides) {
  for (int n : kWordBoundaryNodeCounts) {
    Rng rng(0xbeef + n);
    SampleSet s = SampleSet::ForSelection(n, 70.0, /*window=*/8);
    ExpectPackedRowsExact(s, "empty n=" + std::to_string(n));
    // Grow into the window, then slide it far past its size: rows leave
    // with their samples and the survivors keep their bits.
    for (int step = 0; step < 40; ++step) {
      s.Add(RandomReading(n, &rng));
      ExpectPackedRowsExact(
          s, "n=" + std::to_string(n) + " step=" + std::to_string(step));
    }
    EXPECT_EQ(s.num_samples(), 8);
  }
}

TEST(SampleSetTest, PackedRowsExactAfterRemapAndRecent) {
  for (int n : kWordBoundaryNodeCounts) {
    Rng rng(0xfeed + n);
    SampleSet s = SampleSet::ForTopK(n, std::min(n, 4), /*window=*/20);
    for (int t = 0; t < 30; ++t) s.Add(RandomReading(n, &rng));
    const std::string where = "n=" + std::to_string(n);

    ExpectPackedRowsExact(s.Recent(7), "recent " + where);

    // A rebuild: ids reversed and, past one node, the middle node dropped.
    const int dropped = n > 1 ? n / 2 : -1;
    std::vector<int> new_id(n, -1);
    int next = n > 1 ? n - 2 : 0;
    for (int i = 0; i < n; ++i) {
      if (i != dropped) new_id[i] = next--;
    }
    const int new_n = n > 1 ? n - 1 : 1;
    SampleSet remapped = s.Remapped(new_id, new_n);
    ASSERT_EQ(remapped.num_samples(), s.num_samples()) << where;
    ExpectPackedRowsExact(remapped, "remapped " + where);
    // The remapped window keeps sliding exactly.
    for (int t = 0; t < 5; ++t) remapped.Add(RandomReading(new_n, &rng));
    ExpectPackedRowsExact(remapped, "remapped+slid " + where);
  }
}

TEST(SampleSetTest, RemappedQuantileRecomputesContributorsAfterEviction) {
  // Median contributor over 5 nodes, window of 2: eviction and remap must
  // compose — contribution rows are recomputed on the surviving nodes.
  SampleSet s = SampleSet::ForQuantile(5, 0.5, /*window=*/2);
  s.Add({10, 20, 30, 40, 50});  // median: node 2
  s.Add({50, 40, 30, 20, 10});  // median: node 2
  s.Add({1, 2, 3, 4, 5});       // median: node 2; evicts the first row
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{2}));
  EXPECT_EQ(s.ones(1), (std::vector<int>{2}));

  // Drop node 2 (the median holder). The remapped window re-runs the
  // contributor on 4-node rows, where the median shifts to a survivor.
  SampleSet r = s.Remapped({0, 1, -1, 2, 3}, 4);
  EXPECT_EQ(r.num_samples(), 2);
  EXPECT_EQ(r.num_nodes(), 4);
  // Nearest-rank: round(0.5 * 3) = rank 2, the third-smallest of four.
  // Row 0 is now {50,40,20,10}: third-smallest is 40, new node 1 (old
  // node 1). Row 1 is {1,2,4,5}: third-smallest is 4, new node 2 (old
  // node 3).
  EXPECT_EQ(r.ones(0), (std::vector<int>{1}));
  EXPECT_EQ(r.ones(1), (std::vector<int>{2}));
  const std::vector<int> expected_sums{0, 1, 1, 0};
  EXPECT_EQ(r.column_sums(), expected_sums);

  // Window behavior survives the remap: one more Add still evicts.
  r.Add({9, 9, 9, 9});
  EXPECT_EQ(r.num_samples(), 2);
}

TEST(SampleCollectorTest, SweepCostMatchesChargedCost) {
  Rng rng(4);
  net::Topology topo = net::BuildRandomTree(20, 3, &rng);
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  SampleCollector collector(0.1);
  SampleSet samples = SampleSet::ForTopK(20, 5);

  const double predicted = collector.SweepCost(sim);
  std::vector<double> truth(20, 1.0);
  const double charged = collector.CollectSample(truth, &sim, &samples);
  EXPECT_NEAR(predicted, charged, 1e-9);
  EXPECT_EQ(samples.num_samples(), 1);
  // Every edge carried its subtree: total values = sum of subtree sizes.
  int64_t expect_values = 0;
  for (int u = 1; u < 20; ++u) expect_values += topo.subtree_size(u);
  EXPECT_EQ(sim.stats().values_transmitted, expect_values);
}

TEST(SampleCollectorTest, ExplorationProbabilityRoughlyHolds) {
  SampleCollector collector(0.25);
  Rng rng(11);
  int explored = 0;
  for (int i = 0; i < 20000; ++i) {
    if (collector.ShouldExplore(&rng)) ++explored;
  }
  EXPECT_NEAR(explored / 20000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace sampling
}  // namespace prospector
