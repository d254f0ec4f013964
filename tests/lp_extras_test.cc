#include <gtest/gtest.h>

#include "src/lp/model.h"
#include "src/lp/simplex.h"
#include "src/util/rng.h"

namespace prospector {
namespace lp {
namespace {

// ---- Duals ----

TEST(DualsTest, KnapsackCapacityShadowPriceIsCriticalDensity) {
  // max 6a + 10b + 12c s.t. a + 2b + 3c <= 4, vars in [0,1].
  // Densities: 6, 5, 4. Optimum: a=1, b=1, remaining 1 -> c=1/3.
  // The capacity row's shadow price equals the fractional item's density.
  Model m;
  m.SetSense(Sense::kMaximize);
  int a = m.AddBinaryRelaxed(6.0);
  int b = m.AddBinaryRelaxed(10.0);
  int c = m.AddBinaryRelaxed(12.0);
  m.AddRow(RowType::kLessEqual, 4.0, {{a, 1.0}, {b, 2.0}, {c, 3.0}});
  SimplexSolver solver;
  auto sol = solver.Solve(m);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 20.0, 1e-8);
  ASSERT_EQ(sol->row_duals.size(), 1u);
  EXPECT_NEAR(sol->row_duals[0], 4.0, 1e-8);
}

TEST(DualsTest, MinimizationSignConvention) {
  // min 2x s.t. x >= 3 -> optimum 6; relaxing the RHS by 1 lowers the
  // objective by 2, so the dual is +2 under "improvement per unit slack".
  Model m;
  int x = m.AddVariable(0.0, kInfinity, 2.0);
  m.AddRow(RowType::kGreaterEqual, 3.0, {{x, 1.0}});
  SimplexSolver solver;
  auto sol = solver.Solve(m);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 6.0, 1e-9);
  EXPECT_NEAR(sol->row_duals[0], 2.0, 1e-9);
}

class DualityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DualityPropertyTest, DualsPredictRhsPerturbation) {
  // Finite-difference check: nudging a binding row's RHS by eps changes
  // the optimal objective by ~dual * eps (away from degenerate bases).
  Rng rng(400 + GetParam());
  Model m;
  m.SetSense(Sense::kMaximize);
  const int n = 6;
  for (int j = 0; j < n; ++j) m.AddBinaryRelaxed(rng.Uniform(0.5, 3.0));
  std::vector<double> rhs;
  for (int r = 0; r < 4; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.Uniform(0.2, 1.5)});
    }
    rhs.push_back(rng.Uniform(1.0, 4.0));
    m.AddRow(RowType::kLessEqual, rhs.back(), terms);
  }
  SimplexSolver solver;
  auto base = solver.Solve(m);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->status, SolveStatus::kOptimal);

  const double eps = 1e-5;
  for (int r = 0; r < 4; ++r) {
    Model m2 = m;
    // Rebuild with perturbed RHS (Model has no setter by design).
    Model mp;
    mp.SetSense(Sense::kMaximize);
    for (int j = 0; j < n; ++j) {
      mp.AddBinaryRelaxed(m.variable(j).objective);
    }
    for (int rr = 0; rr < 4; ++rr) {
      mp.AddRow(RowType::kLessEqual, rhs[rr] + (rr == r ? eps : 0.0),
                m.row(rr).terms);
    }
    auto pert = solver.Solve(mp);
    ASSERT_TRUE(pert.ok());
    ASSERT_EQ(pert->status, SolveStatus::kOptimal);
    EXPECT_NEAR(pert->objective - base->objective, base->row_duals[r] * eps,
                1e-7)
        << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualityPropertyTest, ::testing::Range(1, 15));

TEST(DualsTest, ReducedCostSignsAtOptimum) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int a = m.AddBinaryRelaxed(6.0);
  int b = m.AddBinaryRelaxed(1.0);
  m.AddRow(RowType::kLessEqual, 1.0, {{a, 1.0}, {b, 1.0}});
  SimplexSolver solver;
  auto sol = solver.Solve(m);
  ASSERT_TRUE(sol.ok());
  // a = 1 (at bound via the row), b = 0; b's reduced cost must be <= 0 in
  // a maximization (no improvement available from raising b).
  EXPECT_NEAR(sol->values[a], 1.0, 1e-9);
  EXPECT_LE(sol->reduced_costs[b], 1e-9);
}

}  // namespace
}  // namespace lp
}  // namespace prospector
