#include "src/lp/simplex.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/lp/model.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace prospector {
namespace lp {
namespace {

Solution MustSolve(const Model& model, SimplexOptions opts = {}) {
  SimplexSolver solver(opts);
  auto res = solver.Solve(model);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.value();
}

TEST(SimplexTest, TrivialUnconstrainedBounds) {
  // min x, 2 <= x <= 5  -> x = 2.
  Model m;
  int x = m.AddVariable(2.0, 5.0, 1.0, "x");
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(SimplexTest, MaximizeAtUpperBound) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, 7.0, 3.0, "x");
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 7.0, 1e-9);
  EXPECT_NEAR(s.objective, 21.0, 1e-9);
}

TEST(SimplexTest, ClassicTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Known optimum (Hillier-Lieberman): x=2, y=6, obj=36.
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 3.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 5.0, "y");
  m.AddRow(RowType::kLessEqual, 4.0, {{x, 1.0}});
  m.AddRow(RowType::kLessEqual, 12.0, {{y, 2.0}});
  m.AddRow(RowType::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
  EXPECT_NEAR(s.values[x], 2.0, 1e-8);
  EXPECT_NEAR(s.values[y], 6.0, 1e-8);
}

TEST(SimplexTest, EqualityRowRequiresPhase1) {
  // min x + y s.t. x + y = 10, x <= 4  ->  x=4, y=6 is NOT optimal;
  // optimum is any point with x+y=10; objective 10 everywhere on the line.
  Model m;
  int x = m.AddVariable(0.0, 4.0, 1.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 1.0, "y");
  m.AddRow(RowType::kEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-8);
  EXPECT_NEAR(s.values[x] + s.values[y], 10.0, 1e-8);
  EXPECT_GT(s.stats.total_iterations(), 0);
  EXPECT_GT(s.stats.artificials, 0);
  EXPECT_EQ(s.stats.rows, 1);
  EXPECT_EQ(s.stats.columns, 2);
}

TEST(SimplexTest, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 10, x - y >= -5, x,y >= 0.
  // Optimum: push y up to use cheaper... 2 < 3 so prefer x: y=0, x=10 ->
  // check x - y = 10 >= -5 ok. obj = 20.
  Model m;
  int x = m.AddVariable(0.0, kInfinity, 2.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 3.0, "y");
  m.AddRow(RowType::kGreaterEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  m.AddRow(RowType::kGreaterEqual, -5.0, {{x, 1.0}, {y, -1.0}});
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-8);
  EXPECT_NEAR(s.values[x], 10.0, 1e-8);
  EXPECT_NEAR(s.values[y], 0.0, 1e-8);
}

TEST(SimplexTest, DetectsInfeasible) {
  Model m;
  int x = m.AddVariable(0.0, 1.0, 1.0, "x");
  m.AddRow(RowType::kGreaterEqual, 5.0, {{x, 1.0}});
  Solution s = MustSolve(m);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleConflictingRows) {
  Model m;
  int x = m.AddVariable(0.0, kInfinity, 1.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 1.0, "y");
  m.AddRow(RowType::kLessEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  m.AddRow(RowType::kGreaterEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  Solution s = MustSolve(m);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 1.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 0.0, "y");
  m.AddRow(RowType::kLessEqual, 4.0, {{x, 1.0}, {y, -1.0}});
  Solution s = MustSolve(m);
  EXPECT_EQ(s.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, FreeVariable) {
  // min x s.t. x >= -3 expressed via a row (x itself free) -> x = -3.
  Model m;
  int x = m.AddVariable(-kInfinity, kInfinity, 1.0, "x");
  m.AddRow(RowType::kGreaterEqual, -3.0, {{x, 1.0}});
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], -3.0, 1e-8);
}

TEST(SimplexTest, FixedVariableContributes) {
  // x fixed at 2; min y s.t. y >= 5 - x  -> y = 3.
  Model m;
  int x = m.AddVariable(2.0, 2.0, 0.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 1.0, "y");
  m.AddRow(RowType::kGreaterEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[y], 3.0, 1e-8);
}

TEST(SimplexTest, NegativeRhsLessEqual) {
  // min x + y s.t. -x - y <= -4 (i.e. x + y >= 4), x,y in [0, 10].
  Model m;
  int x = m.AddVariable(0.0, 10.0, 1.0, "x");
  int y = m.AddVariable(0.0, 10.0, 1.0, "y");
  m.AddRow(RowType::kLessEqual, -4.0, {{x, -1.0}, {y, -1.0}});
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
}

TEST(SimplexTest, DuplicateTermsAreSummed) {
  // max x s.t. 0.5x + 0.5x <= 3  -> x = 3.
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 1.0, "x");
  m.AddRow(RowType::kLessEqual, 3.0, {{x, 0.5}, {x, 0.5}});
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 3.0, 1e-8);
}

// Beale's classic cycling example: every basic feasible solution of the
// first two rows is degenerate, and with Dantzig pricing the simplex
// method cycles forever. Optimum is -0.05 (minimizing).
Model BealeCyclingModel() {
  Model m;
  int x1 = m.AddVariable(0.0, kInfinity, -0.75, "x1");
  int x2 = m.AddVariable(0.0, kInfinity, 150.0, "x2");
  int x3 = m.AddVariable(0.0, kInfinity, -0.02, "x3");
  int x4 = m.AddVariable(0.0, kInfinity, 6.0, "x4");
  m.AddRow(RowType::kLessEqual, 0.0,
           {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  m.AddRow(RowType::kLessEqual, 0.0,
           {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  m.AddRow(RowType::kLessEqual, 1.0, {{x3, 1.0}});
  return m;
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // The Bland fallback must guarantee termination (default kAuto dispatch).
  Solution s = MustSolve(BealeCyclingModel());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-8);
}

TEST(SimplexTest, DegenerateCyclingModelTerminatesUnderBothEngines) {
  // Both engines, forced explicitly (the model is small enough that kAuto
  // would send it to the dense tableau), with a stall threshold low enough
  // that the Bland fallback engages within a few degenerate pivots, and a
  // refactorization interval small enough that the revised engine rebuilds
  // its eta file mid-solve. Both must terminate at the same optimum.
  const Model m = BealeCyclingModel();
  SimplexOptions dense_opts;
  dense_opts.algorithm = SimplexAlgorithm::kDense;
  dense_opts.stall_threshold = 2;
  SimplexOptions revised_opts;
  revised_opts.algorithm = SimplexAlgorithm::kRevised;
  revised_opts.stall_threshold = 2;
  revised_opts.refactor_interval = 3;
  Solution dense = MustSolve(m, dense_opts);
  Solution revised = MustSolve(m, revised_opts);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  ASSERT_EQ(revised.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, -0.05, 1e-8);
  EXPECT_NEAR(revised.objective, dense.objective, 1e-8);
}

TEST(SimplexTest, RevisedCrossCheckMatchesDenseOnRandomLps) {
  // cross_check makes every revised solve also run the dense oracle and
  // abort on divergence — a successful Solve() IS the agreement check.
  // The objectives are additionally compared here, and in a
  // -DPROSPECTOR_LP_CROSSCHECK=ON build the returned solution must be the
  // dense oracle's, bit for bit.
  //
  // Rows mix <=, >= and = with right-hand sides of either sign, so most
  // trials start with artificials and run phase 1. Each right-hand side is
  // set around a random in-bounds point, which keeps every trial feasible
  // (and, with boxed variables, kOptimal). Every trial runs at
  // refactor_interval 1 and 64: refactoring after each pivot rebuilds the
  // eta file from bases where structural columns have claimed the rows of
  // still-basic slacks and artificials. A singular refactorization would
  // fall back to the dense oracle and hide a factorization bug, so none
  // may happen.
  const obs::Counter* fallbacks =
      obs::MetricsRegistry::Global().counter("lp.revised_fallbacks");
  const int64_t fallbacks_before = fallbacks->value();
  Rng rng(0x5ca1e);
  int trials_with_phase1 = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Model m;
    m.SetSense(Sense::kMaximize);
    const int nvars = 12;
    std::vector<int> xs;
    std::vector<double> point;
    for (int v = 0; v < nvars; ++v) {
      const double up = rng.Uniform(0.5, 2.0);
      xs.push_back(m.AddVariable(0.0, up, rng.Uniform(-1.0, 1.0)));
      point.push_back(rng.Uniform(0.0, up));
    }
    for (int r = 0; r < 10; ++r) {
      std::vector<Term> terms;
      double at_point = 0.0;
      for (int v = 0; v < nvars; ++v) {
        if (rng.NextDouble() < 0.4) {
          const double c = rng.Uniform(-2.0, 2.0);
          terms.push_back({xs[v], c});
          at_point += c * point[v];
        }
      }
      const double kind = rng.NextDouble();
      if (kind < 0.5) {
        m.AddRow(RowType::kLessEqual, at_point + rng.Uniform(0.0, 1.0), terms);
      } else if (kind < 0.8) {
        m.AddRow(RowType::kGreaterEqual, at_point - rng.Uniform(0.0, 1.0),
                 terms);
      } else {
        m.AddRow(RowType::kEqual, at_point, terms);
      }
    }
    SimplexOptions dense_opts;
    dense_opts.algorithm = SimplexAlgorithm::kDense;
    const Solution dense = MustSolve(m, dense_opts);
    ASSERT_EQ(dense.status, SolveStatus::kOptimal) << "trial=" << trial;
    if (dense.stats.phase1_iterations > 0) ++trials_with_phase1;
    for (const int interval : {1, 64}) {
      SimplexOptions revised_opts;
      revised_opts.algorithm = SimplexAlgorithm::kRevised;
      revised_opts.refactor_interval = interval;
      SimplexOptions checked_opts = revised_opts;
      checked_opts.cross_check = true;
      const Solution revised = MustSolve(m, revised_opts);
      const Solution checked = MustSolve(m, checked_opts);
      ASSERT_EQ(revised.status, dense.status)
          << "trial=" << trial << " interval=" << interval;
      ASSERT_EQ(checked.status, dense.status)
          << "trial=" << trial << " interval=" << interval;
      EXPECT_NEAR(revised.objective, dense.objective,
                  1e-7 * (1.0 + std::fabs(dense.objective)))
          << "trial=" << trial << " interval=" << interval;
      EXPECT_NEAR(checked.objective, dense.objective,
                  1e-7 * (1.0 + std::fabs(dense.objective)))
          << "trial=" << trial << " interval=" << interval;
#ifdef PROSPECTOR_LP_CROSSCHECK
      ASSERT_EQ(checked.values.size(), dense.values.size());
      for (size_t i = 0; i < dense.values.size(); ++i) {
        EXPECT_EQ(checked.values[i], dense.values[i])
            << "trial=" << trial << " interval=" << interval << " var=" << i;
      }
#endif
    }
  }
  EXPECT_GE(trials_with_phase1, 6);
  EXPECT_EQ(fallbacks->value(), fallbacks_before);
}

TEST(SimplexTest, RevisedStatsCountRefactorsAndStoredEtaNonzeros) {
  // max x s.t. c*x <= 1, 0 <= x <= 10: x enters, the slack leaves (one
  // basis exchange), and the pre-optimality refactorization rebuilds the
  // one-column basis. With c = 1 both etas are identities and store
  // nothing; with c = 2 each stores just its pivot.
#ifdef PROSPECTOR_LP_CROSSCHECK
  GTEST_SKIP() << "cross-check builds return the dense oracle's solution";
#endif
  SimplexOptions opts;
  opts.algorithm = SimplexAlgorithm::kRevised;
  SolveStats total;
  for (const double c : {1.0, 2.0}) {
    Model m;
    m.SetSense(Sense::kMaximize);
    const int x = m.AddVariable(0.0, 10.0, 1.0);
    m.AddRow(RowType::kLessEqual, 1.0, {{x, c}});
    const Solution s = MustSolve(m, opts);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_EQ(s.values[x], 1.0 / c);
    EXPECT_EQ(s.stats.phase2_iterations, 1) << "c=" << c;
    EXPECT_EQ(s.stats.refactorizations, 1) << "c=" << c;
    EXPECT_EQ(s.stats.eta_nonzeros, c == 1.0 ? 0 : 2) << "c=" << c;
    total.Accumulate(s.stats);

    SimplexOptions dense_opts;
    dense_opts.algorithm = SimplexAlgorithm::kDense;
    const Solution d = MustSolve(m, dense_opts);
    EXPECT_EQ(d.stats.refactorizations, 0);
    EXPECT_EQ(d.stats.eta_nonzeros, 0);
  }
  EXPECT_EQ(total.refactorizations, 2);
  EXPECT_EQ(total.eta_nonzeros, 2);
}

TEST(SimplexTest, ValidateRejectsBadVariableIndex) {
  Model m;
  m.AddVariable(0.0, 1.0, 1.0);
  m.AddRow(RowType::kLessEqual, 1.0, {{7, 1.0}});
  SimplexSolver solver;
  auto res = solver.Solve(m);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimplexTest, ValidateRejectsInvertedBounds) {
  Model m;
  m.AddVariable(2.0, 1.0, 1.0);
  SimplexSolver solver;
  auto res = solver.Solve(m);
  EXPECT_FALSE(res.ok());
}

TEST(SimplexTest, SolutionIsFeasibleAndResidualSmall) {
  Model m;
  m.SetSense(Sense::kMaximize);
  Rng rng(7);
  std::vector<int> vars;
  for (int i = 0; i < 20; ++i) {
    vars.push_back(m.AddVariable(0.0, 1.0, rng.Uniform(0.0, 1.0)));
  }
  for (int r = 0; r < 15; ++r) {
    std::vector<Term> terms;
    for (int i = 0; i < 20; ++i) {
      if (rng.Bernoulli(0.4)) terms.push_back({vars[i], rng.Uniform(0.1, 2.0)});
    }
    if (!terms.empty()) {
      m.AddRow(RowType::kLessEqual, rng.Uniform(1.0, 5.0), terms);
    }
  }
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.IsFeasible(s.values, 1e-6));
  EXPECT_LT(s.primal_residual, 1e-6);
}

// -------- Property sweep: random knapsack-like LPs vs brute force. --------
//
// The LP relaxation of a 0/1 knapsack has a well-known closed form: sort by
// density, take greedily, split the last item fractionally. We compare the
// simplex optimum against that closed form on random instances.
class KnapsackPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackPropertyTest, MatchesGreedyFractionalOptimum) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{12}));
  std::vector<double> value(n), weight(n);
  for (int i = 0; i < n; ++i) {
    value[i] = rng.Uniform(1.0, 10.0);
    weight[i] = rng.Uniform(1.0, 10.0);
  }
  double cap = rng.Uniform(5.0, 30.0);

  Model m;
  m.SetSense(Sense::kMaximize);
  std::vector<Term> row;
  for (int i = 0; i < n; ++i) {
    int v = m.AddBinaryRelaxed(value[i]);
    row.push_back({v, weight[i]});
  }
  m.AddRow(RowType::kLessEqual, cap, row);
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  // Closed-form fractional knapsack.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return value[a] / weight[a] > value[b] / weight[b];
  });
  double rem = cap, expect = 0.0;
  for (int i : order) {
    if (weight[i] <= rem) {
      expect += value[i];
      rem -= weight[i];
    } else {
      expect += value[i] * rem / weight[i];
      rem = 0.0;
      break;
    }
  }
  EXPECT_NEAR(s.objective, expect, 1e-6);
  EXPECT_TRUE(m.IsFeasible(s.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackPropertyTest,
                         ::testing::Range(1, 40));

// -------- Property sweep: random small LPs, verify optimality via vertex
// enumeration on 2-variable instances. --------
class TwoVarVertexTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoVarVertexTest, MatchesVertexEnumeration) {
  Rng rng(1000 + GetParam());
  Model m;
  m.SetSense(Sense::kMaximize);
  double cx = rng.Uniform(-2.0, 2.0), cy = rng.Uniform(-2.0, 2.0);
  int x = m.AddVariable(0.0, 10.0, cx);
  int y = m.AddVariable(0.0, 10.0, cy);
  struct Line { double a, b, c; };  // a x + b y <= c
  std::vector<Line> lines;
  const int nrows = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  for (int r = 0; r < nrows; ++r) {
    Line ln{rng.Uniform(-1.0, 2.0), rng.Uniform(-1.0, 2.0),
            rng.Uniform(1.0, 12.0)};
    lines.push_back(ln);
    m.AddRow(RowType::kLessEqual, ln.c, {{x, ln.a}, {y, ln.b}});
  }
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  // Enumerate all candidate vertices: intersections of every constraint
  // pair (including the box bounds), keep feasible ones, take best.
  lines.push_back({1, 0, 10});
  lines.push_back({-1, 0, 0});
  lines.push_back({0, 1, 10});
  lines.push_back({0, -1, 0});
  double best = -1e100;
  auto feasible = [&](double px, double py) {
    for (const Line& ln : lines) {
      if (ln.a * px + ln.b * py > ln.c + 1e-7) return false;
    }
    return true;
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i].a * lines[j].b - lines[j].a * lines[i].b;
      if (std::abs(det) < 1e-9) continue;
      const double px = (lines[i].c * lines[j].b - lines[j].c * lines[i].b) / det;
      const double py = (lines[i].a * lines[j].c - lines[j].a * lines[i].c) / det;
      if (feasible(px, py)) best = std::max(best, cx * px + cy * py);
    }
  }
  ASSERT_GT(best, -1e99);  // box bounds guarantee a vertex exists
  EXPECT_NEAR(s.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoVarVertexTest, ::testing::Range(1, 40));

}  // namespace
}  // namespace lp
}  // namespace prospector
