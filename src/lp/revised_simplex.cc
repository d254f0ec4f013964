// Sparse revised simplex: the default cold-solve engine behind
// SimplexSolver::Solve. It runs the same two-phase bounded-variable method
// as the dense tableau (simplex.cc) — same equality form, same initial
// basis, same Dantzig/Bland pricing, same ratio-test tie-breaking, same
// stall detection — but carries the basis inverse as a product-form eta
// file over CSC columns instead of an explicit m x (n+m) tableau.
//
// Per pivot: BTRAN and pricing cost O(m + nnz) (y is a dense m-vector and
// every nonbasic column is priced); FTRAN walks the stored etas and the
// fill-in it produces; the ratio test and the step touch only the nonzeros
// of the entering column; the stall check sums only the nonzero-cost
// terms. Identity etas (slacks and artificials pivoting on their own row)
// are not stored, so the eta file holds only the structural part of the
// basis. The factorization is rebuilt every
// SimplexOptions::refactor_interval pivots (and before declaring
// optimality), both for numerical hygiene and to shed eta fill-in; a
// refactor costs O(m) for the singleton columns plus an FTRAN per
// structural basic column. A singular refactorization is a numerical
// breakdown and falls back to the dense oracle, which is kept runnable for
// every accepted model.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/lp/simplex.h"
#include "src/lp/solver_internal.h"
#include "src/lp/sparse.h"
#include "src/obs/obs.h"

namespace prospector {
namespace lp {
namespace {

using internal::InitialRestStatus;
using internal::VarStatus;

// An m-vector carried as dense values plus an explicit nonzero index list,
// so FTRAN, the ratio test, and eta capture touch only the fill-in a
// column actually has — the proof LPs run thousands of rows with a
// near-identity basis, where dense O(m) passes per pivot (and O(m^2) per
// refactorization) dwarf the arithmetic. Invariant: vals[i] == 0.0 for
// every i not in `list`; listed entries may still hold an exact 0.0 from
// cancellation (harmless — consumers skip zeros).
struct SparseVec {
  std::vector<double> vals;
  std::vector<int> list;
  std::vector<char> in_list;

  void Resize(int m) {
    vals.assign(m, 0.0);
    in_list.assign(m, 0);
    list.clear();
  }
  void Clear() {
    for (const int i : list) {
      vals[i] = 0.0;
      in_list[i] = 0;
    }
    list.clear();
  }
  void Set(int i, double v) {
    if (!in_list[i]) {
      in_list[i] = 1;
      list.push_back(i);
    }
    vals[i] = v;
  }
  // Deterministic consumption order (and the dense engine's ascending-row
  // scan order) for the pivot search and ratio test.
  void SortIndices() { std::sort(list.begin(), list.end()); }
};

// Product form of the inverse: B^{-1} = E_k^{-1} ... E_1^{-1}, each eta
// recording the column w = B_prev^{-1} a_j that entered at `pivot_row`.
// Nonzeros are packed into flat arrays so FTRAN/BTRAN stream linearly.
//
// An identity eta (unit pivot, no off-pivot entries) is an exact no-op in
// FTRAN and BTRAN (t * 1.0 == t), so it is counted but not stored: the
// slack and artificial columns that make up most of a planner basis then
// cost nothing in later FTRAN, BTRAN and refactor passes. entries() still
// counts every logical eta, which keeps the early-refactor trigger on the
// same pivot it would fire at if identities were stored.
class EtaFile {
 public:
  void Clear() {
    etas_.clear();
    nz_rows_.clear();
    nz_vals_.clear();
    logical_etas_ = 0;
  }
  size_t entries() const { return nz_rows_.size() + logical_etas_; }

  // Records w (sparse form, indices sorted) as the next eta. Returns the
  // nonzeros stored: the pivot plus the off-pivot entries, 0 for an
  // identity eta.
  size_t Append(const SparseVec& w, int pivot_row) {
    const size_t begin = nz_rows_.size();
    for (const int i : w.list) {
      if (i != pivot_row && w.vals[i] != 0.0) {
        nz_rows_.push_back(i);
        nz_vals_.push_back(w.vals[i]);
      }
    }
    return Close(pivot_row, w.vals[pivot_row], begin);
  }

  // Records the eta of a column whose only nonzero is `pivot` at
  // `pivot_row`; same result as Append on that column.
  size_t AppendSingleton(int pivot_row, double pivot) {
    return Close(pivot_row, pivot, nz_rows_.size());
  }

  // v <- B^{-1} v, dense carrier: apply eta inverses oldest-first.
  void Ftran(std::vector<double>* vp) const {
    std::vector<double>& v = *vp;
    for (const Eta& e : etas_) {
      const double t = v[e.pivot_row];
      if (t == 0.0) continue;
      const double s = t * e.inv_pivot;
      v[e.pivot_row] = s;
      for (int p = e.begin; p < e.end; ++p) v[nz_rows_[p]] -= nz_vals_[p] * s;
    }
  }

  // v <- B^{-1} v, sparse carrier: work scales with the fill-in produced,
  // not with m.
  void FtranSparse(SparseVec* v) const {
    for (const Eta& e : etas_) {
      const double t = v->vals[e.pivot_row];
      if (t == 0.0) continue;
      const double s = t * e.inv_pivot;
      v->vals[e.pivot_row] = s;
      for (int p = e.begin; p < e.end; ++p) {
        const int r = nz_rows_[p];
        if (!v->in_list[r]) {
          v->in_list[r] = 1;
          v->list.push_back(r);
        }
        v->vals[r] -= nz_vals_[p] * s;
      }
    }
  }

  // v <- B^{-T} v: apply transposed eta inverses newest-first.
  void Btran(std::vector<double>* vp) const {
    std::vector<double>& v = *vp;
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double acc = v[it->pivot_row];
      for (int p = it->begin; p < it->end; ++p) {
        acc -= nz_vals_[p] * v[nz_rows_[p]];
      }
      v[it->pivot_row] = acc * it->inv_pivot;
    }
  }

 private:
  struct Eta {
    int pivot_row;
    double inv_pivot;
    int begin, end;  // nonzeros excluding the pivot row
  };

  // Finishes the eta whose off-pivot entries start at `begin`.
  size_t Close(int pivot_row, double pivot, size_t begin) {
    ++logical_etas_;
    const double inv_pivot = 1.0 / pivot;
    const size_t end = nz_rows_.size();
    if (inv_pivot == 1.0 && end == begin) return 0;
    etas_.push_back({pivot_row, inv_pivot, static_cast<int>(begin),
                     static_cast<int>(end)});
    return 1 + end - begin;
  }

  std::vector<Eta> etas_;
  std::vector<int> nz_rows_;
  std::vector<double> nz_vals_;
  size_t logical_etas_ = 0;
};

// Equality-form working state; the sparse counterpart of the dense Tableau.
struct Engine {
  const SimplexOptions& opts;
  int m = 0;
  int nstruct = 0;
  int ncols = 0;
  SparseColumns A;  // [structural | slacks | artificials]
  std::vector<double> lo, up, cost, rhs, xb;
  std::vector<int> basis;  // m: column basic in each row
  std::vector<VarStatus> status;
  EtaFile eta;
  int pivots_since_refactor = 0;
  int refactor_every = 64;
  size_t eta_entry_cap = 0;
  bool breakdown = false;
  SolveStats& stats;  // refactorizations and eta_nonzeros land here

  // The terms ObjectiveNow() sums: columns of nonzero active cost
  // (ascending), and a bitset of the rows whose basic column has nonzero
  // active cost, kept current on every basis change. A skipped term is
  // zero cost times a finite value (nonbasic columns rest at a finite
  // bound or 0), an exact +-0 that cannot change a running sum that starts
  // at +0, so the objective is bit-identical to a full sweep.
  std::vector<int> costed_cols;
  std::vector<uint64_t> costed_rows;

  SparseVec w;            // FTRAN scratch: B^{-1} a_j
  std::vector<double> y;  // BTRAN scratch: duals of the active cost

  Engine(const SimplexOptions& o, SolveStats* s) : opts(o), stats(*s) {}

  double NonbasicValue(int j) const {
    switch (status[j]) {
      case VarStatus::kAtLower: return lo[j];
      case VarStatus::kAtUpper: return up[j];
      case VarStatus::kFreeAtZero: return 0.0;
      case VarStatus::kBasic: break;
    }
    return 0.0;
  }

  // Installs the active cost vector; the basis must already be set.
  void SetCost(std::vector<double> c) {
    cost = std::move(c);
    costed_cols.clear();
    for (int j = 0; j < ncols; ++j) {
      if (cost[j] != 0.0) costed_cols.push_back(j);
    }
    costed_rows.assign((m + 63) / 64, 0);
    for (int i = 0; i < m; ++i) MarkRow(i);
  }

  // Re-derives row i's bit after basis[i] changed.
  void MarkRow(int i) {
    const uint64_t bit = uint64_t{1} << (i & 63);
    if (cost[basis[i]] != 0.0) {
      costed_rows[i >> 6] |= bit;
    } else {
      costed_rows[i >> 6] &= ~bit;
    }
  }

  double ObjectiveNow() const {
    double v = 0.0;
    for (const int j : costed_cols) {
      if (status[j] != VarStatus::kBasic) v += cost[j] * NonbasicValue(j);
    }
    for (size_t word = 0; word < costed_rows.size(); ++word) {
      for (uint64_t bits = costed_rows[word]; bits != 0; bits &= bits - 1) {
        const int i = static_cast<int>(word * 64) + std::countr_zero(bits);
        v += cost[basis[i]] * xb[i];
      }
    }
    return v;
  }

  // w <- B^{-1} a_j through the eta file, sparse end to end.
  void ComputeColumn(int j) {
    w.Clear();
    for (int p = A.start[j]; p < A.start[j + 1]; ++p) {
      w.Set(A.row_idx[p], A.value[p]);
    }
    eta.FtranSparse(&w);
    w.SortIndices();
  }

  // Rebuilds the eta file from the current basis columns, re-assigning each
  // basic column to the unclaimed row where it pivots largest. Returns
  // false when the basis matrix is singular.
  // A singleton column (every slack and artificial) whose row is still
  // unclaimed skips FTRAN: no eta built so far pivots on that row, so FTRAN
  // would return the column untouched and that row is its only candidate.
  // A unit column there adds an identity eta, which is not stored, so a
  // refactor costs O(m) plus FTRAN of the structural (and displaced
  // singleton) columns through each other's etas.
  bool Refactor() {
    eta.Clear();
    pivots_since_refactor = 0;
    ++stats.refactorizations;
    const std::vector<int> order = basis;
    std::vector<char> row_used(m, 0);
    for (int p = 0; p < m; ++p) {
      const int j = order[p];
      int prow = -1;
      const int first = A.start[j];
      if (A.start[j + 1] - first == 1 && !row_used[A.row_idx[first]]) {
        if (std::abs(A.value[first]) > opts.pivot_tol) {
          prow = A.row_idx[first];
          stats.eta_nonzeros += eta.AppendSingleton(prow, A.value[first]);
        }
      } else {
        ComputeColumn(j);
        double best = opts.pivot_tol;
        for (const int i : w.list) {
          if (row_used[i]) continue;
          const double a = std::abs(w.vals[i]);
          if (a > best) {
            best = a;
            prow = i;
          }
        }
        if (prow >= 0) stats.eta_nonzeros += eta.Append(w, prow);
      }
      if (prow < 0) return false;
      row_used[prow] = 1;
      basis[prow] = j;
      MarkRow(prow);
    }
    return true;
  }

  // xb = B^{-1} (b - N x_N), evaluated through the (fresh) factorization.
  void RecomputeXb() {
    std::vector<double> v = rhs;
    for (int j = 0; j < ncols; ++j) {
      if (status[j] == VarStatus::kBasic) continue;
      const double rest = NonbasicValue(j);
      if (rest == 0.0) continue;
      for (int p = A.start[j]; p < A.start[j + 1]; ++p) {
        v[A.row_idx[p]] -= A.value[p] * rest;
      }
    }
    eta.Ftran(&v);
    xb = std::move(v);
  }

  // Runs simplex iterations for the active cost until
  // optimal/unbounded/limit; sets `breakdown` (and returns early) when a
  // refactorization goes singular. Pricing, ratio test, and the
  // stall->Bland anti-cycling ladder replicate the dense Iterate().
  SolveStatus Iterate(int max_iters, int* iterations, int* blands_activations) {
    bool bland = false;
    int stall = 0;
    double last_obj = ObjectiveNow();
    int it = 0;
    for (;;) {
      if (it >= max_iters) {
        *iterations = it;
        return SolveStatus::kIterationLimit;
      }

      // Duals of the active cost: y = B^{-T} c_B.
      for (int i = 0; i < m; ++i) y[i] = cost[basis[i]];
      eta.Btran(&y);

      // Pricing: Dantzig (largest violation) or Bland (lowest index), with
      // d_j = c_j - y . a_j computed per column from its CSC entries.
      int entering = -1;
      int direction = +1;
      double best_score = opts.optimality_tol;
      for (int j = 0; j < ncols; ++j) {
        if (status[j] == VarStatus::kBasic) continue;
        if (lo[j] == up[j]) continue;  // fixed
        double dj = cost[j];
        for (int p = A.start[j]; p < A.start[j + 1]; ++p) {
          dj -= y[A.row_idx[p]] * A.value[p];
        }
        int dir = 0;
        double score = 0.0;
        switch (status[j]) {
          case VarStatus::kAtLower:
            if (dj < -opts.optimality_tol) { dir = +1; score = -dj; }
            break;
          case VarStatus::kAtUpper:
            if (dj > opts.optimality_tol) { dir = -1; score = dj; }
            break;
          case VarStatus::kFreeAtZero:
            if (std::abs(dj) > opts.optimality_tol) {
              dir = dj < 0 ? +1 : -1;
              score = std::abs(dj);
            }
            break;
          case VarStatus::kBasic:
            break;
        }
        if (dir == 0) continue;
        if (bland) {
          entering = j;
          direction = dir;
          break;
        }
        if (score > best_score) {
          best_score = score;
          entering = j;
          direction = dir;
        }
      }
      if (entering < 0) {
        if (pivots_since_refactor > 0) {
          // Optimality was judged through an accumulated eta file; refresh
          // the factorization and confirm against exact data before
          // declaring it. (A post-refresh improving column resumes
          // pivoting, still bounded by max_iters.)
          if (!Refactor()) {
            breakdown = true;
            *iterations = it;
            return SolveStatus::kIterationLimit;
          }
          RecomputeXb();
          continue;
        }
        *iterations = it;
        return SolveStatus::kOptimal;
      }

      // w = B^{-1} a_j: the entering column in the current basis frame —
      // exactly the dense tableau's column j. Sorted indices keep the ratio
      // test's tie-breaking scan order identical to the dense ascending-row
      // sweep.
      ComputeColumn(entering);

      // Bounded-variable ratio test (dense RatioTest, reading w).
      const double own_range = up[entering] - lo[entering];
      double step = own_range;
      int leaving_row = -1;
      bool leaving_to_upper = false;
      const double kTieTol = 1e-9;
      double best_pivot_mag = 0.0;
      int best_basis_col = std::numeric_limits<int>::max();
      for (const int i : w.list) {
        const double wij = w.vals[i];
        if (std::abs(wij) < opts.pivot_tol) continue;
        const double delta = direction * wij;
        const int b = basis[i];
        double limit;
        bool to_upper;
        if (delta > 0) {
          if (lo[b] == -kInfinity) continue;
          limit = (xb[i] - lo[b]) / delta;
          to_upper = false;
        } else {
          if (up[b] == kInfinity) continue;
          limit = (up[b] - xb[i]) / (-delta);
          to_upper = true;
        }
        if (limit < 0) limit = 0;  // degeneracy / roundoff
        if (limit < step - kTieTol) {
          step = limit;
          leaving_row = i;
          leaving_to_upper = to_upper;
          best_pivot_mag = std::abs(wij);
          best_basis_col = b;
        } else if (limit <= step + kTieTol && leaving_row >= 0) {
          if (bland ? (b < best_basis_col)
                    : (std::abs(wij) > best_pivot_mag)) {
            step = std::min(step, limit);
            leaving_row = i;
            leaving_to_upper = to_upper;
            best_pivot_mag = std::abs(wij);
            best_basis_col = b;
          }
        }
      }
      if (std::isinf(step)) {
        *iterations = it;
        return SolveStatus::kUnbounded;
      }

      // Apply the step (dense ApplyStep): bound flip, or basis exchange
      // recorded as one more eta.
      if (step != 0.0) {
        for (const int i : w.list) {
          if (w.vals[i] != 0.0) xb[i] -= direction * step * w.vals[i];
        }
      }
      if (leaving_row < 0) {
        status[entering] =
            (direction > 0) ? VarStatus::kAtUpper : VarStatus::kAtLower;
      } else {
        const int r = leaving_row;
        const int leaving = basis[r];
        const double entering_value =
            NonbasicValue(entering) + direction * step;
        status[leaving] =
            leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
        basis[r] = entering;
        MarkRow(r);
        status[entering] = VarStatus::kBasic;
        xb[r] = entering_value;
        stats.eta_nonzeros += eta.Append(w, r);
        if (++pivots_since_refactor >= refactor_every ||
            eta.entries() > eta_entry_cap) {
          if (!Refactor()) {
            breakdown = true;
            *iterations = it + 1;
            return SolveStatus::kIterationLimit;
          }
          RecomputeXb();
        }
      }
      ++it;

      const double obj = ObjectiveNow();
      if (obj < last_obj - 1e-12) {
        stall = 0;
        bland = false;
        last_obj = obj;
      } else if (++stall > opts.stall_threshold) {
        if (!bland) ++*blands_activations;
        bland = true;  // anti-cycling fallback until progress resumes
      }
    }
  }
};

// Full two-phase revised solve. Returns false on numerical breakdown
// (singular refactorization) — *sol is then unusable and the caller takes
// the dense oracle instead.
bool RevisedAttempt(const Model& model, const SimplexOptions& opts,
                    Solution* sol) {
  const int nstruct = model.num_variables();
  const int m = model.num_rows();
  const bool maximize = model.sense() == Sense::kMaximize;

  Engine eng(opts, &sol->stats);
  eng.m = m;
  eng.nstruct = nstruct;
  eng.A = BuildEqualityColumns(model, {});
  eng.w.Resize(m);
  eng.y.assign(m, 0.0);
  eng.refactor_every = std::max(1, opts.refactor_interval);
  eng.eta_entry_cap =
      std::max<size_t>(size_t{1} << 20, 256 * static_cast<size_t>(m));

  eng.rhs.resize(m);
  for (int i = 0; i < m; ++i) eng.rhs[i] = model.row(i).rhs;

  // Bounds, costs, and initial resting statuses for [structural | slack] —
  // byte-for-byte the dense assembly rules.
  eng.lo.resize(nstruct + m);
  eng.up.resize(nstruct + m);
  eng.cost.assign(nstruct + m, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    eng.lo[j] = model.variable(j).lower;
    eng.up[j] = model.variable(j).upper;
    eng.cost[j] = maximize ? -model.variable(j).objective
                           : model.variable(j).objective;
  }
  for (int i = 0; i < m; ++i) {
    const int sj = nstruct + i;
    switch (model.row(i).type) {
      case RowType::kLessEqual:    eng.lo[sj] = 0.0;        eng.up[sj] = kInfinity; break;
      case RowType::kGreaterEqual: eng.lo[sj] = -kInfinity; eng.up[sj] = 0.0;       break;
      case RowType::kEqual:        eng.lo[sj] = 0.0;        eng.up[sj] = 0.0;       break;
    }
  }
  eng.status.resize(nstruct + m);
  for (int j = 0; j < nstruct + m; ++j) {
    eng.status[j] = InitialRestStatus(eng.lo[j], eng.up[j]);
  }

  // Per-row structural resting sums. Scattering CSC columns in ascending j
  // adds into each row accumulator in the dense assembler's own order, so
  // the artificial decisions below match it bit for bit.
  std::vector<double> sum(m, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    const double rest = eng.NonbasicValue(j);
    if (rest == 0.0) continue;
    for (int p = eng.A.start[j]; p < eng.A.start[j + 1]; ++p) {
      sum[eng.A.row_idx[p]] += eng.A.value[p] * rest;
    }
  }

  // Rows whose slack can absorb the residual start with the slack basic;
  // the rest get a phase-1 artificial (+1 unit column, cost by sign).
  std::vector<double> slack_basic_value(m, 0.0);
  std::vector<char> row_has_artificial(m, 0);
  std::vector<int> artificial_rows;
  for (int i = 0; i < m; ++i) {
    const int sj = nstruct + i;
    const double sval = eng.rhs[i] - sum[i];
    if (sval >= eng.lo[sj] - 1e-12 && sval <= eng.up[sj] + 1e-12) {
      slack_basic_value[i] = sval;
    } else {
      row_has_artificial[i] = 1;
      artificial_rows.push_back(i);
    }
  }
  const int nart = static_cast<int>(artificial_rows.size());
  const int ncols = nstruct + m + nart;
  eng.ncols = ncols;
  for (int r : artificial_rows) {
    eng.A.row_idx.push_back(r);
    eng.A.value.push_back(1.0);
    eng.A.start.push_back(static_cast<int>(eng.A.row_idx.size()));
  }
  eng.lo.resize(ncols, 0.0);
  eng.up.resize(ncols, 0.0);
  eng.cost.resize(ncols, 0.0);
  eng.status.resize(ncols, VarStatus::kAtLower);

  std::vector<double> phase1_cost(ncols, 0.0);
  eng.basis.resize(m);
  eng.xb.resize(m);
  {
    int art = nstruct + m;
    for (int i = 0; i < m; ++i) {
      const int sj = nstruct + i;
      if (!row_has_artificial[i]) {
        eng.basis[i] = sj;
        eng.status[sj] = VarStatus::kBasic;
        eng.xb[i] = slack_basic_value[i];
        continue;
      }
      const double srest = eng.NonbasicValue(sj);
      const double resid = eng.rhs[i] - sum[i] - srest;
      if (resid >= 0) {
        eng.lo[art] = 0.0;
        eng.up[art] = kInfinity;
        phase1_cost[art] = 1.0;
      } else {
        eng.lo[art] = -kInfinity;
        eng.up[art] = 0.0;
        phase1_cost[art] = -1.0;
      }
      eng.basis[i] = art;
      eng.status[art] = VarStatus::kBasic;
      eng.xb[i] = resid;
      ++art;
    }
  }

  sol->stats.rows = m;
  sol->stats.columns = nstruct;
  sol->stats.artificials = nart;
  const int default_iters = 50 * (m + ncols) + 1000;
  const int max_iters =
      opts.max_iterations > 0 ? opts.max_iterations : default_iters;

  // ---- Phase 1 (only when artificials exist). ----
  std::vector<double> real_cost = std::move(eng.cost);
  if (nart > 0) {
    eng.SetCost(std::move(phase1_cost));
    const SolveStatus st = eng.Iterate(max_iters,
                                       &sol->stats.phase1_iterations,
                                       &sol->stats.blands_activations);
    if (eng.breakdown) return false;
    const double inf_obj = eng.ObjectiveNow();
    if (st == SolveStatus::kIterationLimit) {
      sol->status = SolveStatus::kIterationLimit;
      return true;
    }
    if (inf_obj > opts.feasibility_tol) {
      sol->status = SolveStatus::kInfeasible;
      return true;
    }
    // Pin artificials to zero so they can never re-enter.
    for (int j = nstruct + m; j < ncols; ++j) {
      eng.lo[j] = 0.0;
      eng.up[j] = 0.0;
    }
  }
  eng.SetCost(std::move(real_cost));

  // ---- Phase 2. ----
  const SolveStatus st = eng.Iterate(max_iters,
                                     &sol->stats.phase2_iterations,
                                     &sol->stats.blands_activations);
  if (eng.breakdown) return false;
  sol->status = st;
  if (st != SolveStatus::kOptimal) return true;

  // ---- Extraction (dense ExtractOptimal, with duals from BTRAN). The
  // optimality exit guarantees a fresh factorization, so y is exact. ----
  sol->values.assign(nstruct, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    if (eng.status[j] != VarStatus::kBasic) {
      sol->values[j] = eng.NonbasicValue(j);
    }
  }
  for (int i = 0; i < m; ++i) {
    if (eng.basis[i] < nstruct) sol->values[eng.basis[i]] = eng.xb[i];
  }
  sol->objective = model.ObjectiveValue(sol->values);

  for (int i = 0; i < m; ++i) eng.y[i] = eng.cost[eng.basis[i]];
  eng.eta.Btran(&eng.y);
  sol->row_duals.resize(m);
  for (int i = 0; i < m; ++i) {
    // The internal dual of row i is y_i (the slack column is e_i with zero
    // cost, so d[slack_i] = -y_i — the dense convention).
    sol->row_duals[i] = maximize ? -eng.y[i] : eng.y[i];
  }
  sol->reduced_costs.assign(nstruct, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    if (eng.status[j] == VarStatus::kBasic) continue;
    double dj = eng.cost[j];
    for (int p = eng.A.start[j]; p < eng.A.start[j + 1]; ++p) {
      dj -= eng.y[eng.A.row_idx[p]] * eng.A.value[p];
    }
    sol->reduced_costs[j] = maximize ? -dj : dj;
  }
  sol->primal_residual = internal::ComputePrimalResidual(model, sol->values);
  return true;
}

}  // namespace

Result<Solution> SimplexSolver::SolveRevised(const Model& model,
                                             bool cross_check) const {
#ifdef PROSPECTOR_LP_CROSSCHECK
  cross_check = true;
#endif
  PROSPECTOR_SPAN("lp.solve_revised");
  PROSPECTOR_RETURN_IF_ERROR(model.Validate());
  PROSPECTOR_RETURN_IF_ERROR(
      internal::CheckTableauBudget(model, options_.max_tableau_bytes));

  Solution sol;
  if (!RevisedAttempt(model, options_, &sol)) {
    // Numerical breakdown (singular refactorization); the dense oracle is
    // always available for any model the budget guard accepted.
    PROSPECTOR_COUNTER_ADD("lp.revised_fallbacks", 1);
    return SolveDense(model);
  }
  PROSPECTOR_COUNTER_ADD("lp.revised_solves", 1);
  internal::RecordSolveMetrics(sol);
  if (!cross_check) return sol;

  auto dense = SolveDense(model);
  if (!dense.ok()) return dense;
  const Solution& c = dense.value();
  const double scale =
      std::max({1.0, std::abs(c.objective), std::abs(sol.objective)});
  const bool status_match = c.status == sol.status;
  const bool objective_match =
      sol.status != SolveStatus::kOptimal ||
      std::abs(c.objective - sol.objective) <= 1e-6 * scale;
  if (!status_match || !objective_match) {
    std::fprintf(stderr,
                 "lp: revised cross-check failed: revised %s obj=%.12g vs "
                 "dense %s obj=%.12g (rows=%d cols=%d)\n",
                 ToString(sol.status), sol.objective, ToString(c.status),
                 c.objective, model.num_rows(), model.num_variables());
    std::abort();
  }
  // Return the dense solution so every downstream decision is bit-identical
  // to a dense-only pipeline.
  return dense;
}

}  // namespace lp
}  // namespace prospector
