// In-memory description of a (mixed-integer) linear program:
//
//   minimize    c' x
//   subject to  row_lb <= A x <= row_ub     (ranged constraints)
//               lb <= x <= ub               (variable bounds)
//               x_j integral for j in integer set
//
// The struct is solver-agnostic; DualSimplex and MilpSolver consume it.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/sparse_matrix.h"

namespace checkmate::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct LinearProgram {
  std::vector<double> obj;
  std::vector<double> lb, ub;
  std::vector<bool> is_integer;

  // Constraint rows as triplets plus per-row activity bounds.
  std::vector<Triplet> entries;
  std::vector<double> row_lb, row_ub;

  // Rows participating in DualSimplex Curtis-Reid scaling: rows >= this
  // prefix (cut rows branch & cut appends; rows are never removed) keep
  // unit row-scale so every engine constructed over this LP -- before or
  // after any append -- derives identical scale factors. Negative means
  // "all rows" (the default for LPs that never grow).
  int scaling_rows = -1;

  int num_vars() const { return static_cast<int>(obj.size()); }
  int num_rows() const { return static_cast<int>(row_lb.size()); }

  // Adds a variable, returning its index.
  int add_var(double lower, double upper, double cost, bool integer = false) {
    if (lower > upper) throw std::invalid_argument("add_var: lower > upper");
    obj.push_back(cost);
    lb.push_back(lower);
    ub.push_back(upper);
    is_integer.push_back(integer);
    return num_vars() - 1;
  }

  int add_binary(double cost) {
    return add_var(0.0, 1.0, cost, /*integer=*/true);
  }

  // Adds the ranged constraint lower <= sum(terms) <= upper. Use kInf / -kInf
  // for one-sided rows and lower == upper for equalities.
  int add_constraint(std::span<const std::pair<int, double>> terms,
                     double lower, double upper) {
    if (lower > upper)
      throw std::invalid_argument("add_constraint: lower > upper");
    const int r = num_rows();
    for (const auto& [var, coef] : terms) {
      if (var < 0 || var >= num_vars())
        throw std::out_of_range("add_constraint: bad variable index");
      if (coef != 0.0) entries.push_back({r, var, coef});
    }
    row_lb.push_back(lower);
    row_ub.push_back(upper);
    return r;
  }

  int add_le(std::span<const std::pair<int, double>> terms, double rhs) {
    return add_constraint(terms, -kInf, rhs);
  }
  int add_ge(std::span<const std::pair<int, double>> terms, double rhs) {
    return add_constraint(terms, rhs, kInf);
  }
  int add_eq(std::span<const std::pair<int, double>> terms, double rhs) {
    return add_constraint(terms, rhs, rhs);
  }

  SparseMatrix matrix() const {
    return SparseMatrix(num_rows(), num_vars(), entries);
  }

  // Evaluates c'x.
  double objective_value(std::span<const double> x) const {
    double acc = 0.0;
    for (int j = 0; j < num_vars(); ++j) acc += obj[j] * x[j];
    return acc;
  }

  // Max constraint/bound violation of x (used by tests and the MILP solver
  // to accept candidate incumbents).
  double max_violation(std::span<const double> x) const {
    double viol = 0.0;
    for (int j = 0; j < num_vars(); ++j) {
      viol = std::max(viol, lb[j] - x[j]);
      viol = std::max(viol, x[j] - ub[j]);
    }
    std::vector<double> activity(num_rows(), 0.0);
    for (const Triplet& t : entries) activity[t.row] += t.value * x[t.col];
    for (int r = 0; r < num_rows(); ++r) {
      viol = std::max(viol, row_lb[r] - activity[r]);
      viol = std::max(viol, activity[r] - row_ub[r]);
    }
    return viol;
  }
};

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  // The dual objective provably crossed SimplexOptions::objective_limit:
  // the LP optimum is >= dual_bound >= limit. Branch & bound uses this to
  // abandon node re-solves the incumbent already prunes, without paying
  // for the remaining pivots to optimality.
  kObjectiveLimit,
  kNumericalError,
};

const char* to_string(LpStatus status);

struct LpResult {
  LpStatus status = LpStatus::kNumericalError;
  double objective = 0.0;
  // Sound lower bound on the LP optimum, valid whenever > -inf. Equals
  // `objective` on kOptimal; on kIterationLimit (iteration or wall-clock
  // truncation) it is the dual objective of the last dual-feasible basis,
  // corrected for the deterministic cost perturbation -- truncated
  // branch-and-bound node solves use it to tighten subtree bounds instead
  // of discarding the work. kInf on kInfeasible.
  double dual_bound = -kInf;
  std::vector<double> x;  // primal values, size num_vars()
  int iterations = 0;
};

}  // namespace checkmate::lp
