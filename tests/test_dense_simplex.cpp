#include "dense_simplex.h"

#include <gtest/gtest.h>

namespace checkmate::lp {
namespace {

TEST(DenseSimplex, TrivialBoundsOnly) {
  // min x, 1 <= x <= 5  => x = 1.
  LinearProgram lp;
  lp.add_var(1.0, 5.0, 1.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, 1e-8);
}

TEST(DenseSimplex, MaximizeViaNegation) {
  // max x + y s.t. x + y <= 4, 0 <= x,y <= 3  => obj 4.
  LinearProgram lp;
  int x = lp.add_var(0, 3, -1.0);
  int y = lp.add_var(0, 3, -1.0);
  lp.add_le(std::vector<std::pair<int, double>>{{x, 1.0}, {y, 1.0}}, 4.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -4.0, 1e-8);
}

TEST(DenseSimplex, ClassicTwoVariable) {
  // min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum at (2, 6) with objective -36.
  LinearProgram lp;
  int x = lp.add_var(0, kInf, -3.0);
  int y = lp.add_var(0, kInf, -5.0);
  lp.add_le(std::vector<std::pair<int, double>>{{x, 1.0}}, 4.0);
  lp.add_le(std::vector<std::pair<int, double>>{{y, 2.0}}, 12.0);
  lp.add_le(std::vector<std::pair<int, double>>{{x, 3.0}, {y, 2.0}}, 18.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -36.0, 1e-7);
  EXPECT_NEAR(res.x[0], 2.0, 1e-7);
  EXPECT_NEAR(res.x[1], 6.0, 1e-7);
}

TEST(DenseSimplex, EqualityConstraint) {
  // min x + 2y s.t. x + y == 3, x,y >= 0  => (3, 0), obj 3.
  LinearProgram lp;
  int x = lp.add_var(0, kInf, 1.0);
  int y = lp.add_var(0, kInf, 2.0);
  lp.add_eq(std::vector<std::pair<int, double>>{{x, 1.0}, {y, 1.0}}, 3.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 3.0, 1e-8);
}

TEST(DenseSimplex, InfeasibleDetected) {
  LinearProgram lp;
  int x = lp.add_var(0, 1, 1.0);
  lp.add_ge(std::vector<std::pair<int, double>>{{x, 1.0}}, 5.0);
  auto res = solve_dense_reference(lp);
  EXPECT_EQ(res.status, LpStatus::kInfeasible);
}

TEST(DenseSimplex, UnboundedDetected) {
  LinearProgram lp;
  lp.add_var(0, kInf, -1.0);
  auto res = solve_dense_reference(lp);
  EXPECT_EQ(res.status, LpStatus::kUnbounded);
}

TEST(DenseSimplex, FreeVariable) {
  // min x s.t. x >= -7 expressed through a constraint on a free var.
  LinearProgram lp;
  int x = lp.add_var(-kInf, kInf, 1.0);
  lp.add_ge(std::vector<std::pair<int, double>>{{x, 1.0}}, -7.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -7.0, 1e-8);
}

TEST(DenseSimplex, RangedRow) {
  // min x s.t. 2 <= x + y <= 5, y <= 1, x,y in [0,10] => x = 1, y = 1.
  LinearProgram lp;
  int x = lp.add_var(0, 10, 1.0);
  int y = lp.add_var(0, 1, 0.0);
  lp.add_constraint(std::vector<std::pair<int, double>>{{x, 1.0}, {y, 1.0}},
                    2.0, 5.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, 1e-8);
}

TEST(DenseSimplex, UpperBoundOnlyVariable) {
  // min -x with x <= 9 and x >= 0 via row: max is 9.
  LinearProgram lp;
  int x = lp.add_var(-kInf, 9.0, -1.0);
  lp.add_ge(std::vector<std::pair<int, double>>{{x, 1.0}}, 0.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -9.0, 1e-8);
}

TEST(DenseSimplex, DegenerateProblem) {
  // Multiple constraints intersecting at the optimum; Bland's rule must
  // terminate.
  LinearProgram lp;
  int x = lp.add_var(0, kInf, -1.0);
  int y = lp.add_var(0, kInf, -1.0);
  lp.add_le(std::vector<std::pair<int, double>>{{x, 1.0}, {y, 1.0}}, 2.0);
  lp.add_le(std::vector<std::pair<int, double>>{{x, 1.0}}, 2.0);
  lp.add_le(std::vector<std::pair<int, double>>{{y, 1.0}}, 2.0);
  lp.add_le(std::vector<std::pair<int, double>>{{x, 2.0}, {y, 1.0}}, 4.0);
  auto res = solve_dense_reference(lp);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -2.0, 1e-7);
}

}  // namespace
}  // namespace checkmate::lp
