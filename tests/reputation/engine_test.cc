#include "wot/reputation/engine.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace wot {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : dataset_(testing::TinyCommunity()), index_(dataset_) {}
  Dataset dataset_;
  CategoryIndex index_;
};

TEST_F(EngineTest, MatrixShapes) {
  auto result =
      ComputeReputations(dataset_, index_, ReputationOptions{})
          .ValueOrDie();
  EXPECT_EQ(result.expertise.rows(), 4u);
  EXPECT_EQ(result.expertise.cols(), 2u);
  EXPECT_EQ(result.rater_reputation.rows(), 4u);
  EXPECT_EQ(result.rater_reputation.cols(), 2u);
  EXPECT_EQ(result.review_quality.size(), 3u);
  EXPECT_EQ(result.convergence.size(), 2u);
}

TEST_F(EngineTest, HandComputableEntries) {
  auto result =
      ComputeReputations(dataset_, index_, ReputationOptions{})
          .ValueOrDie();
  // u1's only movies review has one rating (0.2): E = 0.2 * (1/2) = 0.1.
  EXPECT_NEAR(result.expertise.At(1, 0), 0.1, 1e-12);
  // u0's books review: single rating 0.6 -> E = 0.6 * 0.5 = 0.3.
  EXPECT_NEAR(result.expertise.At(0, 1), 0.3, 1e-12);
  // u2's books rater reputation: single rating, exact -> 1 * (1/2).
  EXPECT_NEAR(result.rater_reputation.At(2, 1), 0.5, 1e-12);
  // r1 (books) quality is exactly its single rating.
  EXPECT_NEAR(result.review_quality[1], 0.6, 1e-12);
}

TEST_F(EngineTest, InactiveEntriesAreZero) {
  auto result =
      ComputeReputations(dataset_, index_, ReputationOptions{})
          .ValueOrDie();
  // u2 and u3 write nothing.
  EXPECT_DOUBLE_EQ(result.expertise.At(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(result.expertise.At(3, 1), 0.0);
  // u0 and u1 rate nothing.
  EXPECT_DOUBLE_EQ(result.rater_reputation.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(result.rater_reputation.At(1, 0), 0.0);
  // u1 has no books activity.
  EXPECT_DOUBLE_EQ(result.expertise.At(1, 1), 0.0);
  // u3 rated nothing in books.
  EXPECT_DOUBLE_EQ(result.rater_reputation.At(3, 1), 0.0);
}

TEST_F(EngineTest, AllEntriesInUnitInterval) {
  auto result =
      ComputeReputations(dataset_, index_, ReputationOptions{})
          .ValueOrDie();
  EXPECT_TRUE(result.expertise.AllInRange(0.0, 1.0));
  EXPECT_TRUE(result.rater_reputation.AllInRange(0.0, 1.0));
  for (double q : result.review_quality) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
}

TEST_F(EngineTest, AllCategoriesConverge) {
  auto result =
      ComputeReputations(dataset_, index_, ReputationOptions{})
          .ValueOrDie();
  for (const auto& info : result.convergence) {
    EXPECT_TRUE(info.converged);
    EXPECT_GE(info.iterations, 1u);
  }
}

TEST_F(EngineTest, ThreadCountDoesNotChangeResults) {
  ReputationOptions serial;
  serial.num_threads = 1;
  ReputationOptions parallel;
  parallel.num_threads = 4;
  auto a = ComputeReputations(dataset_, index_, serial).ValueOrDie();
  auto b = ComputeReputations(dataset_, index_, parallel).ValueOrDie();
  EXPECT_DOUBLE_EQ(DenseMatrix::MaxAbsDiff(a.expertise, b.expertise), 0.0);
  EXPECT_DOUBLE_EQ(
      DenseMatrix::MaxAbsDiff(a.rater_reputation, b.rater_reputation), 0.0);
  EXPECT_EQ(a.review_quality, b.review_quality);
}

TEST_F(EngineTest, InvalidOptionsRejected) {
  ReputationOptions bad_tol;
  bad_tol.tolerance = 0.0;
  EXPECT_FALSE(ComputeReputations(dataset_, index_, bad_tol).ok());
  ReputationOptions bad_iters;
  bad_iters.max_iterations = 0;
  EXPECT_FALSE(ComputeReputations(dataset_, index_, bad_iters).ok());
}

TEST(EngineEmptyTest, EmptyDatasetProducesEmptyMatrices) {
  Dataset ds;  // no users, no categories
  CategoryIndex index(ds);
  auto result =
      ComputeReputations(ds, index, ReputationOptions{}).ValueOrDie();
  EXPECT_EQ(result.expertise.rows(), 0u);
  EXPECT_EQ(result.review_quality.size(), 0u);
}

}  // namespace
}  // namespace wot
