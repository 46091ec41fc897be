#include "wot/reputation/riggs.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace wot {
namespace {

// SingleReviewCommunity: one review by u0, rated 1.0 by u1 and 0.2 by u2.
// Hand computation:
//   start rep = 1,1 -> quality = 0.6
//   both raters deviate 0.4 with n=1 -> rep = (1-0.4)*(1/2) = 0.3
//   equal weights -> quality stays 0.6 -> fixed point.
TEST(RiggsTest, SingleReviewHandComputedFixedPoint) {
  Dataset ds = testing::SingleReviewCommunity();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});

  ASSERT_EQ(result.review_quality.size(), 1u);
  EXPECT_NEAR(result.review_quality[0], 0.6, 1e-12);
  ASSERT_EQ(result.rater_reputation.size(), 2u);
  EXPECT_NEAR(result.rater_reputation[0], 0.3, 1e-12);
  EXPECT_NEAR(result.rater_reputation[1], 0.3, 1e-12);
  EXPECT_TRUE(result.convergence.converged);
}

TEST(RiggsTest, SingleRaterReviewQualityEqualsRating) {
  // A review with exactly one rater always converges to that rating: the
  // weighted average of one value is the value.
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  UserId rater = builder.AddUser("r");
  ObjectId obj = builder.AddObject(cat, "o").ValueOrDie();
  ReviewId review = builder.AddReview(writer, obj).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(rater, review, 0.8));
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  EXPECT_NEAR(result.review_quality[0], 0.8, 1e-12);
  // Rater hit the quality exactly: rep = 1 * (1/2).
  EXPECT_NEAR(result.rater_reputation[0], 0.5, 1e-12);
}

TEST(RiggsTest, UnratedReviewHasZeroQuality) {
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  ObjectId obj = builder.AddObject(cat, "o").ValueOrDie();
  ASSERT_TRUE(builder.AddReview(writer, obj).ok());
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  ASSERT_EQ(result.review_quality.size(), 1u);
  EXPECT_DOUBLE_EQ(result.review_quality[0], 0.0);
  EXPECT_TRUE(result.convergence.converged);
}

TEST(RiggsTest, EmptyCategoryConverges) {
  DatasetBuilder builder;
  builder.AddCategory("empty");
  builder.AddUser("u");
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  EXPECT_TRUE(result.review_quality.empty());
  EXPECT_TRUE(result.rater_reputation.empty());
  EXPECT_TRUE(result.convergence.converged);
}

TEST(RiggsTest, ExperienceDiscountRewardsVolume) {
  // Rater A rates 4 reviews as their only rater (deviation 0);
  // rater B rates 1 review as its only rater (deviation 0).
  // rep(A) = 4/5, rep(B) = 1/2: same accuracy, more experience wins.
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  UserId a = builder.AddUser("a");
  UserId b = builder.AddUser("b");
  for (int i = 0; i < 5; ++i) {
    ObjectId obj =
        builder.AddObject(cat, "o" + std::to_string(i)).ValueOrDie();
    ReviewId review = builder.AddReview(writer, obj).ValueOrDie();
    WOT_CHECK_OK(builder.AddRating(i < 4 ? a : b, review, 0.6));
  }
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  // Local rater ids are first-seen: a = 0, b = 1.
  EXPECT_NEAR(result.rater_reputation[0], 0.8, 1e-12);
  EXPECT_NEAR(result.rater_reputation[1], 0.5, 1e-12);
}

TEST(RiggsTest, DiscountOffGivesRawAccuracy) {
  Dataset ds = testing::SingleReviewCommunity();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  ReputationOptions options;
  options.use_experience_discount = false;
  RiggsResult result = RiggsFixedPoint(view, options);
  // Same 0.6 quality; raw rep = 1 - 0.4 = 0.6 without the n/(n+1) factor.
  EXPECT_NEAR(result.review_quality[0], 0.6, 1e-12);
  EXPECT_NEAR(result.rater_reputation[0], 0.6, 1e-12);
  EXPECT_NEAR(result.rater_reputation[1], 0.6, 1e-12);
}

TEST(RiggsTest, RaterWeightingOffIsPlainMean) {
  // Three raters, one review; without weighting the quality must be the
  // plain mean regardless of rater reliabilities.
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  UserId r1 = builder.AddUser("r1");
  UserId r2 = builder.AddUser("r2");
  UserId r3 = builder.AddUser("r3");
  ObjectId obj = builder.AddObject(cat, "o").ValueOrDie();
  ReviewId review = builder.AddReview(writer, obj).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(r1, review, 1.0));
  WOT_CHECK_OK(builder.AddRating(r2, review, 0.6));
  WOT_CHECK_OK(builder.AddRating(r3, review, 0.2));
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  ReputationOptions options;
  options.use_rater_weighting = false;
  RiggsResult result = RiggsFixedPoint(view, options);
  EXPECT_NEAR(result.review_quality[0], 0.6, 1e-12);
  EXPECT_TRUE(result.convergence.converged);
}

TEST(RiggsTest, ZeroWeightFallbackUsesPlainMean) {
  Dataset ds = testing::SingleReviewCommunity();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  std::vector<double> zero_reps(view.num_raters(), 0.0);
  std::vector<double> quality;
  ComputeReviewQualities(view, zero_reps, /*use_rater_weighting=*/true,
                         &quality);
  // All-zero weights must not divide by zero; plain mean of {1.0, 0.2}.
  EXPECT_NEAR(quality[0], 0.6, 1e-12);
}

TEST(RiggsTest, DeterministicAcrossRuns) {
  Dataset ds = testing::TinyCommunity();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult a = RiggsFixedPoint(view, ReputationOptions{});
  RiggsResult b = RiggsFixedPoint(view, ReputationOptions{});
  EXPECT_EQ(a.review_quality, b.review_quality);
  EXPECT_EQ(a.rater_reputation, b.rater_reputation);
  EXPECT_EQ(a.convergence.iterations, b.convergence.iterations);
}

TEST(RiggsTest, TinyCommunityMoviesQualities) {
  Dataset ds = testing::TinyCommunity();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  ASSERT_EQ(result.review_quality.size(), 2u);
  // r0 (rated 1.0 and 0.8) converges inside (0.8, 1.0); r2 has a single
  // rater so its quality is exactly the rating.
  EXPECT_GT(result.review_quality[0], 0.8);
  EXPECT_LT(result.review_quality[0], 1.0);
  EXPECT_NEAR(result.review_quality[1], 0.2, 1e-12);
  // u2 (consistent on two reviews) outranks u3 (one review, off by more).
  EXPECT_GT(result.rater_reputation[0], result.rater_reputation[1]);
  EXPECT_TRUE(result.convergence.converged);
}

TEST(RiggsTest, IterationCapReportsNotConverged) {
  Dataset ds = testing::TinyCommunity();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  ReputationOptions options;
  options.max_iterations = 1;
  options.tolerance = 1e-15;
  RiggsResult result = RiggsFixedPoint(view, options);
  EXPECT_FALSE(result.convergence.converged);
  EXPECT_EQ(result.convergence.iterations, 1u);
}

}  // namespace
}  // namespace wot
