#include "wot/reputation/writer_reputation.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "wot/reputation/riggs.h"

namespace wot {
namespace {

CategoryView MakeView(const Dataset& ds, const CategoryIndex& index) {
  return CategoryView(ds, index, CategoryId(0));
}

TEST(WriterReputationTest, SingleReviewWriter) {
  Dataset ds = testing::SingleReviewCommunity();
  CategoryIndex index(ds);
  CategoryView view = MakeView(ds, index);
  RiggsResult riggs = RiggsFixedPoint(view, ReputationOptions{});
  auto reps = ComputeWriterReputations(view, riggs.review_quality,
                                       ReputationOptions{});
  ASSERT_EQ(reps.size(), 1u);
  // Quality 0.6, one review: 0.6 * (1 - 1/2) = 0.3.
  EXPECT_NEAR(reps[0], 0.3, 1e-12);
}

TEST(WriterReputationTest, AveragesQualitiesWithDiscount) {
  // Writer with two reviews of known single-rater qualities 0.6 and 1.0:
  // rep = mean(0.8) * (2/3).
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  UserId rater = builder.AddUser("r");
  ObjectId o1 = builder.AddObject(cat, "o1").ValueOrDie();
  ObjectId o2 = builder.AddObject(cat, "o2").ValueOrDie();
  ReviewId r1 = builder.AddReview(writer, o1).ValueOrDie();
  ReviewId r2 = builder.AddReview(writer, o2).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(rater, r1, 0.6));
  WOT_CHECK_OK(builder.AddRating(rater, r2, 1.0));
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view = MakeView(ds, index);
  RiggsResult riggs = RiggsFixedPoint(view, ReputationOptions{});
  auto reps = ComputeWriterReputations(view, riggs.review_quality,
                                       ReputationOptions{});
  EXPECT_NEAR(reps[0], 0.8 * (2.0 / 3.0), 1e-12);
}

TEST(WriterReputationTest, DiscountOffIsPlainMean) {
  Dataset ds = testing::SingleReviewCommunity();
  CategoryIndex index(ds);
  CategoryView view = MakeView(ds, index);
  RiggsResult riggs = RiggsFixedPoint(view, ReputationOptions{});
  ReputationOptions no_discount;
  no_discount.use_experience_discount = false;
  auto reps =
      ComputeWriterReputations(view, riggs.review_quality, no_discount);
  EXPECT_NEAR(reps[0], 0.6, 1e-12);
}

TEST(WriterReputationTest, MoreReviewsOfEqualQualityRankHigher) {
  // Both writers produce quality-0.8 reviews; the one with 3 reviews
  // must outrank the one with 1 (discount 3/4 vs 1/2).
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId prolific = builder.AddUser("prolific");
  UserId newcomer = builder.AddUser("newcomer");
  UserId rater = builder.AddUser("rater");
  for (int i = 0; i < 3; ++i) {
    ObjectId o =
        builder.AddObject(cat, "p" + std::to_string(i)).ValueOrDie();
    ReviewId r = builder.AddReview(prolific, o).ValueOrDie();
    WOT_CHECK_OK(builder.AddRating(rater, r, 0.8));
  }
  ObjectId o = builder.AddObject(cat, "n0").ValueOrDie();
  ReviewId r = builder.AddReview(newcomer, o).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(rater, r, 0.8));
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view = MakeView(ds, index);
  RiggsResult riggs = RiggsFixedPoint(view, ReputationOptions{});
  auto reps = ComputeWriterReputations(view, riggs.review_quality,
                                       ReputationOptions{});
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_NEAR(reps[0], 0.8 * 0.75, 1e-12);  // prolific
  EXPECT_NEAR(reps[1], 0.8 * 0.5, 1e-12);   // newcomer
  EXPECT_GT(reps[0], reps[1]);
}

TEST(WriterReputationTest, UnratedReviewsDragTheAverageDown) {
  // One rated (0.8) + one unrated (quality 0) review:
  // rep = mean(0.4) * (2/3) — the paper's formula counts every written
  // review in n_w.
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  UserId rater = builder.AddUser("r");
  ObjectId o1 = builder.AddObject(cat, "o1").ValueOrDie();
  ObjectId o2 = builder.AddObject(cat, "o2").ValueOrDie();
  ReviewId rated = builder.AddReview(writer, o1).ValueOrDie();
  ASSERT_TRUE(builder.AddReview(writer, o2).ok());  // never rated
  WOT_CHECK_OK(builder.AddRating(rater, rated, 0.8));
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view = MakeView(ds, index);
  RiggsResult riggs = RiggsFixedPoint(view, ReputationOptions{});
  auto reps = ComputeWriterReputations(view, riggs.review_quality,
                                       ReputationOptions{});
  EXPECT_NEAR(reps[0], 0.4 * (2.0 / 3.0), 1e-12);
}

TEST(WriterReputationTest, BoundsHold) {
  Dataset ds = testing::TinyCommunity();
  CategoryIndex index(ds);
  CategoryView view = MakeView(ds, index);
  RiggsResult riggs = RiggsFixedPoint(view, ReputationOptions{});
  auto reps = ComputeWriterReputations(view, riggs.review_quality,
                                       ReputationOptions{});
  for (double rep : reps) {
    EXPECT_GE(rep, 0.0);
    EXPECT_LE(rep, 1.0);
  }
}

}  // namespace
}  // namespace wot
