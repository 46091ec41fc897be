#include "wot/core/affiliation.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace wot {
namespace {

TEST(AffiliationTest, TinyCommunityHandComputed) {
  Dataset ds = testing::TinyCommunity();
  DenseMatrix a = ComputeAffiliationMatrix(CategoryIndex(ds));
  ASSERT_EQ(a.rows(), 4u);
  ASSERT_EQ(a.cols(), 2u);
  // u0 writes one review in each category, rates nothing:
  // write term 1/1 in both, rate term 0 -> (0 + 1)/2 = 0.5.
  EXPECT_NEAR(a.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(a.At(0, 1), 0.5, 1e-12);
  // u1 writes only in movies.
  EXPECT_NEAR(a.At(1, 0), 0.5, 1e-12);
  EXPECT_NEAR(a.At(1, 1), 0.0, 1e-12);
  // u2 rates 2 movies / 1 book, writes nothing:
  // movies (2/2)/2 = 0.5; books (1/2)/2 = 0.25.
  EXPECT_NEAR(a.At(2, 0), 0.5, 1e-12);
  EXPECT_NEAR(a.At(2, 1), 0.25, 1e-12);
  // u3 rates once in movies.
  EXPECT_NEAR(a.At(3, 0), 0.5, 1e-12);
  EXPECT_NEAR(a.At(3, 1), 0.0, 1e-12);
}

TEST(AffiliationTest, InactiveUserHasZeroRow) {
  DatasetBuilder builder;
  builder.AddCategory("c");
  builder.AddUser("ghost");
  Dataset ds = builder.Build().ValueOrDie();
  DenseMatrix a = ComputeAffiliationMatrix(CategoryIndex(ds));
  EXPECT_DOUBLE_EQ(a.At(0, 0), 0.0);
}

TEST(AffiliationTest, PureWriterGetsFullWriteTerm) {
  // A user who both writes and rates in their top category hits 1.0.
  DatasetBuilder builder;
  CategoryId c0 = builder.AddCategory("c0");
  CategoryId c1 = builder.AddCategory("c1");
  UserId writer = builder.AddUser("w");
  UserId other = builder.AddUser("o");
  ObjectId obj0 = builder.AddObject(c0, "x").ValueOrDie();
  ObjectId obj1 = builder.AddObject(c1, "y").ValueOrDie();
  ReviewId their0 = builder.AddReview(other, obj0).ValueOrDie();
  ASSERT_TRUE(builder.AddReview(writer, obj1).ok());
  // writer: writes in c1 only, rates in c0 only.
  WOT_CHECK_OK(builder.AddRating(writer, their0, 0.8));
  Dataset ds = builder.Build().ValueOrDie();
  DenseMatrix a = ComputeAffiliationMatrix(CategoryIndex(ds));
  // writer (id 0): c0 rate-term 1, write-term 0 -> 0.5;
  //                c1 rate-term 0, write-term 1 -> 0.5.
  EXPECT_NEAR(a.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(a.At(0, 1), 0.5, 1e-12);
  (void)c0;
}

TEST(AffiliationTest, MaxNormalizationIsPerUser) {
  // Heavy user A (100 ratings in c0) and light user B (1 rating in c0)
  // both get the same affiliation: eq. 4 captures *relative* attention.
  DatasetBuilder builder;
  CategoryId c0 = builder.AddCategory("c0");
  builder.AddCategory("c1");
  UserId writer = builder.AddUser("w");
  UserId heavy = builder.AddUser("heavy");
  UserId light = builder.AddUser("light");
  for (int i = 0; i < 100; ++i) {
    ObjectId obj =
        builder.AddObject(c0, "o" + std::to_string(i)).ValueOrDie();
    ReviewId review = builder.AddReview(writer, obj).ValueOrDie();
    WOT_CHECK_OK(builder.AddRating(heavy, review, 0.6));
    if (i == 0) {
      WOT_CHECK_OK(builder.AddRating(light, review, 0.6));
    }
  }
  Dataset ds = builder.Build().ValueOrDie();
  DenseMatrix a = ComputeAffiliationMatrix(CategoryIndex(ds));
  EXPECT_NEAR(a.At(1, 0), a.At(2, 0), 1e-12);
  EXPECT_NEAR(a.At(1, 0), 0.5, 1e-12);
}

TEST(AffiliationTest, ValuesAlwaysInUnitInterval) {
  Dataset ds = testing::TinyCommunity();
  DenseMatrix a = ComputeAffiliationMatrix(CategoryIndex(ds));
  EXPECT_TRUE(a.AllInRange(0.0, 1.0));
}

TEST(AffiliationTest, TopCategoryOfBalancedUserScoresHalfOrMore) {
  // For any active user the category holding both their max write count
  // and max rate count scores exactly (1 + 1)/2 = 1 when those maxima
  // coincide, at least 0.5 otherwise.
  Dataset ds = testing::TinyCommunity();
  DenseMatrix a = ComputeAffiliationMatrix(CategoryIndex(ds));
  // u2's top category is movies: affiliation 0.5 (rates only).
  EXPECT_GE(a.RowMax(2), 0.5 - 1e-12);
}

}  // namespace
}  // namespace wot
