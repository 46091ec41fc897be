#include "wot/community/indices.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace wot {
namespace {

class IndicesTest : public ::testing::Test {
 protected:
  IndicesTest() : dataset_(testing::TinyCommunity()), indices_(dataset_) {}
  Dataset dataset_;
  DatasetIndices indices_;
};

TEST_F(IndicesTest, RatingsOfReview) {
  // r0 was rated by u2 (1.0) and u3 (0.8).
  auto ratings = indices_.RatingsOfReview(ReviewId(0));
  ASSERT_EQ(ratings.size(), 2u);
  EXPECT_EQ(ratings[0].rater, UserId(2));
  EXPECT_DOUBLE_EQ(ratings[0].value, 1.0);
  EXPECT_EQ(ratings[1].rater, UserId(3));
  EXPECT_DOUBLE_EQ(ratings[1].value, 0.8);
  // r2 was rated once.
  EXPECT_EQ(indices_.RatingsOfReview(ReviewId(2)).size(), 1u);
}

TEST_F(IndicesTest, RatingsByUser) {
  auto by_u2 = indices_.RatingsByUser(UserId(2));
  ASSERT_EQ(by_u2.size(), 3u);
  EXPECT_EQ(by_u2[0].review, ReviewId(0));
  EXPECT_EQ(by_u2[1].review, ReviewId(1));
  EXPECT_EQ(by_u2[2].review, ReviewId(2));
  EXPECT_TRUE(indices_.RatingsByUser(UserId(0)).empty());
}

TEST_F(IndicesTest, ReviewsByUser) {
  auto by_u0 = indices_.ReviewsByUser(UserId(0));
  ASSERT_EQ(by_u0.size(), 2u);
  EXPECT_EQ(by_u0[0], ReviewId(0));
  EXPECT_EQ(by_u0[1], ReviewId(1));
  EXPECT_EQ(indices_.ReviewsByUser(UserId(1)).size(), 1u);
  EXPECT_TRUE(indices_.ReviewsByUser(UserId(3)).empty());
}

TEST_F(IndicesTest, ReviewsInCategory) {
  // movies: r0, r2; books: r1.
  auto movies = indices_.ReviewsInCategory(CategoryId(0));
  ASSERT_EQ(movies.size(), 2u);
  EXPECT_EQ(movies[0], ReviewId(0));
  EXPECT_EQ(movies[1], ReviewId(2));
  auto books = indices_.ReviewsInCategory(CategoryId(1));
  ASSERT_EQ(books.size(), 1u);
  EXPECT_EQ(books[0], ReviewId(1));
}

TEST_F(IndicesTest, Dimensions) {
  EXPECT_EQ(indices_.num_users(), 4u);
  EXPECT_EQ(indices_.num_categories(), 2u);
}

TEST(IndicesEmptyTest, EmptyDatasetYieldsEmptyIndices) {
  DatasetBuilder builder;
  builder.AddUser("lonely");
  builder.AddCategory("void");
  Dataset ds = builder.Build().ValueOrDie();
  DatasetIndices indices(ds);
  EXPECT_TRUE(indices.ReviewsByUser(UserId(0)).empty());
  EXPECT_TRUE(indices.RatingsByUser(UserId(0)).empty());
  EXPECT_TRUE(indices.ReviewsInCategory(CategoryId(0)).empty());
}

TEST(IndicesSumTest, TotalsAreConsistent) {
  Dataset ds = testing::TinyCommunity();
  DatasetIndices indices(ds);
  size_t total_by_review = 0;
  for (const auto& review : ds.reviews()) {
    total_by_review += indices.RatingsOfReview(review.id).size();
  }
  size_t total_by_rater = 0;
  for (const auto& user : ds.users()) {
    total_by_rater += indices.RatingsByUser(user.id).size();
  }
  EXPECT_EQ(total_by_review, ds.num_ratings());
  EXPECT_EQ(total_by_rater, ds.num_ratings());
}

}  // namespace
}  // namespace wot
