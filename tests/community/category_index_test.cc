#include "wot/community/category_index.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace wot {
namespace {

class CategoryIndexTest : public ::testing::Test {
 protected:
  CategoryIndexTest() : dataset_(testing::TinyCommunity()), index_(dataset_) {}
  Dataset dataset_;
  CategoryIndex index_;
};

TEST_F(CategoryIndexTest, ReviewsInCategoryAscend) {
  // movies: r0, r2; books: r1.
  auto movies = index_.ReviewsIn(CategoryId(0));
  ASSERT_EQ(movies.size(), 2u);
  EXPECT_EQ(movies[0], ReviewId(0));
  EXPECT_EQ(movies[1], ReviewId(2));
  auto books = index_.ReviewsIn(CategoryId(1));
  ASSERT_EQ(books.size(), 1u);
  EXPECT_EQ(books[0], ReviewId(1));
}

TEST_F(CategoryIndexTest, PositionsWithinCategory) {
  EXPECT_EQ(index_.PositionInCategory(ReviewId(0)), 0u);
  EXPECT_EQ(index_.PositionInCategory(ReviewId(1)), 0u);
  EXPECT_EQ(index_.PositionInCategory(ReviewId(2)), 1u);
}

TEST_F(CategoryIndexTest, RatingsInCategoryAreRatingPositions) {
  // Ratings in dataset order: u2->r0, u2->r1, u2->r2, u3->r0.
  auto movies = index_.RatingsIn(CategoryId(0));
  EXPECT_EQ(std::vector<uint32_t>(movies.begin(), movies.end()),
            (std::vector<uint32_t>{0, 2, 3}));
  auto books = index_.RatingsIn(CategoryId(1));
  EXPECT_EQ(std::vector<uint32_t>(books.begin(), books.end()),
            (std::vector<uint32_t>{1}));
}

TEST_F(CategoryIndexTest, WriteCounts) {
  EXPECT_EQ(index_.WriteCount(UserId(0), CategoryId(0)), 1u);
  EXPECT_EQ(index_.WriteCount(UserId(0), CategoryId(1)), 1u);
  EXPECT_EQ(index_.WriteCount(UserId(1), CategoryId(0)), 1u);
  EXPECT_EQ(index_.WriteCount(UserId(1), CategoryId(1)), 0u);
  EXPECT_EQ(index_.WriteCount(UserId(2), CategoryId(0)), 0u);
}

TEST_F(CategoryIndexTest, RateCounts) {
  EXPECT_EQ(index_.RateCount(UserId(2), CategoryId(0)), 2u);
  EXPECT_EQ(index_.RateCount(UserId(2), CategoryId(1)), 1u);
  EXPECT_EQ(index_.RateCount(UserId(3), CategoryId(0)), 1u);
  EXPECT_EQ(index_.RateCount(UserId(3), CategoryId(1)), 0u);
  EXPECT_EQ(index_.RateCount(UserId(0), CategoryId(0)), 0u);
}

TEST_F(CategoryIndexTest, Dimensions) {
  EXPECT_EQ(index_.num_users(), 4u);
  EXPECT_EQ(index_.num_categories(), 2u);
}

TEST(CategoryIndexBuilderTest, MaintainedIndexEqualsOnePassBuild) {
  DatasetBuilder builder;
  UserId early = builder.AddUser("early");  // before any category exists
  CategoryId a = builder.AddCategory("a");
  UserId writer = builder.AddUser("writer");
  ObjectId oa = builder.AddObject(a, "oa").ValueOrDie();
  ReviewId ra = builder.AddReview(writer, oa).ValueOrDie();
  ASSERT_TRUE(builder.AddRating(early, ra, 0.6).ok());
  // A category added after activity widens every user's count row.
  CategoryId b = builder.AddCategory("b");
  ObjectId ob = builder.AddObject(b, "ob").ValueOrDie();
  ReviewId rb = builder.AddReview(early, ob).ValueOrDie();
  ASSERT_TRUE(builder.AddRating(writer, rb, 1.0).ok());
  EXPECT_EQ(builder.category_index(), CategoryIndex(builder.StagedView()));
  EXPECT_EQ(builder.category_index().WriteCount(writer, a), 1u);
  EXPECT_EQ(builder.category_index().RateCount(early, a), 1u);
  EXPECT_EQ(builder.category_index().RateCount(writer, b), 1u);
}

TEST(CategoryIndexBuilderTest, RejectedAddsDoNotAppend) {
  DatasetBuilder builder;
  CategoryId c = builder.AddCategory("c");
  UserId writer = builder.AddUser("writer");
  UserId rater = builder.AddUser("rater");
  ObjectId object = builder.AddObject(c, "o").ValueOrDie();
  ReviewId review = builder.AddReview(writer, object).ValueOrDie();
  ASSERT_TRUE(builder.AddRating(rater, review, 0.8).ok());
  const CategoryIndex before = builder.category_index();

  EXPECT_FALSE(builder.AddRating(rater, review, 0.4).ok());   // duplicate
  EXPECT_FALSE(builder.AddRating(writer, review, 0.4).ok());  // self
  EXPECT_FALSE(builder.AddRating(rater, review, 0.5).ok());   // off scale
  EXPECT_FALSE(builder.AddReview(writer, object).ok());       // duplicate
  EXPECT_EQ(builder.category_index(), before);
}

TEST(CategoryIndexBuilderTest, AdoptBuildsTheIndex) {
  Dataset tiny = testing::TinyCommunity();
  const CategoryIndex expected(tiny);
  DatasetBuilder builder;
  ASSERT_TRUE(builder.Adopt(std::move(tiny)).ok());
  EXPECT_EQ(builder.category_index(), expected);
}

TEST(CategoryIndexBuilderTest, BuildResetsTheIndex) {
  DatasetBuilder builder;
  builder.AddCategory("c");
  builder.AddUser("u");
  ASSERT_TRUE(builder.Build().ok());
  EXPECT_EQ(builder.category_index(), CategoryIndex());
}

TEST(CategoryIndexEmptyTest, CategoryWithoutActivity) {
  DatasetBuilder builder;
  builder.AddUser("lonely");
  builder.AddCategory("void");
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  EXPECT_TRUE(index.ReviewsIn(CategoryId(0)).empty());
  EXPECT_TRUE(index.RatingsIn(CategoryId(0)).empty());
  EXPECT_EQ(index.WriteCount(UserId(0), CategoryId(0)), 0u);
  EXPECT_EQ(index.RateCount(UserId(0), CategoryId(0)), 0u);
}

}  // namespace
}  // namespace wot
