#include "wot/reputation/incremental.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

// Matches expertise/rater matrices and review qualities bit-for-bit.
void ExpectSameResult(const ReputationResult& a, const ReputationResult& b) {
  ASSERT_EQ(a.expertise.rows(), b.expertise.rows());
  ASSERT_EQ(a.expertise.cols(), b.expertise.cols());
  EXPECT_DOUBLE_EQ(DenseMatrix::MaxAbsDiff(a.expertise, b.expertise), 0.0);
  EXPECT_DOUBLE_EQ(
      DenseMatrix::MaxAbsDiff(a.rater_reputation, b.rater_reputation), 0.0);
  EXPECT_EQ(a.review_quality, b.review_quality);
}

TEST(IncrementalTest, FullRebuildMatchesEngine) {
  Dataset ds = testing::TinyCommunity();
  IncrementalReputationEngine engine;
  ASSERT_TRUE(engine.FullRebuild(ds, CategoryIndex(ds)).ok());
  auto direct = ComputeReputations(ds, CategoryIndex(ds),
                                   ReputationOptions{})
                    .ValueOrDie();
  ExpectSameResult(engine.result(), direct);
}

TEST(IncrementalTest, UpdateWithoutChangeRecomputesNothing) {
  Dataset ds = testing::TinyCommunity();
  IncrementalReputationEngine engine;
  ASSERT_TRUE(engine.FullRebuild(ds, CategoryIndex(ds)).ok());
  size_t recomputed = 99;
  ASSERT_TRUE(engine.Update(ds, CategoryIndex(ds), &recomputed).ok());
  EXPECT_EQ(recomputed, 0u);
}

TEST(IncrementalTest, NewRatingDirtiesOnlyItsCategory) {
  // Rebuild the tiny community with one extra rating in books only.
  DatasetBuilder builder;
  CategoryId movies = builder.AddCategory("movies");
  CategoryId books = builder.AddCategory("books");
  UserId u0 = builder.AddUser("u0");
  UserId u1 = builder.AddUser("u1");
  UserId u2 = builder.AddUser("u2");
  UserId u3 = builder.AddUser("u3");
  ObjectId m0 = builder.AddObject(movies, "m0").ValueOrDie();
  ObjectId m1 = builder.AddObject(movies, "m1").ValueOrDie();
  ObjectId b0 = builder.AddObject(books, "b0").ValueOrDie();
  ReviewId r0 = builder.AddReview(u0, m0).ValueOrDie();
  ReviewId r1 = builder.AddReview(u0, b0).ValueOrDie();
  ReviewId r2 = builder.AddReview(u1, m1).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(u2, r0, 1.0));
  WOT_CHECK_OK(builder.AddRating(u2, r1, 0.6));
  WOT_CHECK_OK(builder.AddRating(u2, r2, 0.2));
  WOT_CHECK_OK(builder.AddRating(u3, r0, 0.8));

  // Version 1 has exactly TinyCommunity's activity; seed the engine from
  // the fixture (identical content).
  IncrementalReputationEngine engine;
  const Dataset v1 = testing::TinyCommunity();
  ASSERT_TRUE(engine.FullRebuild(v1, CategoryIndex(v1)).ok());

  // Version 2: one extra books rating.
  WOT_CHECK_OK(builder.AddRating(u3, r1, 0.8));
  Dataset v2 = builder.Build().ValueOrDie();

  size_t recomputed = 0;
  ASSERT_TRUE(engine.Update(v2, CategoryIndex(v2), &recomputed).ok());
  EXPECT_EQ(recomputed, 1u);  // books only

  auto direct = ComputeReputations(v2, CategoryIndex(v2),
                                   ReputationOptions{})
                    .ValueOrDie();
  ExpectSameResult(engine.result(), direct);
}

TEST(IncrementalTest, GrowsForNewUsersAndReviews) {
  SynthConfig config;
  config.num_users = 150;
  config.max_ratings_per_user = 20.0;
  SynthCommunity community = GenerateCommunity(config).ValueOrDie();

  IncrementalReputationEngine engine;
  ASSERT_TRUE(engine
                  .FullRebuild(community.dataset,
                               CategoryIndex(community.dataset))
                  .ok());

  // Append a new user with a review and a rating (append-only growth).
  DatasetBuilder builder;
  for (const auto& category : community.dataset.categories()) {
    builder.AddCategory(category.name);
  }
  for (const auto& user : community.dataset.users()) {
    builder.AddUser(user.name);
  }
  for (const auto& object : community.dataset.objects()) {
    WOT_CHECK(builder.AddObject(object.category, object.name).ok());
  }
  for (const auto& review : community.dataset.reviews()) {
    WOT_CHECK(builder.AddReview(review.writer, review.object).ok());
  }
  for (const auto& rating : community.dataset.ratings()) {
    WOT_CHECK_OK(
        builder.AddRating(rating.rater, rating.review, rating.value));
  }
  UserId newcomer = builder.AddUser("newcomer");
  ObjectId fresh_object =
      builder.AddObject(CategoryId(0), "fresh").ValueOrDie();
  ReviewId fresh_review =
      builder.AddReview(newcomer, fresh_object).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(UserId(0), fresh_review, 0.8));
  Dataset grown = builder.Build().ValueOrDie();

  size_t recomputed = 0;
  ASSERT_TRUE(engine.Update(grown, CategoryIndex(grown), &recomputed).ok());
  EXPECT_EQ(recomputed, 1u);

  auto direct = ComputeReputations(grown, CategoryIndex(grown),
                                   ReputationOptions{})
                    .ValueOrDie();
  ExpectSameResult(engine.result(), direct);
  // The newcomer has expertise in category 0 now.
  EXPECT_GT(engine.result().expertise.At(newcomer.index(), 0), 0.0);
}

TEST(IncrementalTest, RejectsShrinkingDataset) {
  SynthConfig config;
  config.num_users = 100;
  config.max_ratings_per_user = 10.0;
  SynthCommunity big = GenerateCommunity(config).ValueOrDie();
  IncrementalReputationEngine engine;
  ASSERT_TRUE(
      engine.FullRebuild(big.dataset, CategoryIndex(big.dataset)).ok());
  Dataset small = testing::TinyCommunity();
  Status s = engine.Update(small, CategoryIndex(small));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(IncrementalTest, FullRebuildReportsAllCategoriesRecomputed) {
  Dataset ds = testing::TinyCommunity();
  IncrementalReputationEngine engine;
  EXPECT_TRUE(engine.last_recomputed_categories().empty());
  ASSERT_TRUE(engine.FullRebuild(ds, CategoryIndex(ds)).ok());
  EXPECT_EQ(engine.last_recomputed_categories(),
            (std::vector<size_t>{0, 1}));
}

TEST(IncrementalTest, NoOpUpdateReportsNoRecomputedCategories) {
  Dataset ds = testing::TinyCommunity();
  IncrementalReputationEngine engine;
  ASSERT_TRUE(engine.FullRebuild(ds, CategoryIndex(ds)).ok());
  ASSERT_TRUE(engine.Update(ds, CategoryIndex(ds)).ok());
  EXPECT_TRUE(engine.last_recomputed_categories().empty());
}

TEST(IncrementalTest, UpdateReportsExactlyTheDirtyCategories) {
  // TinyCommunity plus one extra books (category 1) rating.
  DatasetBuilder builder;
  CategoryId movies = builder.AddCategory("movies");
  CategoryId books = builder.AddCategory("books");
  UserId u0 = builder.AddUser("u0");
  UserId u1 = builder.AddUser("u1");
  UserId u2 = builder.AddUser("u2");
  UserId u3 = builder.AddUser("u3");
  ObjectId m0 = builder.AddObject(movies, "m0").ValueOrDie();
  ObjectId m1 = builder.AddObject(movies, "m1").ValueOrDie();
  ObjectId b0 = builder.AddObject(books, "b0").ValueOrDie();
  ReviewId r0 = builder.AddReview(u0, m0).ValueOrDie();
  ReviewId r1 = builder.AddReview(u0, b0).ValueOrDie();
  ReviewId r2 = builder.AddReview(u1, m1).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(u2, r0, 1.0));
  WOT_CHECK_OK(builder.AddRating(u2, r1, 0.6));
  WOT_CHECK_OK(builder.AddRating(u2, r2, 0.2));
  WOT_CHECK_OK(builder.AddRating(u3, r0, 0.8));

  IncrementalReputationEngine engine;
  const Dataset v1 = testing::TinyCommunity();
  ASSERT_TRUE(engine.FullRebuild(v1, CategoryIndex(v1)).ok());

  WOT_CHECK_OK(builder.AddRating(u3, r1, 0.8));
  Dataset v2 = builder.Build().ValueOrDie();
  ASSERT_TRUE(engine.Update(v2, CategoryIndex(v2)).ok());
  EXPECT_EQ(engine.last_recomputed_categories(),
            (std::vector<size_t>{books.index()}));
}

TEST(IncrementalTest, SeedBuildsNoSliceUntilItsCategoryIsDirty) {
  // Seeded with TinyCommunity's converged state, the engine holds empty
  // slices; one extra books rating catches only the books slice up, from
  // empty, to the slice a single build gives.
  DatasetBuilder builder;
  CategoryId movies = builder.AddCategory("movies");
  CategoryId books = builder.AddCategory("books");
  UserId u0 = builder.AddUser("u0");
  UserId u1 = builder.AddUser("u1");
  UserId u2 = builder.AddUser("u2");
  UserId u3 = builder.AddUser("u3");
  ObjectId m0 = builder.AddObject(movies, "m0").ValueOrDie();
  ObjectId m1 = builder.AddObject(movies, "m1").ValueOrDie();
  ObjectId b0 = builder.AddObject(books, "b0").ValueOrDie();
  ReviewId r0 = builder.AddReview(u0, m0).ValueOrDie();
  ReviewId r1 = builder.AddReview(u0, b0).ValueOrDie();
  ReviewId r2 = builder.AddReview(u1, m1).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(u2, r0, 1.0));
  WOT_CHECK_OK(builder.AddRating(u2, r1, 0.6));
  WOT_CHECK_OK(builder.AddRating(u2, r2, 0.2));
  WOT_CHECK_OK(builder.AddRating(u3, r0, 0.8));

  const Dataset v1 = testing::TinyCommunity();
  IncrementalReputationEngine engine;
  ASSERT_TRUE(engine
                  .Seed(v1, ComputeReputations(v1, CategoryIndex(v1),
                                               ReputationOptions{})
                                .ValueOrDie())
                  .ok());
  ASSERT_EQ(engine.views().size(), 2u);
  EXPECT_EQ(engine.views()[0], CategoryView(movies));
  EXPECT_EQ(engine.views()[1], CategoryView(books));

  WOT_CHECK_OK(builder.AddRating(u3, r1, 0.8));
  Dataset v2 = builder.Build().ValueOrDie();
  const CategoryIndex index(v2);
  ASSERT_TRUE(engine.Update(v2, index).ok());
  EXPECT_EQ(engine.views()[0], CategoryView(movies));
  EXPECT_EQ(engine.views()[1], CategoryView(v2, index, books));
  EXPECT_EQ(engine.last_view_ratings(), 2u);
  ExpectSameResult(engine.result(),
                   ComputeReputations(v2, index, ReputationOptions{})
                       .ValueOrDie());
}

TEST(IncrementalTest, FullRebuildRejectsInvalidOptions) {
  Dataset ds = testing::TinyCommunity();
  ReputationOptions options;
  options.max_iterations = 0;
  IncrementalReputationEngine engine(options);
  Status s = engine.FullRebuild(ds, CategoryIndex(ds));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.initialized());
}

TEST(IncrementalTest, UpdateBeforeRebuildActsAsRebuild) {
  Dataset ds = testing::TinyCommunity();
  IncrementalReputationEngine engine;
  EXPECT_FALSE(engine.initialized());
  size_t recomputed = 0;
  ASSERT_TRUE(engine.Update(ds, CategoryIndex(ds), &recomputed).ok());
  EXPECT_EQ(recomputed, 2u);  // both categories
  EXPECT_TRUE(engine.initialized());
}

}  // namespace
}  // namespace wot
