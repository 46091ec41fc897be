#include "wot/community/category_view.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "testing/fixtures.h"
#include "wot/community/indices.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

// The view as the DatasetIndices-based constructor laid it out (hash-map
// remaps over the dataset-wide review and rating groupings). The Riggs sums
// run in these orders, so the index-based constructor must reproduce every
// field exactly.
struct ReferenceView {
  std::vector<ReviewId> review_ids;
  std::vector<UserId> writer_ids;
  std::vector<UserId> rater_ids;
  std::vector<uint32_t> review_writer;
  std::vector<std::vector<std::pair<uint32_t, double>>> review_ratings;
};

ReferenceView BuildReference(const Dataset& dataset,
                             const DatasetIndices& indices,
                             CategoryId category) {
  ReferenceView ref;
  auto reviews = indices.ReviewsInCategory(category);
  ref.review_ids.assign(reviews.begin(), reviews.end());
  std::unordered_map<uint32_t, uint32_t> writer_local;
  std::unordered_map<uint32_t, uint32_t> rater_local;
  for (ReviewId review : ref.review_ids) {
    UserId writer = dataset.review(review).writer;
    auto [w, new_writer] = writer_local.emplace(
        writer.value(), static_cast<uint32_t>(ref.writer_ids.size()));
    if (new_writer) ref.writer_ids.push_back(writer);
    ref.review_writer.push_back(w->second);
    auto& ratings = ref.review_ratings.emplace_back();
    for (const auto& rating : indices.RatingsOfReview(review)) {
      auto [x, new_rater] = rater_local.emplace(
          rating.rater.value(), static_cast<uint32_t>(ref.rater_ids.size()));
      if (new_rater) ref.rater_ids.push_back(rating.rater);
      ratings.emplace_back(x->second, rating.value);
    }
  }
  return ref;
}

// Field-by-field equality, including the rater- and writer-side groupings
// (each must list its entries in ascending local review order).
void ExpectMatchesReference(const CategoryView& view,
                            const ReferenceView& ref) {
  ASSERT_EQ(view.num_reviews(), ref.review_ids.size());
  ASSERT_EQ(view.num_writers(), ref.writer_ids.size());
  ASSERT_EQ(view.num_raters(), ref.rater_ids.size());
  std::vector<std::vector<CategoryView::RaterSideRating>> by_rater(
      ref.rater_ids.size());
  std::vector<std::vector<uint32_t>> by_writer(ref.writer_ids.size());
  size_t num_ratings = 0;
  for (size_t lr = 0; lr < ref.review_ids.size(); ++lr) {
    EXPECT_EQ(view.review_id(lr), ref.review_ids[lr]);
    EXPECT_EQ(view.WriterOfReview(lr), ref.review_writer[lr]);
    by_writer[ref.review_writer[lr]].push_back(static_cast<uint32_t>(lr));
    auto ratings = view.RatingsOfReview(lr);
    ASSERT_EQ(ratings.size(), ref.review_ratings[lr].size());
    for (size_t k = 0; k < ratings.size(); ++k) {
      EXPECT_EQ(ratings[k].local_rater, ref.review_ratings[lr][k].first);
      EXPECT_EQ(ratings[k].value, ref.review_ratings[lr][k].second);
      by_rater[ref.review_ratings[lr][k].first].push_back(
          {static_cast<uint32_t>(lr), ref.review_ratings[lr][k].second});
    }
    num_ratings += ratings.size();
  }
  EXPECT_EQ(view.num_ratings(), num_ratings);
  for (size_t lw = 0; lw < ref.writer_ids.size(); ++lw) {
    EXPECT_EQ(view.writer_id(lw), ref.writer_ids[lw]);
    auto reviews = view.ReviewsOfWriter(lw);
    EXPECT_EQ(std::vector<uint32_t>(reviews.begin(), reviews.end()),
              by_writer[lw]);
  }
  for (size_t lx = 0; lx < ref.rater_ids.size(); ++lx) {
    EXPECT_EQ(view.rater_id(lx), ref.rater_ids[lx]);
    auto ratings = view.RatingsByRater(lx);
    ASSERT_EQ(ratings.size(), by_rater[lx].size());
    for (size_t k = 0; k < ratings.size(); ++k) {
      EXPECT_EQ(ratings[k].local_review, by_rater[lx][k].local_review);
      EXPECT_EQ(ratings[k].value, by_rater[lx][k].value);
    }
  }
}

// Replays \p dataset through a builder, so its index is the one maintained
// append by append rather than built in one pass.
CategoryIndex MaintainedIndex(const Dataset& dataset) {
  DatasetBuilder builder;
  for (const auto& category : dataset.categories()) {
    builder.AddCategory(category.name);
  }
  for (const auto& user : dataset.users()) {
    builder.AddUser(user.name);
  }
  for (const auto& object : dataset.objects()) {
    WOT_CHECK(builder.AddObject(object.category, object.name).ok());
  }
  for (const auto& review : dataset.reviews()) {
    WOT_CHECK(builder.AddReview(review.writer, review.object).ok());
  }
  for (const auto& rating : dataset.ratings()) {
    WOT_CHECK_OK(builder.AddRating(rating.rater, rating.review, rating.value));
  }
  return builder.category_index();
}

void ExpectViewsMatchReference(const Dataset& dataset) {
  const DatasetIndices indices(dataset);
  const CategoryIndex one_pass(dataset);
  const CategoryIndex maintained = MaintainedIndex(dataset);
  EXPECT_EQ(maintained, one_pass);
  for (const auto& category : dataset.categories()) {
    SCOPED_TRACE(category.name);
    const ReferenceView ref = BuildReference(dataset, indices, category.id);
    ExpectMatchesReference(CategoryView(dataset, one_pass, category.id), ref);
    ExpectMatchesReference(CategoryView(dataset, maintained, category.id),
                           ref);
  }
}

TEST(CategoryViewReferenceTest, TinyCommunityMatchesGroupedIndices) {
  ExpectViewsMatchReference(testing::TinyCommunity());
}

TEST(CategoryViewReferenceTest, SynthCommunityMatchesGroupedIndices) {
  SynthConfig config;
  config.num_users = 300;
  config.max_ratings_per_user = 40.0;
  ExpectViewsMatchReference(GenerateCommunity(config).ValueOrDie().dataset);
}

class CategoryViewTest : public ::testing::Test {
 protected:
  CategoryViewTest()
      : dataset_(testing::TinyCommunity()),
        index_(dataset_),
        movies_(dataset_, index_, CategoryId(0)),
        books_(dataset_, index_, CategoryId(1)) {}
  Dataset dataset_;
  CategoryIndex index_;
  CategoryView movies_;
  CategoryView books_;
};

TEST_F(CategoryViewTest, MoviesDimensions) {
  EXPECT_EQ(movies_.category(), CategoryId(0));
  EXPECT_EQ(movies_.num_reviews(), 2u);   // r0, r2
  EXPECT_EQ(movies_.num_writers(), 2u);   // u0, u1
  EXPECT_EQ(movies_.num_raters(), 2u);    // u2, u3
  EXPECT_EQ(movies_.num_ratings(), 3u);   // u2->r0, u3->r0, u2->r2
}

TEST_F(CategoryViewTest, BooksDimensions) {
  EXPECT_EQ(books_.num_reviews(), 1u);  // r1
  EXPECT_EQ(books_.num_writers(), 1u);  // u0
  EXPECT_EQ(books_.num_raters(), 1u);   // u2
  EXPECT_EQ(books_.num_ratings(), 1u);
}

TEST_F(CategoryViewTest, LocalToGlobalMapping) {
  EXPECT_EQ(movies_.review_id(0), ReviewId(0));
  EXPECT_EQ(movies_.review_id(1), ReviewId(2));
  EXPECT_EQ(movies_.writer_id(0), UserId(0));
  EXPECT_EQ(movies_.writer_id(1), UserId(1));
  EXPECT_EQ(books_.review_id(0), ReviewId(1));
  EXPECT_EQ(books_.writer_id(0), UserId(0));
}

TEST_F(CategoryViewTest, WriterOfReview) {
  EXPECT_EQ(movies_.WriterOfReview(0), 0u);  // r0 by u0 (local writer 0)
  EXPECT_EQ(movies_.WriterOfReview(1), 1u);  // r2 by u1 (local writer 1)
}

TEST_F(CategoryViewTest, RatingsOfReviewLocalSide) {
  auto r0_ratings = movies_.RatingsOfReview(0);
  ASSERT_EQ(r0_ratings.size(), 2u);
  // Values for r0: 1.0 (u2) then 0.8 (u3), in dataset order.
  EXPECT_DOUBLE_EQ(r0_ratings[0].value, 1.0);
  EXPECT_DOUBLE_EQ(r0_ratings[1].value, 0.8);
  EXPECT_EQ(movies_.rater_id(r0_ratings[0].local_rater), UserId(2));
  EXPECT_EQ(movies_.rater_id(r0_ratings[1].local_rater), UserId(3));
}

TEST_F(CategoryViewTest, RatingsByRaterConsistentWithReviewSide) {
  // Cross-check: every (rater, review, value) triple present on one side
  // must appear on the other.
  size_t total = 0;
  for (size_t lx = 0; lx < movies_.num_raters(); ++lx) {
    for (const auto& rr : movies_.RatingsByRater(lx)) {
      bool found = false;
      for (const auto& rs : movies_.RatingsOfReview(rr.local_review)) {
        if (rs.local_rater == lx && rs.value == rr.value) {
          found = true;
        }
      }
      EXPECT_TRUE(found);
      ++total;
    }
  }
  EXPECT_EQ(total, movies_.num_ratings());
}

TEST_F(CategoryViewTest, ReviewsOfWriter) {
  auto u0_reviews = movies_.ReviewsOfWriter(0);
  ASSERT_EQ(u0_reviews.size(), 1u);
  EXPECT_EQ(movies_.review_id(u0_reviews[0]), ReviewId(0));
}

TEST_F(CategoryViewTest, EmptyCategory) {
  DatasetBuilder builder;
  builder.AddCategory("empty");
  builder.AddUser("u");
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  EXPECT_EQ(view.num_reviews(), 0u);
  EXPECT_EQ(view.num_writers(), 0u);
  EXPECT_EQ(view.num_raters(), 0u);
  EXPECT_EQ(view.num_ratings(), 0u);
}

TEST_F(CategoryViewTest, ReviewWithNoRatings) {
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  ObjectId obj = builder.AddObject(cat, "o").ValueOrDie();
  ASSERT_TRUE(builder.AddReview(writer, obj).ok());
  Dataset ds = builder.Build().ValueOrDie();
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  EXPECT_EQ(view.num_reviews(), 1u);
  EXPECT_EQ(view.num_raters(), 0u);
  EXPECT_TRUE(view.RatingsOfReview(0).empty());
}

}  // namespace
}  // namespace wot
