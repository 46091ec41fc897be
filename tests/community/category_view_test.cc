#include "wot/community/category_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "testing/fixtures.h"
#include "wot/community/indices.h"
#include "wot/synth/generator.h"
#include "wot/util/rng.h"

namespace wot {
namespace {

// The slice as the DatasetIndices-based constructor laid it out (hash-map
// remaps over the dataset-wide review and rating groupings), except that
// raters are numbered first-seen over the category's ratings in rating-id
// (append) order, as the slice numbers them. The Riggs sums run in these
// orders, so the index-based slice must reproduce every field exactly.
struct ReferenceView {
  std::vector<ReviewId> review_ids;
  std::vector<UserId> writer_ids;
  std::vector<UserId> rater_ids;
  std::vector<uint32_t> rater_counts;
  std::vector<uint32_t> review_writer;
  std::vector<std::vector<std::pair<uint32_t, double>>> review_ratings;
};

ReferenceView BuildReference(const Dataset& dataset,
                             const DatasetIndices& indices,
                             CategoryId category) {
  ReferenceView ref;
  std::unordered_map<uint32_t, uint32_t> rater_local;
  for (const ReviewRating& rating : dataset.ratings()) {
    if (dataset.object(dataset.review(rating.review).object).category !=
        category) {
      continue;
    }
    auto [x, new_rater] = rater_local.emplace(
        rating.rater.value(), static_cast<uint32_t>(ref.rater_ids.size()));
    if (new_rater) {
      ref.rater_ids.push_back(rating.rater);
      ref.rater_counts.push_back(0);
    }
    ++ref.rater_counts[x->second];
  }
  auto reviews = indices.ReviewsInCategory(category);
  ref.review_ids.assign(reviews.begin(), reviews.end());
  std::unordered_map<uint32_t, uint32_t> writer_local;
  for (ReviewId review : ref.review_ids) {
    UserId writer = dataset.review(review).writer;
    auto [w, new_writer] = writer_local.emplace(
        writer.value(), static_cast<uint32_t>(ref.writer_ids.size()));
    if (new_writer) ref.writer_ids.push_back(writer);
    ref.review_writer.push_back(w->second);
    auto& ratings = ref.review_ratings.emplace_back();
    for (const auto& rating : indices.RatingsOfReview(review)) {
      ratings.emplace_back(rater_local.at(rating.rater.value()),
                           rating.value);
    }
  }
  return ref;
}

// Field-by-field equality with the reference.
void ExpectMatchesReference(const CategoryView& view,
                            const ReferenceView& ref) {
  ASSERT_EQ(view.num_reviews(), ref.review_ids.size());
  ASSERT_EQ(view.num_writers(), ref.writer_ids.size());
  ASSERT_EQ(view.num_raters(), ref.rater_ids.size());
  size_t num_ratings = 0;
  for (size_t lr = 0; lr < ref.review_ids.size(); ++lr) {
    EXPECT_EQ(view.review_id(lr), ref.review_ids[lr]);
    EXPECT_EQ(view.WriterOfReview(lr), ref.review_writer[lr]);
    auto raters = view.RatersOfReview(lr);
    auto values = view.ValuesOfReview(lr);
    ASSERT_EQ(raters.size(), ref.review_ratings[lr].size());
    ASSERT_EQ(values.size(), ref.review_ratings[lr].size());
    for (size_t k = 0; k < raters.size(); ++k) {
      EXPECT_EQ(raters[k], ref.review_ratings[lr][k].first);
      EXPECT_EQ(values[k], ref.review_ratings[lr][k].second);
    }
    num_ratings += raters.size();
  }
  EXPECT_EQ(view.num_ratings(), num_ratings);
  for (size_t lw = 0; lw < ref.writer_ids.size(); ++lw) {
    EXPECT_EQ(view.writer_id(lw), ref.writer_ids[lw]);
  }
  for (size_t lx = 0; lx < ref.rater_ids.size(); ++lx) {
    EXPECT_EQ(view.rater_id(lx), ref.rater_ids[lx]);
    EXPECT_EQ(view.RatingCountOfRater(lx), ref.rater_counts[lx]);
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
  auto r0_raters = movies_.RatersOfReview(0);
  auto r0_values = movies_.ValuesOfReview(0);
  ASSERT_EQ(r0_raters.size(), 2u);
  ASSERT_EQ(r0_values.size(), 2u);
  // Values for r0: 1.0 (u2) then 0.8 (u3), in dataset order.
  EXPECT_DOUBLE_EQ(r0_values[0], 1.0);
  EXPECT_DOUBLE_EQ(r0_values[1], 0.8);
  EXPECT_EQ(movies_.rater_id(r0_raters[0]), UserId(2));
  EXPECT_EQ(movies_.rater_id(r0_raters[1]), UserId(3));
}

TEST_F(CategoryViewTest, RaterCountsInAppendOrder) {
  // Movies ratings in id order: u2->r0, u2->r2, u3->r0.
  EXPECT_EQ(movies_.rater_id(0), UserId(2));
  EXPECT_EQ(movies_.rater_id(1), UserId(3));
  EXPECT_EQ(movies_.RatingCountOfRater(0), 2u);
  EXPECT_EQ(movies_.RatingCountOfRater(1), 1u);
}

TEST_F(CategoryViewTest, CaughtUpTwiceIsUnchanged) {
  CategoryView view(CategoryId(0));
  view.CatchUp(dataset_, index_);
  EXPECT_EQ(view, movies_);
  view.CatchUp(dataset_, index_);
  EXPECT_EQ(view, movies_);
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
  EXPECT_TRUE(view.RatersOfReview(0).empty());
  EXPECT_TRUE(view.ValuesOfReview(0).empty());
}

// Grows a dataset through random Add* calls (users, categories, objects,
// reviews, ratings; rejected calls are skipped) and, at random points,
// catches one resident slice per category up with it. Each caught-up slice
// must equal a slice built once over the same data, field for field: a new
// rating lands at the end of its review's run, after ratings that earlier
// catch-ups placed, and new raters and writers are numbered after old ones.
void ExpectCatchUpEqualsFreshBuild(uint64_t seed,
                                   const DatasetBuilderOptions& options) {
  SCOPED_TRACE(seed);
  Rng rng(seed);
  DatasetBuilder builder(options);
  std::vector<CategoryView> resident;
  builder.AddCategory("c0");
  for (int u = 0; u < 4; ++u) builder.AddUser("u" + std::to_string(u));
  constexpr double kStages[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  for (int step = 0; step < 600; ++step) {
    const Dataset& staged = builder.StagedView();
    const double roll = rng.NextDouble();
    if (roll < 0.02) {
      builder.AddCategory("c" + std::to_string(staged.num_categories()));
    } else if (roll < 0.08) {
      builder.AddUser("u" + std::to_string(staged.num_users()));
    } else if (roll < 0.16) {
      const CategoryId category(static_cast<uint32_t>(
          rng.NextBounded(staged.num_categories())));
      (void)builder.AddObject(category,
                              "o" + std::to_string(staged.num_objects()));
    } else if (roll < 0.3 && staged.num_objects() > 0) {
      (void)builder.AddReview(
          UserId(static_cast<uint32_t>(rng.NextBounded(staged.num_users()))),
          ObjectId(
              static_cast<uint32_t>(rng.NextBounded(staged.num_objects()))));
    } else if (staged.num_reviews() > 0) {
      // Favour recent reviews a little so runs grow across catch-ups.
      const size_t bound = rng.NextBool(0.5)
                               ? staged.num_reviews()
                               : std::min<size_t>(staged.num_reviews(), 5);
      const size_t review =
          staged.num_reviews() - 1 - rng.NextBounded(bound);
      (void)builder.AddRating(
          UserId(static_cast<uint32_t>(rng.NextBounded(staged.num_users()))),
          ReviewId(static_cast<uint32_t>(review)),
          kStages[rng.NextBounded(5)]);
    }
    if (!rng.NextBool(0.08) && step != 599) {
      continue;
    }
    const CategoryIndex& index = builder.category_index();
    for (size_t c = resident.size(); c < staged.num_categories(); ++c) {
      resident.emplace_back(CategoryId(static_cast<uint32_t>(c)));
    }
    for (size_t c = 0; c < resident.size(); ++c) {
      // Some slices skip a catch-up and absorb two deltas at once.
      if (rng.NextBool(0.2) && step != 599) continue;
      resident[c].CatchUp(staged, index);
      const CategoryView fresh(staged, index,
                               CategoryId(static_cast<uint32_t>(c)));
      ASSERT_TRUE(resident[c] == fresh)
          << "category " << c << " at step " << step;
    }
  }
  // The final slices also match the grouped-indices reference.
  const Dataset& staged = builder.StagedView();
  const DatasetIndices indices(staged);
  for (size_t c = 0; c < resident.size(); ++c) {
    const CategoryId category(static_cast<uint32_t>(c));
    ExpectMatchesReference(resident[c],
                           BuildReference(staged, indices, category));
  }
}

TEST(CategoryViewCatchUpTest, CatchUpEqualsFreshBuild) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ExpectCatchUpEqualsFreshBuild(seed, DatasetBuilderOptions{});
  }
}

TEST(CategoryViewCatchUpTest, CatchUpEqualsFreshBuildPermissive) {
  // Self ratings and duplicate (rater, review) pairs allowed.
  DatasetBuilderOptions permissive;
  permissive.enforce_one_review_per_object = false;
  permissive.reject_self_ratings = false;
  permissive.reject_duplicate_ratings = false;
  for (uint64_t seed = 101; seed <= 120; ++seed) {
    ExpectCatchUpEqualsFreshBuild(seed, permissive);
  }
}

}  // namespace
}  // namespace wot
