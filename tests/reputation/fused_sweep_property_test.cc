// The fused eq. 1/eq. 2 sweep and the one-pass writer aggregation against
// the two-sweep, three-grouping reference (testing/reference_reputation.h):
// quality, rater and writer reputations and convergence must agree bit for
// bit on synth communities under all four use_* option combinations, both
// for slices built in one catch-up and for resident slices caught up
// across several appends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "testing/reference_reputation.h"
#include "wot/community/category_index.h"
#include "wot/community/dataset_builder.h"
#include "wot/reputation/engine.h"
#include "wot/reputation/incremental.h"
#include "wot/reputation/riggs.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

// (synth seed, use_rater_weighting, use_experience_discount)
using Param = std::tuple<uint64_t, bool, bool>;

class FusedSweepPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  static Dataset Community(uint64_t seed) {
    SynthConfig config;
    config.num_users = 200;
    config.max_ratings_per_user = 40.0;
    config.seed = seed;
    return GenerateCommunity(config).ValueOrDie().dataset;
  }
  static ReputationOptions Options() {
    ReputationOptions options;
    options.use_rater_weighting = std::get<1>(GetParam());
    options.use_experience_discount = std::get<2>(GetParam());
    options.num_threads = 2;
    return options;
  }
};

TEST_P(FusedSweepPropertyTest, BatchEqualsTwoSweepReference) {
  const Dataset dataset = Community(std::get<0>(GetParam()));
  const ReputationOptions options = Options();
  ReputationResult fused =
      ComputeReputations(dataset, CategoryIndex(dataset), options)
          .ValueOrDie();
  testing::ExpectBitIdentical(fused,
                              testing::ReferenceReputations(dataset, options));
}

TEST_P(FusedSweepPropertyTest, CaughtUpSlicesEqualTwoSweepReference) {
  // Replays the community through a builder in four rating chunks, with
  // the reviews split between the first two, so later chunks land on
  // reviews whose runs earlier catch-ups already filled.
  const Dataset source = Community(std::get<0>(GetParam()));
  const ReputationOptions options = Options();
  DatasetBuilder builder;
  for (const Category& category : source.categories()) {
    builder.AddCategory(category.name);
  }
  for (const User& user : source.users()) {
    builder.AddUser(user.name);
  }
  for (const Object& object : source.objects()) {
    ASSERT_TRUE(builder.AddObject(object.category, object.name).ok());
  }
  IncrementalReputationEngine engine(options);
  const size_t num_reviews = source.num_reviews();
  const size_t num_ratings = source.num_ratings();
  size_t reviews_added = 0;
  size_t ratings_added = 0;
  for (size_t chunk = 1; chunk <= 4; ++chunk) {
    const size_t review_end = std::min(num_reviews, num_reviews * chunk / 2);
    for (; reviews_added < review_end; ++reviews_added) {
      const Review& review = source.reviews()[reviews_added];
      ASSERT_TRUE(builder.AddReview(review.writer, review.object).ok());
    }
    const size_t rating_end = num_ratings * chunk / 4;
    for (; ratings_added < rating_end; ++ratings_added) {
      const ReviewRating& rating = source.ratings()[ratings_added];
      if (rating.review.index() >= reviews_added) break;
      ASSERT_TRUE(
          builder.AddRating(rating.rater, rating.review, rating.value).ok());
    }
    ASSERT_TRUE(
        engine.Update(builder.StagedView(), builder.category_index()).ok());
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    testing::ExpectBitIdentical(
        engine.result(),
        testing::ReferenceReputations(builder.StagedView(), options));
  }
  ASSERT_EQ(ratings_added, num_ratings);
}

TEST_P(FusedSweepPropertyTest, SingleSweepsEqualTheirReferenceHalves) {
  // ComputeReviewQualities and ComputeRaterReputations share the fused
  // kernel; one sweep of each from the converged state reproduces it.
  const Dataset dataset = Community(std::get<0>(GetParam()));
  const CategoryIndex index(dataset);
  const ReputationOptions options = Options();
  const ReputationResult reference =
      testing::ReferenceReputations(dataset, options);
  for (const Category& category : dataset.categories()) {
    const CategoryView view(dataset, index, category.id);
    const RiggsResult riggs = RiggsFixedPoint(view, options);
    std::vector<double> quality;
    ComputeReviewQualities(view, riggs.rater_reputation,
                           options.use_rater_weighting, &quality);
    std::vector<double> reputation;
    ComputeRaterReputations(view, riggs.review_quality,
                            options.use_experience_discount, &reputation);
    ASSERT_EQ(reputation.size(), view.num_raters());
    for (size_t lx = 0; lx < view.num_raters(); ++lx) {
      EXPECT_EQ(testing::Bits(reputation[lx]),
                testing::Bits(riggs.rater_reputation[lx]));
      EXPECT_EQ(testing::Bits(reputation[lx]),
                testing::Bits(reference.rater_reputation.At(
                    view.rater_id(lx).index(), category.id.index())));
    }
    ASSERT_EQ(quality.size(), view.num_reviews());
    for (size_t lr = 0; lr < view.num_reviews(); ++lr) {
      // One more eq.-1 sweep from the final reputations: the quality the
      // reference's next iteration would compute. Converged within
      // tolerance of the reported quality.
      EXPECT_NEAR(quality[lr],
                  reference.review_quality[view.review_id(lr).index()],
                  1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Synth, FusedSweepPropertyTest,
    ::testing::Combine(::testing::Values(3, 11, 42), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "Seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Weighted" : "_Unweighted") +
             (std::get<2>(info.param) ? "_Discount" : "_NoDiscount");
    });

}  // namespace
}  // namespace wot
