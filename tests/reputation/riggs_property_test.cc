// Property tests for the Riggs fixed point on randomly generated
// categories: bounds, convergence, determinism and structural invariances
// must hold for any input, not just hand-built fixtures.
#include <gtest/gtest.h>

#include "wot/community/category_view.h"
#include "wot/community/dataset_builder.h"
#include "wot/reputation/riggs.h"
#include "wot/reputation/writer_reputation.h"
#include "wot/util/rng.h"

namespace wot {
namespace {

// Builds one random category: `writers` users x `reviews_each` reviews,
// each rated by a random subset of raters with random scale values.
Dataset RandomCategory(uint64_t seed, size_t writers, size_t reviews_each,
                       size_t raters) {
  Rng rng(seed);
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  std::vector<UserId> writer_ids;
  for (size_t w = 0; w < writers; ++w) {
    writer_ids.push_back(builder.AddUser("w" + std::to_string(w)));
  }
  std::vector<UserId> rater_ids;
  for (size_t r = 0; r < raters; ++r) {
    rater_ids.push_back(builder.AddUser("r" + std::to_string(r)));
  }
  const double stages[5] = {0.2, 0.4, 0.6, 0.8, 1.0};
  size_t object_counter = 0;
  for (size_t w = 0; w < writers; ++w) {
    for (size_t k = 0; k < reviews_each; ++k) {
      ObjectId obj =
          builder.AddObject(cat, "o" + std::to_string(object_counter++))
              .ValueOrDie();
      ReviewId review = builder.AddReview(writer_ids[w], obj).ValueOrDie();
      for (size_t r = 0; r < raters; ++r) {
        if (rng.NextBool(0.6)) {
          WOT_CHECK_OK(builder.AddRating(rater_ids[r], review,
                                         stages[rng.NextBounded(5)]));
        }
      }
    }
  }
  return builder.Build().ValueOrDie();
}

class RiggsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RiggsPropertyTest, QualitiesAndReputationsStayInUnitInterval) {
  Dataset ds = RandomCategory(GetParam(), 4, 3, 8);
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  for (double q : result.review_quality) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
  for (double rep : result.rater_reputation) {
    EXPECT_GE(rep, 0.0);
    EXPECT_LE(rep, 1.0);
  }
  auto writer_reps = ComputeWriterReputations(view, result.review_quality,
                                              ReputationOptions{});
  for (double rep : writer_reps) {
    EXPECT_GE(rep, 0.0);
    EXPECT_LE(rep, 1.0);
  }
}

TEST_P(RiggsPropertyTest, Converges) {
  Dataset ds = RandomCategory(GetParam(), 4, 3, 8);
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  EXPECT_TRUE(result.convergence.converged)
      << "delta after " << result.convergence.iterations << " iterations: "
      << result.convergence.final_delta;
}

TEST_P(RiggsPropertyTest, FixedPointIsSelfConsistent) {
  // Re-applying one eq.-1 sweep at the converged state must not move the
  // qualities by more than the tolerance.
  Dataset ds = RandomCategory(GetParam(), 4, 3, 8);
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  ReputationOptions options;
  RiggsResult result = RiggsFixedPoint(view, options);
  std::vector<double> requality;
  ComputeReviewQualities(view, result.rater_reputation, true, &requality);
  ASSERT_EQ(requality.size(), result.review_quality.size());
  for (size_t i = 0; i < requality.size(); ++i) {
    EXPECT_NEAR(requality[i], result.review_quality[i], 1e-6);
  }
}

TEST_P(RiggsPropertyTest, QualityBoundedByRatingRange) {
  // A rated review's quality is a convex combination of its ratings, so it
  // must lie within [min rating, max rating].
  Dataset ds = RandomCategory(GetParam(), 3, 2, 6);
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  RiggsResult result = RiggsFixedPoint(view, ReputationOptions{});
  for (size_t lr = 0; lr < view.num_reviews(); ++lr) {
    auto values = view.ValuesOfReview(lr);
    if (values.empty()) {
      EXPECT_DOUBLE_EQ(result.review_quality[lr], 0.0);
      continue;
    }
    double lo = 1.0;
    double hi = 0.0;
    for (double value : values) {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    EXPECT_GE(result.review_quality[lr], lo - 1e-12);
    EXPECT_LE(result.review_quality[lr], hi + 1e-12);
  }
}

TEST_P(RiggsPropertyTest, TighterToleranceNeverWorsensDelta) {
  Dataset ds = RandomCategory(GetParam(), 4, 3, 8);
  CategoryIndex index(ds);
  CategoryView view(ds, index, CategoryId(0));
  ReputationOptions loose;
  loose.tolerance = 1e-3;
  ReputationOptions tight;
  tight.tolerance = 1e-12;
  RiggsResult rl = RiggsFixedPoint(view, loose);
  RiggsResult rt = RiggsFixedPoint(view, tight);
  EXPECT_LE(rt.convergence.final_delta, rl.convergence.final_delta + 1e-15);
  EXPECT_GE(rt.convergence.iterations, rl.convergence.iterations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RiggsPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace wot
