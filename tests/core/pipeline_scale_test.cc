// Cross-scale invariants of the full pipeline over generated communities:
// growing the community must not break any structural property, and the
// derivation strategies must agree at every size.
#include <gtest/gtest.h>

#include "wot/core/binarization.h"
#include "wot/linalg/sparse_ops.h"
#include "wot/service/pipeline.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

class PipelineScaleTest : public ::testing::TestWithParam<size_t> {};

SynthCommunity Generate(size_t users) {
  SynthConfig config;
  config.seed = 77;
  config.num_users = users;
  config.mean_objects_per_category = 30;
  config.max_ratings_per_user = 40.0;
  return GenerateCommunity(config).ValueOrDie();
}

TEST_P(PipelineScaleTest, StructuralInvariantsHold) {
  SynthCommunity community = Generate(GetParam());
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset).ValueOrDie();

  const size_t users = community.dataset.num_users();
  const size_t categories = community.dataset.num_categories();
  EXPECT_EQ(pipeline.expertise().rows(), users);
  EXPECT_EQ(pipeline.expertise().cols(), categories);
  EXPECT_TRUE(pipeline.expertise().AllInRange(0.0, 1.0));
  EXPECT_TRUE(pipeline.affiliation().AllInRange(0.0, 1.0));
  EXPECT_TRUE(pipeline.rater_reputation().AllInRange(0.0, 1.0));

  // R and B share their pattern; T never contains the diagonal.
  EXPECT_EQ(pipeline.baseline().nnz(),
            pipeline.direct_connections().nnz());
  for (size_t i = 0; i < users; ++i) {
    EXPECT_FALSE(pipeline.explicit_trust().Contains(i, i));
    EXPECT_FALSE(pipeline.direct_connections().Contains(i, i));
  }

  // Every writer with at least one rated review has positive expertise
  // somewhere; users who never wrote have an all-zero expertise row.
  DatasetIndices indices(community.dataset);
  for (size_t u = 0; u < users; ++u) {
    UserId user(static_cast<uint32_t>(u));
    bool wrote = !indices.ReviewsByUser(user).empty();
    double row_max = pipeline.expertise().RowMax(u);
    if (!wrote) {
      EXPECT_DOUBLE_EQ(row_max, 0.0) << "non-writer " << u;
    }
  }
}

TEST_P(PipelineScaleTest, DerivationStrategiesAgree) {
  SynthCommunity community = Generate(GetParam());
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset).ValueOrDie();
  TrustDeriver deriver = pipeline.MakeDeriver();

  // Pair-restricted derivation at R's coordinates equals DeriveOne.
  SparseMatrix at_r = deriver.DeriveForPairs(pipeline.direct_connections());
  size_t checked = 0;
  ForEachEntry(at_r, [&](size_t i, uint32_t j, double v) {
    if (checked++ % 97 == 0) {  // sample to keep runtime low
      EXPECT_NEAR(v, deriver.DeriveOne(i, j), 1e-12);
    }
  });

  // Top-k via postings equals top-k via scan on sampled rows.
  TrustDeriver ta = pipeline.MakeDeriver();
  ta.BuildPostings();
  for (size_t i = 0; i < deriver.num_users(); i += 61) {
    auto scan = deriver.DeriveRowTopK(i, 5);
    auto fast = ta.DeriveRowTopK(i, 5);
    ASSERT_EQ(scan.size(), fast.size()) << "row " << i;
    for (size_t k = 0; k < scan.size(); ++k) {
      EXPECT_EQ(scan[k].user, fast[k].user) << "row " << i;
    }
  }
}

TEST_P(PipelineScaleTest, GenerosityBinarizationRespectsRowBudgets) {
  SynthCommunity community = Generate(GetParam());
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset).ValueOrDie();
  TrustDeriver deriver = pipeline.MakeDeriver();
  BinarizationOptions options;
  options.policy = BinarizationPolicy::kPerUserQuantile;
  options.per_user_fraction = ComputeTrustGenerosity(
      pipeline.direct_connections(), pipeline.explicit_trust());
  SparseMatrix binary = BinarizeDerivedTrust(deriver, options).ValueOrDie();
  // Users with zero generosity never mark anything.
  for (size_t i = 0; i < deriver.num_users(); ++i) {
    if (options.per_user_fraction[i] == 0.0) {
      EXPECT_EQ(binary.RowNnz(i), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PipelineScaleTest,
                         ::testing::Values(200, 500, 900));

}  // namespace
}  // namespace wot
