#include "wot/service/pipeline.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace wot {
namespace {

TEST(PipelineTest, RunsEndToEndOnTinyCommunity) {
  Dataset ds = testing::TinyCommunity();
  TrustPipeline pipeline = TrustPipeline::Run(ds).ValueOrDie();

  EXPECT_EQ(pipeline.expertise().rows(), 4u);
  EXPECT_EQ(pipeline.expertise().cols(), 2u);
  EXPECT_EQ(pipeline.affiliation().rows(), 4u);
  EXPECT_EQ(pipeline.direct_connections().nnz(), 3u);
  EXPECT_EQ(pipeline.explicit_trust().nnz(), 2u);
  EXPECT_EQ(pipeline.baseline().nnz(), 3u);
}

TEST(PipelineTest, DerivedTrustPrefersTheExpert) {
  Dataset ds = testing::TinyCommunity();
  TrustPipeline pipeline = TrustPipeline::Run(ds).ValueOrDie();
  TrustDeriver deriver = pipeline.MakeDeriver();
  // u0 is the strong movie expert (reviews rated 1.0/0.8); u1 wrote one
  // poorly-rated review (0.2). Every rater must trust u0 more.
  EXPECT_GT(deriver.DeriveOne(2, 0), deriver.DeriveOne(2, 1));
  EXPECT_GT(deriver.DeriveOne(3, 0), deriver.DeriveOne(3, 1));
}

TEST(PipelineTest, SkippingBaselineLeavesItEmpty) {
  Dataset ds = testing::TinyCommunity();
  PipelineOptions options;
  options.compute_baseline = false;
  TrustPipeline pipeline = TrustPipeline::Run(ds, options).ValueOrDie();
  EXPECT_EQ(pipeline.baseline().nnz(), 0u);
  EXPECT_GT(pipeline.direct_connections().nnz(), 0u);
}

TEST(PipelineTest, WorksWithoutExplicitTrust) {
  // The motivating case of the paper: no web of trust at all. The pipeline
  // must still derive T-hat; only validation needs the labels.
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("c");
  UserId writer = builder.AddUser("w");
  UserId rater = builder.AddUser("r");
  ObjectId obj = builder.AddObject(cat, "o").ValueOrDie();
  ReviewId review = builder.AddReview(writer, obj).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(rater, review, 0.8));
  Dataset ds = builder.Build().ValueOrDie();

  TrustPipeline pipeline = TrustPipeline::Run(ds).ValueOrDie();
  EXPECT_EQ(pipeline.explicit_trust().nnz(), 0u);
  TrustDeriver deriver = pipeline.MakeDeriver();
  EXPECT_GT(deriver.DeriveOne(1, 0), 0.0);  // rater derives trust in writer
}

TEST(PipelineTest, PropagatesReputationOptions) {
  Dataset ds = testing::TinyCommunity();
  PipelineOptions options;
  options.reputation.max_iterations = 1;
  options.reputation.tolerance = 1e-15;
  TrustPipeline pipeline = TrustPipeline::Run(ds, options).ValueOrDie();
  // With a 1-iteration cap the movies category cannot converge.
  bool any_unconverged = false;
  for (const auto& info : pipeline.reputation().convergence) {
    if (!info.converged) {
      any_unconverged = true;
    }
  }
  EXPECT_TRUE(any_unconverged);
}

TEST(PipelineTest, InvalidOptionsSurface) {
  Dataset ds = testing::TinyCommunity();
  PipelineOptions options;
  options.reputation.tolerance = -1.0;
  EXPECT_FALSE(TrustPipeline::Run(ds, options).ok());
}

}  // namespace
}  // namespace wot
