#include "wot/service/trust_service.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "testing/fixtures.h"
#include "wot/service/pipeline.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

std::unique_ptr<TrustService> MustCreate(const Dataset& seed) {
  Result<std::unique_ptr<TrustService>> service = TrustService::Create(seed);
  WOT_CHECK_OK(service.status());
  return std::move(service).ValueOrDie();
}

TEST(TrustServiceTest, CreateMatchesBatchPipeline) {
  Dataset ds = testing::TinyCommunity();
  std::unique_ptr<TrustService> service = MustCreate(ds);
  TrustPipeline pipeline = TrustPipeline::Run(ds).ValueOrDie();
  TrustDeriver deriver = pipeline.MakeDeriver();

  std::shared_ptr<const TrustSnapshot> snap = service->Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(snap->num_users(), ds.num_users());
  EXPECT_EQ(snap->num_categories(), ds.num_categories());
  EXPECT_DOUBLE_EQ(
      DenseMatrix::MaxAbsDiff(snap->expertise(), pipeline.expertise()), 0.0);
  EXPECT_DOUBLE_EQ(
      DenseMatrix::MaxAbsDiff(snap->affiliation(), pipeline.affiliation()),
      0.0);
  for (size_t i = 0; i < ds.num_users(); ++i) {
    for (size_t j = 0; j < ds.num_users(); ++j) {
      EXPECT_EQ(service->Trust(i, j), deriver.DeriveOne(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

TEST(TrustServiceTest, CreateSnapshotIsBitIdenticalToBuild) {
  SynthConfig config;
  config.num_users = 150;
  config.seed = 5;
  for (const Dataset& ds : {testing::TinyCommunity(),
                            GenerateCommunity(config).ValueOrDie().dataset}) {
    SCOPED_TRACE(std::to_string(ds.num_users()) + " users");
    std::shared_ptr<const TrustSnapshot> built =
        TrustSnapshot::Build(ds).ValueOrDie();
    std::shared_ptr<const TrustSnapshot> served =
        MustCreate(ds)->Snapshot();
    EXPECT_EQ(served->version(), built->version());
    EXPECT_EQ(served->num_reviews(), built->num_reviews());
    EXPECT_EQ(served->num_ratings(), built->num_ratings());
    const ReputationResult& a = served->reputation();
    const ReputationResult& b = built->reputation();
    EXPECT_EQ(Bits(a.expertise.data()), Bits(b.expertise.data()));
    EXPECT_EQ(Bits(a.rater_reputation.data()),
              Bits(b.rater_reputation.data()));
    EXPECT_EQ(Bits(a.review_quality), Bits(b.review_quality));
    ASSERT_EQ(a.convergence.size(), b.convergence.size());
    for (size_t c = 0; c < a.convergence.size(); ++c) {
      EXPECT_EQ(a.convergence[c].iterations, b.convergence[c].iterations);
      EXPECT_EQ(std::bit_cast<uint64_t>(a.convergence[c].final_delta),
                std::bit_cast<uint64_t>(b.convergence[c].final_delta));
      EXPECT_EQ(a.convergence[c].converged, b.convergence[c].converged);
    }
    EXPECT_EQ(Bits(served->affiliation().data()),
              Bits(built->affiliation().data()));
    const std::vector<ExpertisePostingPtr>& pa = served->deriver().postings();
    const std::vector<ExpertisePostingPtr>& pb = built->deriver().postings();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t c = 0; c < pa.size(); ++c) {
      ASSERT_EQ(pa[c]->size(), pb[c]->size());
      for (size_t k = 0; k < pa[c]->size(); ++k) {
        EXPECT_EQ((*pa[c])[k].user, (*pb[c])[k].user);
        EXPECT_EQ(std::bit_cast<uint64_t>((*pa[c])[k].score),
                  std::bit_cast<uint64_t>((*pb[c])[k].score));
      }
    }
    EXPECT_EQ(served->category_names(), built->category_names());
    ASSERT_EQ(served->num_users(), ds.num_users());
    for (const User& user : ds.users()) {
      EXPECT_EQ(served->user_names().name(user.id.index()),
                built->user_names().name(user.id.index()));
    }
  }
}

TEST(TrustServiceTest, TopKMatchesBatchDeriverWithPostings) {
  SynthConfig config;
  config.num_users = 120;
  SynthCommunity community = GenerateCommunity(config).ValueOrDie();
  std::unique_ptr<TrustService> service = MustCreate(community.dataset);

  TrustPipeline pipeline = TrustPipeline::Run(community.dataset).ValueOrDie();
  TrustDeriver deriver = pipeline.MakeDeriver();
  deriver.BuildPostings();

  for (size_t i = 0; i < community.dataset.num_users(); i += 7) {
    std::vector<ScoredUser> service_topk = service->TopK(i, 10);
    std::vector<ScoredUser> batch_topk = deriver.DeriveRowTopK(i, 10);
    ASSERT_EQ(service_topk.size(), batch_topk.size()) << "user " << i;
    for (size_t r = 0; r < service_topk.size(); ++r) {
      EXPECT_EQ(service_topk[r].user, batch_topk[r].user)
          << "user " << i << " rank " << r;
      EXPECT_EQ(service_topk[r].score, batch_topk[r].score)
          << "user " << i << " rank " << r;
    }
  }
}

TEST(TrustServiceTest, ExplainTrustDecomposesTheDerivedDegree) {
  Dataset ds = testing::TinyCommunity();
  std::unique_ptr<TrustService> service = MustCreate(ds);
  std::shared_ptr<const TrustSnapshot> snap = service->Snapshot();

  // u2 rated in both categories; u0 wrote in both.
  TrustExplanation explanation = snap->ExplainTrust(2, 0);
  EXPECT_GT(explanation.trust, 0.0);
  EXPECT_EQ(explanation.trust, snap->Trust(2, 0));
  EXPECT_EQ(explanation.affinity_sum, snap->affiliation().RowSum(2));

  double sum = 0.0;
  size_t active = 0;
  for (size_t c = 0; c < snap->num_categories(); ++c) {
    if (snap->affiliation().At(2, c) > 0.0) {
      ++active;
    }
  }
  ASSERT_EQ(explanation.terms.size(), active);
  for (size_t t = 0; t < explanation.terms.size(); ++t) {
    const TrustContribution& term = explanation.terms[t];
    EXPECT_EQ(term.affiliation,
              snap->affiliation().At(2, term.category));
    EXPECT_EQ(term.expertise, snap->expertise().At(0, term.category));
    EXPECT_EQ(term.contribution, term.affiliation * term.expertise /
                                     explanation.affinity_sum);
    if (t > 0) {
      EXPECT_GE(explanation.terms[t - 1].contribution, term.contribution);
    }
    sum += term.contribution;
  }
  EXPECT_NEAR(sum, explanation.trust, 1e-12);
}

TEST(TrustServiceTest, CommitWithoutChangesKeepsServingSameSnapshot) {
  std::unique_ptr<TrustService> service =
      MustCreate(testing::TinyCommunity());
  std::shared_ptr<const TrustSnapshot> before = service->Snapshot();
  TrustService::CommitStats stats = service->Commit().ValueOrDie();
  EXPECT_FALSE(stats.published);
  EXPECT_EQ(stats.version, 1u);
  EXPECT_EQ(stats.categories_recomputed, 0u);
  EXPECT_EQ(service->Snapshot().get(), before.get());
}

TEST(TrustServiceTest, CommitScopesRefreshToDirtyCategoriesAndUsers) {
  Dataset ds = testing::TinyCommunity();
  std::unique_ptr<TrustService> service = MustCreate(ds);

  // u3 rates u0's books review r1: dirties category "books" (1) and only
  // u3's affiliation row.
  ASSERT_TRUE(service->AddRating(UserId(3), ReviewId(1), 0.8).ok());
  TrustService::CommitStats stats = service->Commit().ValueOrDie();
  EXPECT_TRUE(stats.published);
  EXPECT_EQ(stats.version, 2u);
  EXPECT_EQ(stats.categories_recomputed, 1u);
  EXPECT_EQ(stats.affiliation_rows_recomputed, 1u);
  EXPECT_EQ(stats.postings_rebuilt, 1u);
}

// The O(delta) contract: a commit places into views only the ratings of
// the categories it dirtied.
class CommitScanTest : public ::testing::Test {
 protected:
  CommitScanTest() {
    SynthConfig config;
    config.num_users = 200;
    config.max_ratings_per_user = 30.0;
    service_ = MustCreate(GenerateCommunity(config).ValueOrDie().dataset);
  }

  size_t RatingsIn(size_t category) const {
    return service_->staged_category_index()
        .RatingsIn(CategoryId(static_cast<uint32_t>(category)))
        .size();
  }

  // Stages one new rating on some review of \p category.
  void AddRatingIn(size_t category) {
    const Dataset& staged = service_->staged_dataset();
    for (ReviewId review : service_->staged_category_index().ReviewsIn(
             CategoryId(static_cast<uint32_t>(category)))) {
      for (const User& user : staged.users()) {
        if (service_->AddRating(user.id, review, 0.6).ok()) return;
      }
    }
    FAIL() << "no rating left to add in category " << category;
  }

  telemetry::HistogramSnapshot ViewRatingsHistogram() const {
    return service_->metrics_registry()
        ->histogram("service.commit_view_ratings")
        ->Snapshot("service.commit_view_ratings");
  }

  std::unique_ptr<TrustService> service_;
};

TEST_F(CommitScanTest, OneDirtyCategoryScansExactlyItsRatings) {
  const telemetry::HistogramSnapshot before = ViewRatingsHistogram();
  AddRatingIn(3);
  TrustService::CommitStats stats = service_->Commit().ValueOrDie();
  ASSERT_TRUE(stats.published);
  EXPECT_EQ(stats.categories_recomputed, 1u);
  EXPECT_EQ(stats.view_ratings, RatingsIn(3));
  const telemetry::HistogramSnapshot after = ViewRatingsHistogram();
  EXPECT_EQ(after.count, before.count + 1);
  EXPECT_EQ(after.sum - before.sum, static_cast<int64_t>(RatingsIn(3)));
}

TEST_F(CommitScanTest, AddingOnlyAUserScansNothing) {
  service_->AddUser("newcomer");
  TrustService::CommitStats stats = service_->Commit().ValueOrDie();
  ASSERT_TRUE(stats.published);
  EXPECT_EQ(stats.categories_recomputed, 0u);
  EXPECT_EQ(stats.view_ratings, 0u);
}

TEST_F(CommitScanTest, OnlyAllDirtyCommitsScanEveryRating) {
  const Dataset& staged = service_->staged_dataset();
  const size_t num_categories = staged.num_categories();
  for (size_t c = 0; c < num_categories; ++c) {
    ASSERT_GT(RatingsIn(c), 0u) << "category " << c << " has no ratings";
  }
  std::mt19937_64 rng(7);
  for (size_t round = 0; round <= num_categories; ++round) {
    // Dirty a random subset; the last round dirties every category.
    std::vector<size_t> dirty;
    for (size_t c = 0; c < num_categories; ++c) {
      if (round == num_categories || rng() % 3 == 0) {
        AddRatingIn(c);
        dirty.push_back(c);
      }
    }
    TrustService::CommitStats stats = service_->Commit().ValueOrDie();
    size_t expected = 0;
    for (size_t c : dirty) expected += RatingsIn(c);
    EXPECT_EQ(stats.categories_recomputed, dirty.size());
    EXPECT_EQ(stats.view_ratings, expected);
    if (dirty.size() < num_categories) {
      EXPECT_LT(stats.view_ratings, staged.num_ratings());
    } else {
      EXPECT_EQ(stats.view_ratings, staged.num_ratings());
    }
  }
}

TEST(TrustServiceTest, CleanCategoryPostingsAreSharedAcrossSnapshots) {
  Dataset ds = testing::TinyCommunity();
  std::unique_ptr<TrustService> service = MustCreate(ds);
  std::shared_ptr<const TrustSnapshot> v1 = service->Snapshot();

  ASSERT_TRUE(service->AddRating(UserId(3), ReviewId(1), 0.8).ok());
  ASSERT_TRUE(service->Commit().ValueOrDie().published);
  std::shared_ptr<const TrustSnapshot> v2 = service->Snapshot();

  const auto& p1 = v1->deriver().postings();
  const auto& p2 = v2->deriver().postings();
  ASSERT_EQ(p1.size(), 2u);
  ASSERT_EQ(p2.size(), 2u);
  EXPECT_EQ(p1[0].get(), p2[0].get());  // movies untouched: shared
  EXPECT_NE(p1[1].get(), p2[1].get());  // books dirtied: rebuilt
}

TEST(TrustServiceTest, PublishedSnapshotsAreImmutable) {
  Dataset ds = testing::TinyCommunity();
  std::unique_ptr<TrustService> service = MustCreate(ds);
  std::shared_ptr<const TrustSnapshot> v1 = service->Snapshot();
  const double t20 = v1->Trust(2, 0);
  const double t30 = v1->Trust(3, 0);
  const double a_books = v1->affiliation().At(3, 1);

  ASSERT_TRUE(service->AddRating(UserId(3), ReviewId(1), 0.8).ok());
  ASSERT_TRUE(service->Commit().ValueOrDie().published);

  // The old snapshot still serves its original values.
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->Trust(2, 0), t20);
  EXPECT_EQ(v1->Trust(3, 0), t30);
  EXPECT_EQ(v1->affiliation().At(3, 1), a_books);
  // And the new one reflects the appended rating (u3 now has books
  // affinity, so their derived trust changed).
  std::shared_ptr<const TrustSnapshot> v2 = service->Snapshot();
  EXPECT_NE(v2->Trust(3, 0), t30);
}

TEST(TrustServiceTest, OutOfRangeQueriesAnswerEmpty) {
  std::unique_ptr<TrustService> service =
      MustCreate(testing::TinyCommunity());
  EXPECT_EQ(service->Trust(99, 0), 0.0);
  EXPECT_EQ(service->Trust(0, 99), 0.0);
  EXPECT_TRUE(service->TopK(99, 5).empty());
  TrustExplanation explanation = service->ExplainTrust(99, 0);
  EXPECT_EQ(explanation.trust, 0.0);
  EXPECT_TRUE(explanation.terms.empty());
}

TEST(TrustServiceTest, RejectsInvalidAppends) {
  std::unique_ptr<TrustService> service =
      MustCreate(testing::TinyCommunity());
  // Unknown review.
  EXPECT_FALSE(service->AddRating(UserId(0), ReviewId(99), 0.8).ok());
  // Self-rating (r0 was written by u0).
  EXPECT_FALSE(service->AddRating(UserId(0), ReviewId(0), 0.8).ok());
  // Unknown category.
  EXPECT_FALSE(service->AddObject(CategoryId(9), "nowhere").ok());
  // Off-scale rating value.
  EXPECT_FALSE(service->AddRating(UserId(3), ReviewId(1), 0.5).ok());
  // Nothing staged: commit stays a no-op.
  EXPECT_FALSE(service->Commit().ValueOrDie().published);
}

TEST(TrustServiceTest, CreateEmptyThenGrowServes) {
  std::unique_ptr<TrustService> service =
      TrustService::CreateEmpty().ValueOrDie();
  std::shared_ptr<const TrustSnapshot> empty = service->Snapshot();
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->num_users(), 0u);
  EXPECT_EQ(empty->Trust(0, 0), 0.0);

  CategoryId cat = service->AddCategory("movies");
  UserId writer = service->AddUser("writer");
  UserId rater = service->AddUser("rater");
  ObjectId obj = service->AddObject(cat, "obj").ValueOrDie();
  ReviewId review = service->AddReview(writer, obj).ValueOrDie();
  ASSERT_TRUE(service->AddRating(rater, review, 1.0).ok());
  TrustService::CommitStats stats = service->Commit().ValueOrDie();
  EXPECT_TRUE(stats.published);

  EXPECT_GT(service->Trust(rater.index(), writer.index()), 0.0);
  std::vector<ScoredUser> topk = service->TopK(rater.index(), 3);
  ASSERT_EQ(topk.size(), 1u);
  EXPECT_EQ(topk[0].user, writer.index());
}

TEST(TrustServiceTest, StagedReviewCountTracksAppendsBeforeCommit) {
  // Regression for the sharded-ingest id assignment: the router reads
  // another shard's staged review count under that shard's own writer
  // lock via StagedReviewCount() (not through the quiescent-only
  // staged_dataset() ref), so the locked accessor must agree with the
  // staged dataset at every point of the append/commit cycle.
  std::unique_ptr<TrustService> service =
      TrustService::CreateEmpty().ValueOrDie();
  EXPECT_EQ(service->StagedReviewCount(), 0u);

  CategoryId cat = service->AddCategory("movies");
  UserId writer = service->AddUser("writer");
  ObjectId obj = service->AddObject(cat, "obj").ValueOrDie();
  ObjectId obj2 = service->AddObject(cat, "obj2").ValueOrDie();
  ASSERT_TRUE(service->AddReview(writer, obj).ok());
  EXPECT_EQ(service->StagedReviewCount(), 1u);
  ASSERT_TRUE(service->AddReview(writer, obj2).ok());
  EXPECT_EQ(service->StagedReviewCount(), 2u);
  EXPECT_EQ(service->StagedReviewCount(),
            service->staged_dataset().num_reviews());

  ASSERT_TRUE(service->Commit().ok());
  // Commit publishes; the staged side keeps the appended reviews.
  EXPECT_EQ(service->StagedReviewCount(), 2u);
}

TEST(TrustServiceTest, PipelineFacadeExposesSnapshot) {
  Dataset ds = testing::TinyCommunity();
  TrustPipeline pipeline = TrustPipeline::Run(ds).ValueOrDie();
  EXPECT_EQ(pipeline.snapshot().version(), 1u);
  EXPECT_EQ(&pipeline.snapshot().expertise(), &pipeline.expertise());
  EXPECT_EQ(pipeline.snapshot().num_ratings(), ds.num_ratings());
}

}  // namespace
}  // namespace wot
