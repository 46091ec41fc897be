// Property: DatasetBuilder::Adopt, the bulk column check every boot goes
// through, is indistinguishable from replaying the same columns through
// the per-row Add* calls. On synthetic communities carrying injected
// policy violations, under strict and permissive options, both paths
// accept the same datasets with the same Status, produce field-identical
// datasets and category indices, and then answer any further stream of
// Add* calls identically (the sorted dedup base plus the keys added since
// behaves like the per-row key set).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "testing/fixtures.h"
#include "wot/community/dataset_builder.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

// A dataset as raw columns, so violations no Dataset can hold (an unknown
// reference) can be injected too.
struct Columns {
  std::vector<Category> categories;
  std::vector<User> users;
  std::vector<Object> objects;
  std::vector<Review> reviews;
  std::vector<ReviewRating> ratings;
  std::vector<TrustStatement> trust;
};

Columns ColumnsOf(const Dataset& dataset) {
  return {dataset.categories(), dataset.users(),
          dataset.objects(),    dataset.reviews(),
          dataset.ratings(),    dataset.trust_statements()};
}

enum class Violation {
  kUnknownReference,
  kOffScale,
  kSelfRating,
  kDuplicateRating,
  kDuplicateReview,
  kSelfTrust,
  kDuplicateTrust,
};

size_t Pick(std::mt19937_64& rng, size_t bound) {
  return bound == 0 ? 0 : static_cast<size_t>(rng() % bound);
}

// Injects one violation of \p kind at a random row. Rows are inserted
// (not appended) where position matters, so the first failing row varies.
void Inject(Violation kind, Columns& c, std::mt19937_64& rng) {
  switch (kind) {
    case Violation::kUnknownReference:
      switch (Pick(rng, 3)) {
        case 0:
          c.ratings[Pick(rng, c.ratings.size())].review =
              ReviewId(static_cast<uint32_t>(c.reviews.size()));
          break;
        case 1:
          c.reviews[Pick(rng, c.reviews.size())].writer =
              UserId(static_cast<uint32_t>(c.users.size()) + 3);
          break;
        default:
          c.trust.push_back(
              {UserId(0), UserId(static_cast<uint32_t>(c.users.size()))});
      }
      break;
    case Violation::kOffScale:
      c.ratings[Pick(rng, c.ratings.size())].value = 0.5;
      break;
    case Violation::kSelfRating: {
      ReviewRating& rating = c.ratings[Pick(rng, c.ratings.size())];
      rating.rater = c.reviews[rating.review.index()].writer;
      break;
    }
    case Violation::kDuplicateRating: {
      const size_t from = Pick(rng, c.ratings.size());
      ReviewRating copy = c.ratings[from];
      copy.value = 0.2;
      const size_t at = from + 1 + Pick(rng, c.ratings.size() - from);
      c.ratings.insert(c.ratings.begin() + static_cast<ptrdiff_t>(at), copy);
      break;
    }
    case Violation::kDuplicateReview: {
      const size_t from = Pick(rng, c.reviews.size());
      const Review copy = c.reviews[from];
      const uint32_t at = static_cast<uint32_t>(
          from + 1 + Pick(rng, c.reviews.size() - from));
      c.reviews.insert(c.reviews.begin() + at, copy);
      for (ReviewRating& rating : c.ratings) {
        if (rating.review.value() >= at) {
          rating.review = ReviewId(rating.review.value() + 1);
        }
      }
      break;
    }
    case Violation::kSelfTrust: {
      const UserId user(static_cast<uint32_t>(Pick(rng, c.users.size())));
      c.trust.insert(c.trust.begin() + static_cast<ptrdiff_t>(
                                           Pick(rng, c.trust.size() + 1)),
                     {user, user});
      break;
    }
    case Violation::kDuplicateTrust: {
      if (c.trust.empty()) c.trust.push_back({UserId(0), UserId(1)});
      const size_t from = Pick(rng, c.trust.size());
      const TrustStatement copy = c.trust[from];
      const size_t at = from + 1 + Pick(rng, c.trust.size() - from);
      c.trust.insert(c.trust.begin() + static_cast<ptrdiff_t>(at), copy);
      break;
    }
  }
}

// The reference: every row through its Add* call, in column order.
Status Replay(const Columns& c, DatasetBuilder& builder) {
  for (const Category& category : c.categories) {
    builder.AddCategory(category.name);
  }
  for (const User& user : c.users) builder.AddUser(user.name);
  for (const Object& object : c.objects) {
    WOT_RETURN_IF_ERROR(builder.AddObject(object.category, object.name)
                            .status());
  }
  for (const Review& review : c.reviews) {
    WOT_RETURN_IF_ERROR(builder.AddReview(review.writer, review.object)
                            .status());
  }
  for (const ReviewRating& rating : c.ratings) {
    WOT_RETURN_IF_ERROR(
        builder.AddRating(rating.rater, rating.review, rating.value));
  }
  for (const TrustStatement& statement : c.trust) {
    WOT_RETURN_IF_ERROR(builder.AddTrust(statement.source, statement.target));
  }
  return Status::OK();
}

// The bulk path every loader takes: assemble the columns, then adopt.
Status AdoptColumns(Columns c, DatasetBuilder& builder) {
  Result<Dataset> dataset = DatasetBuilder::FromValidatedColumns(
      std::move(c.categories), std::move(c.users), std::move(c.objects),
      std::move(c.reviews), std::move(c.ratings), std::move(c.trust));
  if (!dataset.ok()) return dataset.status();
  return builder.Adopt(std::move(dataset).ValueOrDie());
}

void ExpectSameStatus(const Status& row, const Status& bulk) {
  EXPECT_EQ(row.code(), bulk.code())
      << "row: " << row.message() << " | bulk: " << bulk.message();
  EXPECT_EQ(row.message(), bulk.message());
}

// Applies the same random Add* stream to both builders, mixing valid
// appends with repeats of existing keys, self-ratings, off-scale values,
// self-trust and unknown ids, and requires identical answers.
void ExpectSameFurtherIngest(DatasetBuilder& row, DatasetBuilder& bulk,
                             std::mt19937_64& rng) {
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("ingest step " + std::to_string(step));
    const Dataset& ds = row.StagedView();
    const size_t users = ds.num_users() + 1;  // one past the end too
    const UserId user(static_cast<uint32_t>(Pick(rng, users)));
    const UserId other(static_cast<uint32_t>(Pick(rng, users)));
    switch (Pick(rng, 8)) {
      case 0:
        EXPECT_EQ(row.AddUser("new"), bulk.AddUser("new"));
        break;
      case 1: {
        const CategoryId category(
            static_cast<uint32_t>(Pick(rng, ds.num_categories() + 1)));
        Result<ObjectId> a = row.AddObject(category, "o");
        Result<ObjectId> b = bulk.AddObject(category, "o");
        ExpectSameStatus(a.status(), b.status());
        break;
      }
      case 2: {
        // Often an existing (writer, object) pair.
        ObjectId object(
            static_cast<uint32_t>(Pick(rng, ds.num_objects() + 1)));
        UserId writer = user;
        if (rng() % 2 == 0 && ds.num_reviews() > 0) {
          const Review& existing = ds.reviews()[Pick(rng, ds.num_reviews())];
          writer = existing.writer;
          object = existing.object;
        }
        Result<ReviewId> a = row.AddReview(writer, object);
        Result<ReviewId> b = bulk.AddReview(writer, object);
        ExpectSameStatus(a.status(), b.status());
        if (a.ok() && b.ok()) {
          EXPECT_EQ(a.ValueOrDie(), b.ValueOrDie());
        }
        break;
      }
      case 3:
      case 4:
      case 5: {
        // Often an existing (rater, review) pair or the review's writer.
        UserId rater = user;
        ReviewId review(
            static_cast<uint32_t>(Pick(rng, ds.num_reviews() + 1)));
        if (rng() % 2 == 0 && ds.num_ratings() > 0) {
          const ReviewRating& existing =
              ds.ratings()[Pick(rng, ds.num_ratings())];
          rater = existing.rater;
          review = existing.review;
        } else if (rng() % 4 == 0 && review.index() < ds.num_reviews()) {
          rater = ds.review(review).writer;
        }
        const double value = rng() % 5 == 0 ? 0.7 : 0.2 * (1 + Pick(rng, 5));
        ExpectSameStatus(row.AddRating(rater, review, value),
                         bulk.AddRating(rater, review, value));
        break;
      }
      default: {
        UserId source = user;
        UserId target = other;
        if (rng() % 2 == 0 && ds.num_trust_statements() > 0) {
          const TrustStatement& existing =
              ds.trust_statements()[Pick(rng, ds.num_trust_statements())];
          source = existing.source;
          target = existing.target;
        }
        ExpectSameStatus(row.AddTrust(source, target),
                         bulk.AddTrust(source, target));
      }
    }
  }
  EXPECT_EQ(testing::DatasetDiff(row.StagedView(), bulk.StagedView()), "");
  EXPECT_EQ(row.category_index(), bulk.category_index());
}

TEST(AdoptPropertyTest, BulkCheckMatchesRowReplay) {
  DatasetBuilderOptions permissive;
  permissive.enforce_one_review_per_object = false;
  permissive.reject_self_ratings = false;
  permissive.reject_duplicate_ratings = false;
  permissive.enforce_rating_scale = false;
  permissive.reject_degenerate_trust = false;
  const std::vector<Violation> kinds = {
      Violation::kOffScale,        Violation::kSelfRating,
      Violation::kDuplicateRating, Violation::kDuplicateReview,
      Violation::kSelfTrust,       Violation::kDuplicateTrust};

  size_t accepted = 0;
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    SynthConfig config;
    config.num_users = 40 + seed % 40;
    config.max_ratings_per_user = 15.0;
    config.seed = seed;
    Columns columns =
        ColumnsOf(GenerateCommunity(config).ValueOrDie().dataset);
    ASSERT_FALSE(columns.reviews.empty());
    ASSERT_FALSE(columns.ratings.empty());
    // A Dataset cannot hold an unknown reference, so FromValidatedColumns
    // rejects it before Adopt runs; it is injected alone. The policy
    // violations combine freely: zero or one of each kind.
    std::string injected;
    if (seed % 5 == 0) {
      Inject(Violation::kUnknownReference, columns, rng);
      injected = "unknown-reference";
    } else {
      for (size_t k = 0; k < kinds.size(); ++k) {
        if (rng() % 3 == 0) {
          Inject(kinds[k], columns, rng);
          injected += std::to_string(k) + " ";
        }
      }
    }
    for (const DatasetBuilderOptions& options : {DatasetBuilderOptions(),
                                                 permissive}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " injected {" +
                   injected + "} strict " +
                   std::to_string(options.reject_self_ratings));
      DatasetBuilder row(options);
      DatasetBuilder bulk(options);
      const Status row_status = Replay(columns, row);
      const Status bulk_status = AdoptColumns(columns, bulk);
      EXPECT_EQ(row_status.code(), bulk_status.code())
          << "row: " << row_status.message()
          << " | bulk: " << bulk_status.message();
      if (!row_status.ok()) {
        ++rejected;
        if (injected != "unknown-reference") {
          EXPECT_EQ(row_status.message(), bulk_status.message());
        }
        // A rejected adoption leaves the builder empty and reusable.
        EXPECT_EQ(bulk.StagedView().num_users(), 0u);
        EXPECT_TRUE(bulk.Adopt(Dataset()).ok());
        continue;
      }
      ++accepted;
      ASSERT_TRUE(bulk_status.ok()) << bulk_status.message();
      ASSERT_EQ(testing::DatasetDiff(row.StagedView(), bulk.StagedView()),
                "");
      EXPECT_EQ(row.category_index(), bulk.category_index());
      ExpectSameFurtherIngest(row, bulk, rng);
    }
  }
  // Both verdicts are exercised, under both option sets.
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(rejected, 10u);
}

}  // namespace
}  // namespace wot
