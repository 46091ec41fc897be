// Shared hand-built datasets for unit tests. Small enough to verify
// every number by hand.
#ifndef WOT_TESTS_TESTING_FIXTURES_H_
#define WOT_TESTS_TESTING_FIXTURES_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "wot/community/dataset.h"
#include "wot/community/dataset_builder.h"
#include "wot/util/check.h"

namespace wot {
namespace testing {

/// A two-category community with four users:
///   u0 writes r0 (movies/m0) and r1 (books/b0)
///   u1 writes r2 (movies/m1)
///   u2 rates r0=1.0, r1=0.6, r2=0.2
///   u3 rates r0=0.8
///   trust: u2 -> u0, u3 -> u0
///
/// Review ids are assigned in the order above (r0=0, r1=1, r2=2).
inline Dataset TinyCommunity() {
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

  WOT_CHECK_OK(builder.AddTrust(u2, u0));
  WOT_CHECK_OK(builder.AddTrust(u3, u0));
  return builder.Build().ValueOrDie();
}

/// One category, one review by u0, rated by u1 (1.0) and u2 (0.2).
/// The simplest non-degenerate fixed-point input.
inline Dataset SingleReviewCommunity() {
  DatasetBuilder builder;
  CategoryId cat = builder.AddCategory("only");
  UserId u0 = builder.AddUser("u0");
  UserId u1 = builder.AddUser("u1");
  UserId u2 = builder.AddUser("u2");
  ObjectId obj = builder.AddObject(cat, "obj").ValueOrDie();
  ReviewId review = builder.AddReview(u0, obj).ValueOrDie();
  WOT_CHECK_OK(builder.AddRating(u1, review, 1.0));
  WOT_CHECK_OK(builder.AddRating(u2, review, 0.2));
  return builder.Build().ValueOrDie();
}

namespace internal {
template <typename Row, typename Same>
std::string ColumnDiff(const char* column, const std::vector<Row>& a,
                       const std::vector<Row>& b, const Same& same) {
  if (a.size() != b.size()) {
    return std::string(column) + ": " + std::to_string(a.size()) +
           " rows vs " + std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) {
      return std::string(column) + " row " + std::to_string(i) + " differs";
    }
  }
  return "";
}
}  // namespace internal

/// Names the first column row in which \p a and \p b differ (every field,
/// ids included, rating values bit for bit), or "" when they are
/// field-identical.
inline std::string DatasetDiff(const Dataset& a, const Dataset& b) {
  using internal::ColumnDiff;
  std::string diff = ColumnDiff(
      "categories", a.categories(), b.categories(),
      [](const Category& x, const Category& y) {
        return x.id == y.id && x.name == y.name;
      });
  if (diff.empty()) {
    diff = ColumnDiff("users", a.users(), b.users(),
                      [](const User& x, const User& y) {
                        return x.id == y.id && x.name == y.name;
                      });
  }
  if (diff.empty()) {
    diff = ColumnDiff("objects", a.objects(), b.objects(),
                      [](const Object& x, const Object& y) {
                        return x.id == y.id && x.category == y.category &&
                               x.name == y.name;
                      });
  }
  if (diff.empty()) {
    diff = ColumnDiff("reviews", a.reviews(), b.reviews(),
                      [](const Review& x, const Review& y) {
                        return x.id == y.id && x.writer == y.writer &&
                               x.object == y.object &&
                               x.category == y.category;
                      });
  }
  if (diff.empty()) {
    diff = ColumnDiff("ratings", a.ratings(), b.ratings(),
                      [](const ReviewRating& x, const ReviewRating& y) {
                        return x.rater == y.rater && x.review == y.review &&
                               std::bit_cast<uint64_t>(x.value) ==
                                   std::bit_cast<uint64_t>(y.value);
                      });
  }
  if (diff.empty()) {
    diff = ColumnDiff("trust", a.trust_statements(), b.trust_statements(),
                      [](const TrustStatement& x, const TrustStatement& y) {
                        return x.source == y.source && x.target == y.target;
                      });
  }
  return diff;
}

}  // namespace testing
}  // namespace wot

#endif  // WOT_TESTS_TESTING_FIXTURES_H_
