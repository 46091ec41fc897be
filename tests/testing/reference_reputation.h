// Reference Step 1 (eqs. 1-3) in the two-sweep form the engine used before
// its fused pass: ratings grouped by review for eq. 1, regrouped by rater
// for eq. 2, and reviews grouped by writer for eq. 3, each group summed in
// ascending review order. It reads the dataset directly, with no
// CategoryView, so the engine's slices and fused sweep are checked against
// an independent derivation. The arithmetic of each equation is kept
// term for term, so the engine must agree bit for bit.
#ifndef WOT_TESTS_TESTING_REFERENCE_REPUTATION_H_
#define WOT_TESTS_TESTING_REFERENCE_REPUTATION_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "wot/community/dataset.h"
#include "wot/reputation/engine.h"

namespace wot {
namespace testing {

inline ReputationResult ReferenceReputations(
    const Dataset& dataset, const ReputationOptions& options) {
  const size_t num_users = dataset.num_users();
  const size_t num_categories = dataset.num_categories();
  ReputationResult result;
  result.expertise = DenseMatrix(num_users, num_categories, 0.0);
  result.rater_reputation = DenseMatrix(num_users, num_categories, 0.0);
  result.review_quality.assign(dataset.num_reviews(), 0.0);
  result.convergence.assign(num_categories, ConvergenceInfo{});

  auto category_of = [&](ReviewId review) {
    return dataset.object(dataset.review(review).object).category.index();
  };
  for (size_t c = 0; c < num_categories; ++c) {
    // Reviews ascending by id; each review's ratings in rating-id order.
    std::vector<ReviewId> reviews;
    std::vector<size_t> local(dataset.num_reviews(), 0);
    for (const Review& review : dataset.reviews()) {
      if (category_of(review.id) != c) continue;
      local[review.id.index()] = reviews.size();
      reviews.push_back(review.id);
    }
    std::vector<std::vector<std::pair<size_t, double>>> by_review(
        reviews.size());  // (global rater, value)
    for (const ReviewRating& rating : dataset.ratings()) {
      if (category_of(rating.review) != c) continue;
      by_review[local[rating.review.index()]].emplace_back(
          rating.rater.index(), rating.value);
    }
    // Rater- and writer-side groupings, in ascending review order.
    std::vector<std::vector<std::pair<size_t, double>>> by_rater(
        num_users);  // (local review, value)
    std::vector<std::vector<size_t>> by_writer(num_users);
    for (size_t lr = 0; lr < reviews.size(); ++lr) {
      by_writer[dataset.review(reviews[lr]).writer.index()].push_back(lr);
      for (const auto& [rater, value] : by_review[lr]) {
        by_rater[rater].emplace_back(lr, value);
      }
    }

    std::vector<double> reputation(num_users, 1.0);
    std::vector<double> quality(reviews.size(), 0.0);
    std::vector<double> next(reviews.size());
    ConvergenceInfo convergence;
    for (size_t iter = 0; iter < options.max_iterations; ++iter) {
      // Eq. 1.
      for (size_t lr = 0; lr < reviews.size(); ++lr) {
        next[lr] = 0.0;
        if (by_review[lr].empty()) continue;
        double weighted_sum = 0.0;
        double weight_total = 0.0;
        for (const auto& [rater, value] : by_review[lr]) {
          double w = options.use_rater_weighting ? reputation[rater] : 1.0;
          weighted_sum += w * value;
          weight_total += w;
        }
        if (weight_total > 0.0) {
          next[lr] = weighted_sum / weight_total;
        } else {
          double sum = 0.0;
          for (const auto& rating : by_review[lr]) sum += rating.second;
          next[lr] = sum / static_cast<double>(by_review[lr].size());
        }
      }
      double delta = 0.0;
      for (size_t lr = 0; lr < reviews.size(); ++lr) {
        delta = std::max(delta, std::fabs(next[lr] - quality[lr]));
      }
      quality.swap(next);
      // Eq. 2.
      for (size_t u = 0; u < num_users; ++u) {
        if (by_rater[u].empty()) continue;
        double deviation_sum = 0.0;
        for (const auto& [lr, value] : by_rater[u]) {
          deviation_sum += std::fabs(quality[lr] - value);
        }
        const double n = static_cast<double>(by_rater[u].size());
        double rep = 1.0 - deviation_sum / n;
        if (options.use_experience_discount) rep *= 1.0 - 1.0 / (n + 1.0);
        reputation[u] = std::clamp(rep, 0.0, 1.0);
      }
      convergence.iterations = iter + 1;
      convergence.final_delta = delta;
      if (delta < options.tolerance ||
          (!options.use_rater_weighting && iter >= 1)) {
        convergence.converged = true;
        break;
      }
    }

    for (size_t u = 0; u < num_users; ++u) {
      if (!by_rater[u].empty()) {
        result.rater_reputation.At(u, c) = reputation[u];
      }
      if (by_writer[u].empty()) continue;
      // Eq. 3.
      double sum = 0.0;
      for (size_t lr : by_writer[u]) sum += quality[lr];
      const double n = static_cast<double>(by_writer[u].size());
      double rep = sum / n;
      if (options.use_experience_discount) rep *= 1.0 - 1.0 / (n + 1.0);
      result.expertise.At(u, c) = std::clamp(rep, 0.0, 1.0);
    }
    for (size_t lr = 0; lr < reviews.size(); ++lr) {
      result.review_quality[reviews[lr].index()] = quality[lr];
    }
    result.convergence[c] = convergence;
  }
  return result;
}

inline uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Every matrix entry, quality and convergence field, compared as bits.
inline void ExpectBitIdentical(const ReputationResult& actual,
                               const ReputationResult& expected) {
  ASSERT_EQ(actual.expertise.rows(), expected.expertise.rows());
  ASSERT_EQ(actual.expertise.cols(), expected.expertise.cols());
  ASSERT_EQ(actual.rater_reputation.rows(), expected.rater_reputation.rows());
  ASSERT_EQ(actual.rater_reputation.cols(), expected.rater_reputation.cols());
  for (size_t u = 0; u < expected.expertise.rows(); ++u) {
    for (size_t c = 0; c < expected.expertise.cols(); ++c) {
      ASSERT_EQ(Bits(actual.expertise.At(u, c)),
                Bits(expected.expertise.At(u, c)))
          << "expertise of user " << u << " in category " << c;
      ASSERT_EQ(Bits(actual.rater_reputation.At(u, c)),
                Bits(expected.rater_reputation.At(u, c)))
          << "rater reputation of user " << u << " in category " << c;
    }
  }
  ASSERT_EQ(actual.review_quality.size(), expected.review_quality.size());
  for (size_t r = 0; r < expected.review_quality.size(); ++r) {
    ASSERT_EQ(Bits(actual.review_quality[r]),
              Bits(expected.review_quality[r]))
        << "quality of review " << r;
  }
  ASSERT_EQ(actual.convergence.size(), expected.convergence.size());
  for (size_t c = 0; c < expected.convergence.size(); ++c) {
    EXPECT_EQ(actual.convergence[c].iterations,
              expected.convergence[c].iterations)
        << "category " << c;
    EXPECT_EQ(Bits(actual.convergence[c].final_delta),
              Bits(expected.convergence[c].final_delta))
        << "category " << c;
    EXPECT_EQ(actual.convergence[c].converged,
              expected.convergence[c].converged)
        << "category " << c;
  }
}

}  // namespace testing
}  // namespace wot

#endif  // WOT_TESTS_TESTING_REFERENCE_REPUTATION_H_
