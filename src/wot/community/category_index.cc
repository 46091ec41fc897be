#include "wot/community/category_index.h"

#include <utility>

namespace wot {

CategoryIndex::CategoryIndex(const Dataset& dataset)
    : num_users_(dataset.num_users()),
      num_categories_(dataset.num_categories()),
      reviews_(num_categories_),
      ratings_(num_categories_),
      review_position_(dataset.num_reviews()),
      write_counts_(num_users_ * num_categories_, 0),
      rate_counts_(num_users_ * num_categories_, 0) {
  const std::vector<Review>& reviews = dataset.reviews();
  const std::vector<ReviewRating>& ratings = dataset.ratings();

  // Size every list exactly before filling it: the index lives as long as
  // the service, so growth slack would be resident memory.
  std::vector<size_t> per_category(num_categories_, 0);
  for (const Review& review : reviews) {
    ++per_category[review.category.index()];
  }
  for (size_t c = 0; c < num_categories_; ++c) {
    reviews_[c].reserve(per_category[c]);
    per_category[c] = 0;
  }
  std::vector<uint32_t> rating_category(ratings.size());
  for (size_t k = 0; k < ratings.size(); ++k) {
    const uint32_t c =
        reviews[ratings[k].review.index()].category.value();
    rating_category[k] = c;
    ++per_category[c];
  }
  for (size_t c = 0; c < num_categories_; ++c) {
    ratings_[c].reserve(per_category[c]);
  }

  for (const Review& review : reviews) {
    FileReview(review);
  }
  for (size_t k = 0; k < ratings.size(); ++k) {
    ratings_[rating_category[k]].push_back(static_cast<uint32_t>(k));
    ++rate_counts_[ratings[k].rater.index() * num_categories_ +
                   rating_category[k]];
  }
}

void CategoryIndex::AddUser() {
  ++num_users_;
  write_counts_.resize(num_users_ * num_categories_, 0);
  rate_counts_.resize(num_users_ * num_categories_, 0);
}

void CategoryIndex::AddCategory() {
  // Widen every user's row by one zero column. Categories are few and
  // added up front, so the re-layout is rare.
  const size_t old_stride = num_categories_;
  ++num_categories_;
  auto widen = [&](std::vector<uint32_t>* counts) {
    std::vector<uint32_t> widened(num_users_ * num_categories_, 0);
    for (size_t u = 0; u < num_users_; ++u) {
      for (size_t c = 0; c < old_stride; ++c) {
        widened[u * num_categories_ + c] = (*counts)[u * old_stride + c];
      }
    }
    *counts = std::move(widened);
  };
  widen(&write_counts_);
  widen(&rate_counts_);
  reviews_.emplace_back();
  ratings_.emplace_back();
}

void CategoryIndex::AddReview(const Review& review) {
  review_position_.push_back(0);
  FileReview(review);
}

void CategoryIndex::FileReview(const Review& review) {
  std::vector<ReviewId>& in_category = reviews_[review.category.index()];
  review_position_[review.id.index()] =
      static_cast<uint32_t>(in_category.size());
  in_category.push_back(review.id);
  ++write_counts_[review.writer.index() * num_categories_ +
                  review.category.index()];
}

void CategoryIndex::AddRating(uint32_t rating_id, const ReviewRating& rating,
                              CategoryId category) {
  ratings_[category.index()].push_back(rating_id);
  ++rate_counts_[rating.rater.index() * num_categories_ + category.index()];
}

}  // namespace wot
