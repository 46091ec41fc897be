#include "wot/community/category_view.h"

#include <algorithm>
#include <limits>

#include "wot/util/check.h"

namespace wot {

namespace {

constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();

// Local id of \p user, numbering it next (appended to \p ids) when
// \p local_of_user has not seen it yet.
uint32_t LocalId(UserId user, std::vector<uint32_t>* local_of_user,
                 std::vector<UserId>* ids) {
  uint32_t& local = (*local_of_user)[user.index()];
  if (local == kUnseen) {
    local = static_cast<uint32_t>(ids->size());
    ids->push_back(user);
  }
  return local;
}

}  // namespace

CategoryView::CategoryView(CategoryId category)
    : category_(category), review_offsets_(1, 0) {
  WOT_CHECK(category.valid());
}

CategoryView::CategoryView(const Dataset& dataset, const CategoryIndex& index,
                           CategoryId category)
    : CategoryView(category) {
  CatchUp(dataset, index);
}

void CategoryView::CatchUp(const Dataset& dataset,
                           const CategoryIndex& index) {
  WOT_CHECK_EQ(index.num_users(), dataset.num_users());
  WOT_CHECK_EQ(index.num_categories(), dataset.num_categories());
  auto reviews = index.ReviewsIn(category_);
  auto rating_ids = index.RatingsIn(category_);
  const size_t old_reviews = num_reviews();
  const size_t old_ratings = num_ratings();
  WOT_CHECK(reviews.size() >= old_reviews);
  WOT_CHECK(rating_ids.size() >= old_ratings);
  WOT_DCHECK(old_reviews == 0 || reviews[old_reviews - 1] == review_ids_.back());
  if (reviews.size() == old_reviews && rating_ids.size() == old_ratings) {
    return;
  }

  // Global user -> local writer, then local rater.
  std::vector<uint32_t> local_of_user(dataset.num_users(), kUnseen);

  // New reviews; their new writers are numbered first-seen in review order.
  for (size_t lw = 0; lw < writer_ids_.size(); ++lw) {
    local_of_user[writer_ids_[lw].index()] = static_cast<uint32_t>(lw);
  }
  for (size_t lr = old_reviews; lr < reviews.size(); ++lr) {
    review_ids_.push_back(reviews[lr]);
    review_writers_.push_back(LocalId(dataset.review(reviews[lr]).writer,
                                      &local_of_user, &writer_ids_));
  }
  for (UserId writer : writer_ids_) {
    local_of_user[writer.index()] = kUnseen;
  }
  const size_t total_reviews = review_ids_.size();
  // A new review's run starts empty, past every old rating.
  review_offsets_.resize(total_reviews + 1,
                         static_cast<uint32_t>(old_ratings));

  // New ratings, in rating-id order: number their new raters first-seen
  // and count what each review gains.
  for (size_t lx = 0; lx < rater_ids_.size(); ++lx) {
    local_of_user[rater_ids_[lx].index()] = static_cast<uint32_t>(lx);
  }
  const std::vector<ReviewRating>& ratings = dataset.ratings();
  auto new_ids = rating_ids.subspan(old_ratings);
  std::vector<uint32_t> next(total_reviews, 0);
  for (uint32_t id : new_ids) {
    const ReviewRating& rating = ratings[id];
    const uint32_t lx = LocalId(rating.rater, &local_of_user, &rater_ids_);
    rater_rating_counts_.resize(rater_ids_.size(), 0);
    ++rater_rating_counts_[lx];
    ++next[index.PositionInCategory(rating.review)];
  }

  // One backward pass moves each old run up by the ratings its review and
  // the reviews before it gain, last run first, so no run is overwritten
  // before it has moved. It stops once nothing is gained at or before a
  // review: that run and all earlier ones stay put. next[lr] turns from
  // the count review lr gains into the slot its first new rating takes,
  // right after its old run.
  const size_t total_ratings = old_ratings + new_ids.size();
  rating_raters_.resize(total_ratings);
  rating_values_.resize(total_ratings);
  size_t shift = new_ids.size();  // ratings gained by reviews <= lr
  size_t old_end = old_ratings;
  for (size_t lr = total_reviews; lr-- > 0 && shift > 0;) {
    const size_t old_begin = review_offsets_[lr];
    const size_t new_end = old_end + shift;
    const size_t first_new = new_end - next[lr];
    std::move_backward(rating_raters_.begin() + old_begin,
                       rating_raters_.begin() + old_end,
                       rating_raters_.begin() + first_new);
    std::move_backward(rating_values_.begin() + old_begin,
                       rating_values_.begin() + old_end,
                       rating_values_.begin() + first_new);
    review_offsets_[lr + 1] = static_cast<uint32_t>(new_end);
    shift -= next[lr];
    next[lr] = static_cast<uint32_t>(first_new);
    old_end = old_begin;
  }

  // Fill the gaps in rating-id order, so each run stays in that order.
  for (uint32_t id : new_ids) {
    const ReviewRating& rating = ratings[id];
    const uint32_t slot = next[index.PositionInCategory(rating.review)]++;
    rating_raters_[slot] = local_of_user[rating.rater.index()];
    rating_values_[slot] = rating.value;
  }
}

std::span<const uint32_t> CategoryView::RatersOfReview(
    size_t local_review) const {
  WOT_DCHECK(local_review < num_reviews());
  const uint32_t begin = review_offsets_[local_review];
  const uint32_t end = review_offsets_[local_review + 1];
  return {rating_raters_.data() + begin, end - begin};
}

std::span<const double> CategoryView::ValuesOfReview(
    size_t local_review) const {
  WOT_DCHECK(local_review < num_reviews());
  const uint32_t begin = review_offsets_[local_review];
  const uint32_t end = review_offsets_[local_review + 1];
  return {rating_values_.data() + begin, end - begin};
}

}  // namespace wot
