#include "wot/community/dataset_builder.h"

#include <algorithm>
#include <utility>

namespace wot {

namespace {
uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

Status DuplicateReview(UserId writer, ObjectId object) {
  return Status::AlreadyExists("user " + std::to_string(writer.value()) +
                               " already reviewed object " +
                               std::to_string(object.value()));
}

Status DuplicateRating(UserId rater, ReviewId review) {
  return Status::AlreadyExists("user " + std::to_string(rater.value()) +
                               " already rated review " +
                               std::to_string(review.value()));
}

Status DuplicateTrust() {
  return Status::AlreadyExists("duplicate trust statement");
}

// Checks one column the way replaying it through its Add* call would: the
// verdict is that of the first row that fails \p check or, when \p dedup,
// repeats the key of an earlier row. On success with \p dedup,
// *sorted_keys receives the column's keys, sorted.
template <typename Row, typename Check, typename KeyOf, typename DupError>
Status CheckColumn(const std::vector<Row>& rows, const Check& check,
                   bool dedup, const KeyOf& key_of,
                   const DupError& duplicate_error,
                   std::vector<uint64_t>* sorted_keys) {
  size_t passed = rows.size();
  Status row_status;
  for (size_t i = 0; i < rows.size(); ++i) {
    row_status = check(rows[i]);
    if (!row_status.ok()) {
      passed = i;
      break;
    }
  }
  if (!dedup) return row_status;
  // Only rows before the first failing one can repeat a key first.
  std::vector<uint64_t> keys(passed);
  for (size_t i = 0; i < passed; ++i) keys[i] = key_of(rows[i]);
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    // Error path only: name the first row that repeats an earlier one.
    std::unordered_set<uint64_t> seen;
    for (size_t i = 0;; ++i) {
      if (!seen.insert(key_of(rows[i])).second) {
        return duplicate_error(rows[i]);
      }
    }
  }
  *sorted_keys = std::move(keys);
  return row_status;
}
}  // namespace

bool DatasetBuilder::KeySet::Insert(uint64_t key) {
  if (std::binary_search(base_.begin(), base_.end(), key)) return false;
  return added_.insert(key).second;
}

DatasetBuilder::DatasetBuilder(DatasetBuilderOptions options)
    : options_(options) {}

UserId DatasetBuilder::AddUser(std::string name) {
  UserId id(static_cast<uint32_t>(dataset_.users_.size()));
  dataset_.users_.push_back({id, std::move(name)});
  index_.AddUser();
  return id;
}

CategoryId DatasetBuilder::AddCategory(std::string name) {
  CategoryId id(static_cast<uint32_t>(dataset_.categories_.size()));
  dataset_.categories_.push_back({id, std::move(name)});
  index_.AddCategory();
  return id;
}

Status DatasetBuilder::CheckObject(CategoryId category) const {
  if (!category.valid() ||
      category.index() >= dataset_.categories_.size()) {
    return Status::InvalidArgument("object references unknown category");
  }
  return Status::OK();
}

Result<ObjectId> DatasetBuilder::AddObject(CategoryId category,
                                           std::string name) {
  WOT_RETURN_IF_ERROR(CheckObject(category));
  ObjectId id(static_cast<uint32_t>(dataset_.objects_.size()));
  dataset_.objects_.push_back({id, category, std::move(name)});
  return id;
}

Status DatasetBuilder::CheckUser(UserId id, const char* role) const {
  if (!id.valid() || id.index() >= dataset_.users_.size()) {
    return Status::InvalidArgument(std::string("unknown ") + role +
                                   " user id");
  }
  return Status::OK();
}

Status DatasetBuilder::CheckReview(UserId writer, ObjectId object) const {
  WOT_RETURN_IF_ERROR(CheckUser(writer, "writer"));
  if (!object.valid() || object.index() >= dataset_.objects_.size()) {
    return Status::InvalidArgument("review references unknown object");
  }
  return Status::OK();
}

Result<ReviewId> DatasetBuilder::AddReview(UserId writer, ObjectId object) {
  WOT_RETURN_IF_ERROR(CheckReview(writer, object));
  if (options_.enforce_one_review_per_object &&
      !review_keys_.Insert(PairKey(writer.value(), object.value()))) {
    return DuplicateReview(writer, object);
  }
  ReviewId id(static_cast<uint32_t>(dataset_.reviews_.size()));
  dataset_.reviews_.push_back(
      {id, writer, object, dataset_.objects_[object.index()].category});
  index_.AddReview(dataset_.reviews_.back());
  return id;
}

Status DatasetBuilder::CheckRating(UserId rater, ReviewId review,
                                   double value) const {
  WOT_RETURN_IF_ERROR(CheckUser(rater, "rater"));
  if (!review.valid() || review.index() >= dataset_.reviews_.size()) {
    return Status::InvalidArgument("rating references unknown review");
  }
  if (options_.reject_self_ratings &&
      dataset_.reviews_[review.index()].writer == rater) {
    return Status::FailedPrecondition(
        "user " + std::to_string(rater.value()) +
        " may not rate their own review");
  }
  if (options_.enforce_rating_scale && !rating_scale::IsValidStage(value)) {
    return Status::InvalidArgument(
        "rating value " + std::to_string(value) +
        " is not one of the five scale stages {0.2,0.4,0.6,0.8,1.0}");
  }
  return Status::OK();
}

Status DatasetBuilder::AddRating(UserId rater, ReviewId review,
                                 double value) {
  WOT_RETURN_IF_ERROR(CheckRating(rater, review, value));
  if (options_.reject_duplicate_ratings &&
      !rating_keys_.Insert(PairKey(rater.value(), review.value()))) {
    return DuplicateRating(rater, review);
  }
  const uint32_t rating_id = static_cast<uint32_t>(dataset_.ratings_.size());
  dataset_.ratings_.push_back({rater, review, value});
  index_.AddRating(rating_id, dataset_.ratings_.back(),
                   dataset_.reviews_[review.index()].category);
  return Status::OK();
}

Status DatasetBuilder::CheckTrust(UserId source, UserId target) const {
  WOT_RETURN_IF_ERROR(CheckUser(source, "trust source"));
  WOT_RETURN_IF_ERROR(CheckUser(target, "trust target"));
  if (options_.reject_degenerate_trust && source == target) {
    return Status::InvalidArgument("self-trust statement rejected");
  }
  return Status::OK();
}

Status DatasetBuilder::AddTrust(UserId source, UserId target) {
  WOT_RETURN_IF_ERROR(CheckTrust(source, target));
  if (options_.reject_degenerate_trust &&
      !trust_keys_.Insert(PairKey(source.value(), target.value()))) {
    return DuplicateTrust();
  }
  dataset_.trust_.push_back({source, target});
  return Status::OK();
}

Result<Dataset> DatasetBuilder::Build() {
  Dataset out = std::move(dataset_);
  dataset_ = Dataset();
  index_ = CategoryIndex();
  review_keys_ = KeySet();
  rating_keys_ = KeySet();
  trust_keys_ = KeySet();
  return out;
}

Status DatasetBuilder::Adopt(Dataset dataset) {
  if (!dataset_.users_.empty() || !dataset_.categories_.empty() ||
      !dataset_.objects_.empty() || !dataset_.reviews_.empty() ||
      !dataset_.ratings_.empty() || !dataset_.trust_.empty()) {
    return Status::FailedPrecondition("Adopt requires an empty builder");
  }
  // Each Add* call checks its row against earlier columns only, so
  // checking every row against the whole adopted dataset, column by column
  // in replay order, reaches the replay's verdict.
  dataset_ = std::move(dataset);
  std::vector<uint64_t> review_keys;
  std::vector<uint64_t> rating_keys;
  std::vector<uint64_t> trust_keys;
  Status status;
  for (const Object& object : dataset_.objects_) {
    status = CheckObject(object.category);
    if (!status.ok()) break;
  }
  if (status.ok()) {
    status = CheckColumn(
        dataset_.reviews_,
        [this](const Review& r) { return CheckReview(r.writer, r.object); },
        options_.enforce_one_review_per_object,
        [](const Review& r) {
          return PairKey(r.writer.value(), r.object.value());
        },
        [](const Review& r) { return DuplicateReview(r.writer, r.object); },
        &review_keys);
  }
  if (status.ok()) {
    status = CheckColumn(
        dataset_.ratings_,
        [this](const ReviewRating& r) {
          return CheckRating(r.rater, r.review, r.value);
        },
        options_.reject_duplicate_ratings,
        [](const ReviewRating& r) {
          return PairKey(r.rater.value(), r.review.value());
        },
        [](const ReviewRating& r) {
          return DuplicateRating(r.rater, r.review);
        },
        &rating_keys);
  }
  if (status.ok()) {
    status = CheckColumn(
        dataset_.trust_,
        [this](const TrustStatement& t) {
          return CheckTrust(t.source, t.target);
        },
        options_.reject_degenerate_trust,
        [](const TrustStatement& t) {
          return PairKey(t.source.value(), t.target.value());
        },
        [](const TrustStatement&) { return DuplicateTrust(); },
        &trust_keys);
  }
  if (!status.ok()) {
    dataset_ = Dataset();
    return status;
  }
  review_keys_ = KeySet(std::move(review_keys));
  rating_keys_ = KeySet(std::move(rating_keys));
  trust_keys_ = KeySet(std::move(trust_keys));
  index_ = CategoryIndex(dataset_);
  return Status::OK();
}

Result<Dataset> DatasetBuilder::FromValidatedColumns(
    std::vector<Category> categories, std::vector<User> users,
    std::vector<Object> objects, std::vector<Review> reviews,
    std::vector<ReviewRating> ratings,
    std::vector<TrustStatement> trust_statements) {
  Dataset dataset;
  dataset.categories_ = std::move(categories);
  dataset.users_ = std::move(users);
  dataset.objects_ = std::move(objects);
  dataset.reviews_ = std::move(reviews);
  dataset.ratings_ = std::move(ratings);
  dataset.trust_ = std::move(trust_statements);
  const uint32_t num_categories =
      static_cast<uint32_t>(dataset.categories_.size());
  const uint32_t num_users = static_cast<uint32_t>(dataset.users_.size());
  const uint32_t num_objects =
      static_cast<uint32_t>(dataset.objects_.size());
  const uint32_t num_reviews =
      static_cast<uint32_t>(dataset.reviews_.size());
  for (uint32_t i = 0; i < num_categories; ++i) {
    dataset.categories_[i].id = CategoryId(i);
  }
  for (uint32_t i = 0; i < num_users; ++i) {
    dataset.users_[i].id = UserId(i);
  }
  for (uint32_t i = 0; i < num_objects; ++i) {
    Object& object = dataset.objects_[i];
    object.id = ObjectId(i);
    if (object.category.value() >= num_categories) {
      return Status::InvalidArgument("object references unknown category");
    }
  }
  for (uint32_t i = 0; i < num_reviews; ++i) {
    Review& review = dataset.reviews_[i];
    review.id = ReviewId(i);
    if (review.writer.value() >= num_users ||
        review.object.value() >= num_objects) {
      return Status::InvalidArgument(
          "review references unknown writer or object");
    }
    review.category = dataset.objects_[review.object.index()].category;
  }
  for (const ReviewRating& rating : dataset.ratings_) {
    if (rating.rater.value() >= num_users ||
        rating.review.value() >= num_reviews) {
      return Status::InvalidArgument(
          "rating references unknown rater or review");
    }
  }
  for (const TrustStatement& statement : dataset.trust_) {
    if (statement.source.value() >= num_users ||
        statement.target.value() >= num_users) {
      return Status::InvalidArgument(
          "trust statement references unknown user");
    }
  }
  return dataset;
}

}  // namespace wot
