#include "wot/community/dataset_builder.h"

#include <cmath>
#include <utility>

namespace wot {

namespace {
uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}
}  // namespace

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

Result<ObjectId> DatasetBuilder::AddObject(CategoryId category,
                                           std::string name) {
  if (!category.valid() ||
      category.index() >= dataset_.categories_.size()) {
    return Status::InvalidArgument("object references unknown category");
  }
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

Result<ReviewId> DatasetBuilder::AddReview(UserId writer, ObjectId object) {
  EnsureDedupKeys();
  WOT_RETURN_IF_ERROR(CheckUser(writer, "writer"));
  if (!object.valid() || object.index() >= dataset_.objects_.size()) {
    return Status::InvalidArgument("review references unknown object");
  }
  if (options_.enforce_one_review_per_object) {
    uint64_t key = PairKey(writer.value(), object.value());
    if (!review_keys_.insert(key).second) {
      return Status::AlreadyExists(
          "user " + std::to_string(writer.value()) +
          " already reviewed object " + std::to_string(object.value()));
    }
  }
  ReviewId id(static_cast<uint32_t>(dataset_.reviews_.size()));
  dataset_.reviews_.push_back(
      {id, writer, object, dataset_.objects_[object.index()].category});
  index_.AddReview(dataset_.reviews_.back());
  return id;
}

Status DatasetBuilder::AddRating(UserId rater, ReviewId review,
                                 double value) {
  EnsureDedupKeys();
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
  if (options_.reject_duplicate_ratings) {
    uint64_t key = PairKey(rater.value(), review.value());
    if (!rating_keys_.insert(key).second) {
      return Status::AlreadyExists(
          "user " + std::to_string(rater.value()) +
          " already rated review " + std::to_string(review.value()));
    }
  }
  const uint32_t rating_id = static_cast<uint32_t>(dataset_.ratings_.size());
  dataset_.ratings_.push_back({rater, review, value});
  index_.AddRating(rating_id, dataset_.ratings_.back(),
                   dataset_.reviews_[review.index()].category);
  return Status::OK();
}

Status DatasetBuilder::AddTrust(UserId source, UserId target) {
  EnsureDedupKeys();
  WOT_RETURN_IF_ERROR(CheckUser(source, "trust source"));
  WOT_RETURN_IF_ERROR(CheckUser(target, "trust target"));
  if (options_.reject_degenerate_trust) {
    if (source == target) {
      return Status::InvalidArgument("self-trust statement rejected");
    }
    uint64_t key = PairKey(source.value(), target.value());
    if (!trust_keys_.insert(key).second) {
      return Status::AlreadyExists("duplicate trust statement");
    }
  }
  dataset_.trust_.push_back({source, target});
  return Status::OK();
}

Result<Dataset> DatasetBuilder::Build() {
  Dataset out = std::move(dataset_);
  dataset_ = Dataset();
  index_ = CategoryIndex();
  review_keys_.clear();
  rating_keys_.clear();
  trust_keys_.clear();
  dedup_keys_synced_ = true;
  return out;
}

void DatasetBuilder::EnsureDedupKeys() {
  if (dedup_keys_synced_) return;
  dedup_keys_synced_ = true;
  if (options_.enforce_one_review_per_object) {
    review_keys_.reserve(dataset_.reviews_.size());
    for (const Review& review : dataset_.reviews_) {
      review_keys_.insert(
          PairKey(review.writer.value(), review.object.value()));
    }
  }
  if (options_.reject_duplicate_ratings) {
    rating_keys_.reserve(dataset_.ratings_.size());
    for (const ReviewRating& rating : dataset_.ratings_) {
      rating_keys_.insert(
          PairKey(rating.rater.value(), rating.review.value()));
    }
  }
  if (options_.reject_degenerate_trust) {
    trust_keys_.reserve(dataset_.trust_.size());
    for (const TrustStatement& statement : dataset_.trust_) {
      trust_keys_.insert(
          PairKey(statement.source.value(), statement.target.value()));
    }
  }
}

Status DatasetBuilder::AdoptValidated(Dataset dataset) {
  if (!dataset_.users_.empty() || !dataset_.categories_.empty() ||
      !dataset_.objects_.empty() || !dataset_.reviews_.empty() ||
      !dataset_.ratings_.empty() || !dataset_.trust_.empty()) {
    return Status::FailedPrecondition(
        "AdoptValidated requires an empty builder");
  }
  // Policy rules that scan columns sequentially are cheap enough to keep
  // even on the instant-boot path. Deliberately trusted from the source
  // (a CRC-verified segment whose contents went through a validating
  // builder when written): referential integrity (FromValidatedColumns
  // already bounds-checked every reference), self-rating rejection (a
  // random-access writer lookup per rating — the one check that would
  // dominate adoption cost), and dedup uniqueness (the key sets rebuild
  // lazily in EnsureDedupKeys; pre-existing duplicates collapse there).
  if (options_.enforce_rating_scale) {
    for (const ReviewRating& rating : dataset.ratings()) {
      // Inline nearest-stage form of rating_scale::IsValidStage: the
      // stages are 0.2 apart and the tolerance is 1e-9, so only the
      // nearest k can qualify — one nearbyint + one fabs per row instead
      // of five out-of-line comparisons, same accept set.
      const double v = rating.value;
      const double k = std::nearbyint(v * 5.0);
      if (!(k >= 1.0 && k <= 5.0 && std::fabs(v - 0.2 * k) < 1e-9)) {
        return Status::InvalidArgument(
            "rating value " + std::to_string(v) +
            " is not one of the five scale stages {0.2,0.4,0.6,0.8,1.0}");
      }
    }
  }
  if (options_.reject_degenerate_trust) {
    for (const TrustStatement& statement : dataset.trust_statements()) {
      if (statement.source == statement.target) {
        return Status::InvalidArgument("self-trust statement rejected");
      }
    }
  }
  dataset_ = std::move(dataset);
  index_ = CategoryIndex(dataset_);
  review_keys_.clear();
  rating_keys_.clear();
  trust_keys_.clear();
  dedup_keys_synced_ = false;
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
