#include "wot/service/trust_snapshot.h"

#include <algorithm>

#include "wot/core/affiliation.h"
#include "wot/util/check.h"

namespace wot {

Result<std::shared_ptr<const TrustSnapshot>> TrustSnapshot::Build(
    const Dataset& dataset, const SnapshotOptions& options) {
  const CategoryIndex index(dataset);
  WOT_ASSIGN_OR_RETURN(ReputationResult reputation,
                       ComputeReputations(dataset, index, options.reputation));
  DenseMatrix affiliation = ComputeAffiliationMatrix(index);

  std::vector<ExpertisePostingPtr> postings;
  if (options.build_postings) {
    postings.resize(dataset.num_categories());
    for (size_t c = 0; c < postings.size(); ++c) {
      postings[c] = TrustDeriver::BuildCategoryPosting(reputation.expertise, c);
    }
  }
  auto category_names = std::make_shared<std::vector<std::string>>();
  category_names->reserve(dataset.num_categories());
  for (const Category& category : dataset.categories()) {
    category_names->push_back(category.name);
  }
  return Assemble(std::move(reputation), std::move(affiliation),
                  std::move(postings),
                  NameIndex::Extend(NameIndex::Empty(), dataset.users()),
                  std::move(category_names), /*version=*/1,
                  dataset.num_reviews(), dataset.num_ratings());
}

std::shared_ptr<const TrustSnapshot> TrustSnapshot::Assemble(
    ReputationResult reputation, DenseMatrix affiliation,
    std::vector<ExpertisePostingPtr> postings,
    std::shared_ptr<const NameIndex> user_names,
    std::shared_ptr<const std::vector<std::string>> category_names,
    uint64_t version, size_t num_reviews, size_t num_ratings) {
  WOT_CHECK_EQ(reputation.expertise.rows(), affiliation.rows());
  WOT_CHECK_EQ(reputation.expertise.cols(), affiliation.cols());
  WOT_CHECK(user_names != nullptr);
  WOT_CHECK(category_names != nullptr);
  WOT_CHECK_EQ(user_names->size(), affiliation.rows());
  WOT_CHECK_EQ(category_names->size(), affiliation.cols());
  std::shared_ptr<TrustSnapshot> snapshot(new TrustSnapshot());
  snapshot->reputation_ = std::move(reputation);
  snapshot->affiliation_ = std::move(affiliation);
  snapshot->user_names_ = std::move(user_names);
  snapshot->category_names_ = std::move(category_names);
  snapshot->version_ = version;
  snapshot->num_reviews_ = num_reviews;
  snapshot->num_ratings_ = num_ratings;
  snapshot->deriver_ = std::make_unique<TrustDeriver>(
      snapshot->affiliation_, snapshot->reputation_.expertise);
  if (!postings.empty()) {
    snapshot->deriver_->AdoptPostings(std::move(postings));
  }
  return snapshot;
}

double TrustSnapshot::Trust(size_t i, size_t j) const {
  if (i >= num_users() || j >= num_users()) {
    return 0.0;
  }
  return deriver_->DeriveOne(i, j);
}

std::vector<ScoredUser> TrustSnapshot::TopK(size_t i, size_t k) const {
  if (i >= num_users()) {
    return {};
  }
  return deriver_->DeriveRowTopK(i, k);
}

TrustExplanation TrustSnapshot::ExplainTrust(size_t i, size_t j) const {
  TrustExplanation explanation;
  if (i >= num_users() || j >= num_users()) {
    return explanation;
  }
  explanation.trust = deriver_->DeriveOne(i, j);
  explanation.affinity_sum = affiliation_.RowSum(i);
  if (explanation.affinity_sum <= 0.0) {
    return explanation;
  }
  auto arow = affiliation_.Row(i);
  auto erow = reputation_.expertise.Row(j);
  for (size_t c = 0; c < arow.size(); ++c) {
    if (arow[c] > 0.0) {
      explanation.terms.push_back(
          {static_cast<uint32_t>(c), arow[c], erow[c],
           arow[c] * erow[c] / explanation.affinity_sum});
    }
  }
  std::sort(explanation.terms.begin(), explanation.terms.end(),
            [](const TrustContribution& a, const TrustContribution& b) {
              if (a.contribution != b.contribution) {
                return a.contribution > b.contribution;
              }
              return a.category < b.category;
            });
  return explanation;
}

}  // namespace wot
