// Incremental reputation maintenance: a production adopter does not rerun
// the whole pipeline on every new rating. IncrementalReputationEngine
// tracks which categories are dirtied by appended activity and recomputes
// only those; clean categories keep their converged state.
//
// Categories are fully independent in the Riggs model (DESIGN.md S9), so
// per-category recomputation is exact — results are bit-identical to a
// from-scratch run on the same dataset, which the tests assert.
//
// The engine keeps one CategoryView slice per category resident. A dirty
// category's slice is caught up with the appended reviews and ratings
// (CategoryView::CatchUp) rather than rebuilt, then the fixed point runs
// over it from scratch: every recomputation still starts from all-ones
// reputations, so no earlier result leaks into a later one.
#ifndef WOT_REPUTATION_INCREMENTAL_H_
#define WOT_REPUTATION_INCREMENTAL_H_

#include <vector>

#include "wot/community/category_index.h"
#include "wot/community/category_view.h"
#include "wot/community/dataset.h"
#include "wot/reputation/engine.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Maintains ReputationResult across dataset versions.
///
/// Usage (DatasetBuilder::category_index() keeps an index current as the
/// dataset grows; CategoryIndex(dataset) builds one):
///   IncrementalReputationEngine engine(options);
///   WOT_RETURN_IF_ERROR(engine.FullRebuild(v1, index_v1));
///   ... dataset grows into v2 (append-only) ...
///   WOT_RETURN_IF_ERROR(engine.Update(v2, index_v2));  // recomputes
///   dirty categories only
///
/// Datasets must evolve append-only (entities are never removed or
/// reordered); Update() verifies the entity counts and fails otherwise.
class IncrementalReputationEngine {
 public:
  explicit IncrementalReputationEngine(ReputationOptions options = {});

  /// \brief Computes everything from scratch, catching every slice up from
  /// empty; \p index must describe \p dataset.
  Status FullRebuild(const Dataset& dataset, const CategoryIndex& index);

  /// \brief Brings the result up to date with \p dataset, recomputing only
  /// categories that gained reviews or ratings since the last successful
  /// call, plus new categories. Dirtiness is read off \p index, which must
  /// describe \p dataset: its per-category lists are in append order, so a
  /// category is dirty iff its newest review or rating is newer than the
  /// last derived state. New users are handled (matrices grow). Returns
  /// the number of categories recomputed via *out if non-null.
  Status Update(const Dataset& dataset, const CategoryIndex& index,
                size_t* categories_recomputed = nullptr);

  /// \brief Adopts \p result as the already-converged state of \p dataset
  /// without recomputing anything (the durable-restore path: the result
  /// was persisted by an engine that had converged over this exact
  /// dataset). A subsequent Update() recomputes only categories dirtied
  /// afterwards — byte-identical to an engine that never restarted. Builds
  /// no slice: every slice starts empty and catches up from empty the
  /// first time its category is dirty. Fails (engine unchanged) when the
  /// result's shapes don't match \p dataset.
  Status Seed(const Dataset& dataset, const ReputationResult& result);

  /// \brief Current result; valid after a successful FullRebuild/Update.
  const ReputationResult& result() const { return result_; }

  /// \brief Category indices recomputed by the most recent successful
  /// FullRebuild (all categories) or Update (the dirty subset, possibly
  /// empty), ascending. Snapshot maintainers use this to scope their
  /// Step-2/3 refreshes — e.g. rebuild expertise postings only for these
  /// columns. Cleared-on-entry semantics: a failed Update leaves the value
  /// of the previous successful call.
  const std::vector<size_t>& last_recomputed_categories() const {
    return last_recomputed_;
  }

  /// \brief Ratings held by the slices of the categories the most recent
  /// successful FullRebuild or Update recomputed (0 after Seed): the
  /// ratings that call's Step 1 swept.
  size_t last_view_ratings() const { return last_view_ratings_; }

  /// \brief The resident slice of every category, indexed by category.
  /// A slice holds its category as of the last call that recomputed it;
  /// after Seed, slices of categories not recomputed since are empty.
  const std::vector<CategoryView>& views() const { return views_; }

  bool initialized() const { return initialized_; }

 private:
  /// Records \p dataset's entity counts as the derived state's watermark.
  void MarkDerived(const Dataset& dataset);

  ReputationOptions options_;
  bool initialized_ = false;
  size_t known_users_ = 0;
  size_t known_categories_ = 0;
  size_t known_reviews_ = 0;
  size_t known_ratings_ = 0;
  std::vector<size_t> last_recomputed_;
  size_t last_view_ratings_ = 0;
  ReputationResult result_;
  std::vector<CategoryView> views_;
};

}  // namespace wot

#endif  // WOT_REPUTATION_INCREMENTAL_H_
