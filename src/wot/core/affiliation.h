// Step 2: the Users_Category Affiliation matrix A (paper eq. 4).
//
//   A[i][c] = ( a_r[i][c] / max_c' a_r[i][c']
//             + a_w[i][c] / max_c' a_w[i][c'] ) / 2
//
// where a_r counts the reviews user i *rated* in category c and a_w counts
// the reviews user i *wrote* there. Each term is normalized by the user's
// own maximum across categories, so A captures the relative distribution of
// attention rather than absolute volume. A user whose corresponding maximum
// is 0 (never rated / never wrote) contributes 0 for that term.
#ifndef WOT_CORE_AFFILIATION_H_
#define WOT_CORE_AFFILIATION_H_

#include <span>

#include "wot/community/category_index.h"
#include "wot/linalg/dense_matrix.h"

namespace wot {

/// \brief Computes the U x C affiliation matrix (eq. 4). All entries lie in
/// [0, 1]; a fully inactive user has an all-zero row. Reads only the
/// activity counts of \p index.
DenseMatrix ComputeAffiliationMatrix(const CategoryIndex& index);

/// \brief Computes one user's affiliation row into \p out (size C). A row
/// depends only on that user's own rate/write counts, so incremental
/// maintainers (TrustService) refresh exactly the rows of users whose
/// activity changed; the result is bit-identical to the corresponding row
/// of ComputeAffiliationMatrix.
void ComputeAffiliationRow(const CategoryIndex& index, UserId user,
                           std::span<double> out);

}  // namespace wot

#endif  // WOT_CORE_AFFILIATION_H_
