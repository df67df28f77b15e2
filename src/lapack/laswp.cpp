#include "lapack/laswp.hpp"

#include <cassert>
#include <utility>

namespace camult::lapack {
namespace {

// Applies the interchanges k = k1..k2-1 (or k2-1..k1 when reverse) to each
// column in turn. Every column sees the same swaps in the same order as a
// row-by-row pass, so the result is the same permutation, and each column
// is read once rather than once per interchange with a stride of ld.
void swap_rows(MatrixView a, idx k1, idx k2, const PivotVector& ipiv,
               bool reverse) {
  assert(k1 >= 0 && k2 <= static_cast<idx>(ipiv.size()));
  for (idx k = k1; k < k2; ++k) {
    assert(ipiv[static_cast<std::size_t>(k)] >= 0 &&
           ipiv[static_cast<std::size_t>(k)] < a.rows());
  }
  const idx* piv = ipiv.data();
  for (idx j = 0; j < a.cols(); ++j) {
    double* col = a.col_ptr(j);
    if (reverse) {
      for (idx k = k2 - 1; k >= k1; --k) std::swap(col[k], col[piv[k]]);
    } else {
      for (idx k = k1; k < k2; ++k) std::swap(col[k], col[piv[k]]);
    }
  }
}

}  // namespace

void laswp(MatrixView a, idx k1, idx k2, const PivotVector& ipiv) {
  swap_rows(a, k1, k2, ipiv, false);
}

void laswp_inverse(MatrixView a, idx k1, idx k2, const PivotVector& ipiv) {
  swap_rows(a, k1, k2, ipiv, true);
}

}  // namespace camult::lapack
