// blas.hpp — umbrella header for the BLAS substrate.
#pragma once

#include "blas/gemm.hpp"    // IWYU pragma: export
#include "blas/kernel.hpp"  // IWYU pragma: export
#include "blas/level1.hpp"  // IWYU pragma: export
#include "blas/level2.hpp"  // IWYU pragma: export
#include "blas/pack.hpp"    // IWYU pragma: export
#include "blas/syrk.hpp"    // IWYU pragma: export
#include "blas/trmm.hpp"    // IWYU pragma: export
#include "blas/trsm.hpp"    // IWYU pragma: export
#include "blas/types.hpp"   // IWYU pragma: export
