#ifndef OASIS_CORE_MASS_KERNEL_H_
#define OASIS_CORE_MASS_KERNEL_H_

#include <cstddef>

namespace oasis {

/// Elementwise unnormalised v* mass kernel of the OASIS instrumental
/// (Eqn. 11):
///
///   v[i] = weights[i] * (c_not_pred[i] * f * sqrt_pi[i]
///          + lambda[i] * sqrt(a2f2 * (1 - pi[i]) + omf2 * pi[i]))
///
/// with `a2f2` = alpha^2 * F^2 and `omf2` = (1 - F)^2 precomputed by the
/// caller with left-to-right association (a2f2 = alpha_sq * f * f), matching
/// OasisSampler::StratumMass exactly.
///
/// The kernel is vectorized (AVX2 when compiled in, else SSE2, else scalar)
/// but every lane performs exactly the scalar sequence of IEEE-754
/// correctly-rounded mul/add/sub/sqrt operations, so the output is
/// bit-identical to the scalar loop at every element for every build flavour
/// — which is what lets the fused step path stay bit-for-bit equal to the
/// allocating reference path (tests/step_batch_test.cc). No FMA contraction
/// is ever used: a fused multiply-add rounds once where the scalar formula
/// rounds twice.
///
/// Returns the total mass, reduced inside the same pass: each lane's result
/// is added to one scalar accumulator, one element at a time in index order
/// (((0 + v[0]) + v[1]) + ...), exactly as a scalar `total += v[i]` loop
/// would. Summation order is part of the bit-identity contract, so the
/// reduction never depends on vector width.
///
/// All pointers must address at least `n` doubles; `v` may not alias the
/// inputs.
double StratumMassKernel(const double* weights, const double* lambda,
                         const double* pi, const double* sqrt_pi,
                         const double* c_not_pred, double f, double a2f2,
                         double omf2, double* v, size_t n);

/// True when the kernel above runs on a vector unit (AVX2 or SSE2) rather
/// than the scalar fallback. Diagnostics/benchmark labelling only.
bool MassKernelVectorized();

}  // namespace oasis

#endif  // OASIS_CORE_MASS_KERNEL_H_
