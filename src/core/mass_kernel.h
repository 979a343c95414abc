#ifndef OASIS_CORE_MASS_KERNEL_H_
#define OASIS_CORE_MASS_KERNEL_H_

#include <cmath>
#include <cstddef>

namespace oasis {

/// Unnormalised v* mass of one stratum of the OASIS instrumental (Eqn. 11):
///
///   weight * (c_not_pred * f * sqrt_pi
///             + lambda * sqrt(a2f2 * (1 - pi) + omf2 * pi))
///
/// with `a2f2` = alpha^2 * F^2 and `omf2` = (1 - F)^2 precomputed by the
/// caller with left-to-right association (a2f2 = alpha_sq * f * f,
/// omf2 = (1 - f) * (1 - f)). The factor grouping mirrors
/// OptimalStratifiedInstrumental exactly: not_pred associates as
/// (c_not_pred * f) * sqrt_pi, the radicand as (a2f2 * (1 - pi)) +
/// (omf2 * pi). The one formula of the fused and alias step paths: the
/// kernel below computes it per element and OasisSampler::StratumMass per
/// stratum, so the kAlias live masses equal the kernel's snapshot masses bit
/// for bit.
inline double ScalarMass(double weight, double lambda, double pi,
                         double sqrt_pi, double c_not_pred, double f,
                         double a2f2, double omf2) {
  const double not_pred = c_not_pred * f * sqrt_pi;
  const double pred = lambda * std::sqrt(a2f2 * (1.0 - pi) + omf2 * pi);
  return weight * (not_pred + pred);
}

/// Elementwise ScalarMass over n strata:
///
///   v[i] = ScalarMass(weights[i], lambda[i], pi[i], sqrt_pi[i],
///                     c_not_pred[i], f, a2f2, omf2)
///
/// The kernel runs two lanes at a time on SSE2 (every x86-64 build) and the
/// scalar loop elsewhere and for the tail, but every lane performs exactly
/// the scalar sequence of IEEE-754 correctly-rounded mul/add/sub/sqrt
/// operations, so the output is bit-identical to ScalarMass at every
/// element. That is what keeps the fused step path's v(t) bit-identical to
/// CurrentInstrumental(), and its draw to Rng::NextDiscreteLinear over it
/// (tests/step_batch_test.cc). No FMA contraction is ever used: a fused
/// multiply-add rounds once where the scalar formula rounds twice.
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

}  // namespace oasis

#endif  // OASIS_CORE_MASS_KERNEL_H_
