#include "core/mass_kernel.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace oasis {

double StratumMassKernel(const double* weights, const double* lambda,
                         const double* pi, const double* sqrt_pi,
                         const double* c_not_pred, double f, double a2f2,
                         double omf2, double* v, size_t n) {
  // The in-order total rides along with the stores: one scalar add per
  // element, in index order, whatever the lane count.
  double total = 0.0;
  size_t i = 0;
#if defined(__SSE2__)
  const __m128d vf = _mm_set1_pd(f);
  const __m128d va2f2 = _mm_set1_pd(a2f2);
  const __m128d vomf2 = _mm_set1_pd(omf2);
  const __m128d vone = _mm_set1_pd(1.0);
  for (; i + 2 <= n; i += 2) {
    const __m128d p = _mm_loadu_pd(pi + i);
    const __m128d not_pred =
        _mm_mul_pd(_mm_mul_pd(_mm_loadu_pd(c_not_pred + i), vf),
                   _mm_loadu_pd(sqrt_pi + i));
    const __m128d radicand = _mm_add_pd(
        _mm_mul_pd(va2f2, _mm_sub_pd(vone, p)), _mm_mul_pd(vomf2, p));
    const __m128d pred =
        _mm_mul_pd(_mm_loadu_pd(lambda + i), _mm_sqrt_pd(radicand));
    _mm_storeu_pd(v + i, _mm_mul_pd(_mm_loadu_pd(weights + i),
                                    _mm_add_pd(not_pred, pred)));
    total += v[i];
    total += v[i + 1];
  }
#endif
  for (; i < n; ++i) {
    v[i] = ScalarMass(weights[i], lambda[i], pi[i], sqrt_pi[i], c_not_pred[i],
                      f, a2f2, omf2);
    total += v[i];
  }
  return total;
}

}  // namespace oasis
