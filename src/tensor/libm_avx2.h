// AVX2 ports of the two glibc x86-64 float functions the encoder's
// elementwise stages call, bit for bit: fdlibm `tanhf` (with the
// `expm1f` it calls) and the table-driven `expf` (its FMA variant, the
// one glibc selects on AVX2+FMA hardware). Internal to the kernel
// layer: kernels.cc puts these in the AVX2 dispatch table, and
// tests/kernels_test.cc and tests/libm_sweep.cc pin them against
// std::tanh and std::exp.
//
// libm_avx2.cc is compiled with -ffp-contract=off (see CMakeLists.txt):
// every multiply and add below must round on its own, as glibc's code
// does, unless the port fuses it explicitly. Only x86 builds have these
// functions (TABBIN_LIBM_AVX2 is defined there), and they may only run
// after kernels::Detect reports AVX2+FMA.
#ifndef TABBIN_TENSOR_LIBM_AVX2_H_
#define TABBIN_TENSOR_LIBM_AVX2_H_

#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#define TABBIN_LIBM_AVX2 1

namespace tabbin {
namespace kernels {
namespace libm_avx2 {

/// \brief out[i] = std::tanh(x[i]) for every float, NaN payloads
/// included. `out` may alias `x`.
void Tanh(const float* x, float* out, size_t n);

/// \brief out[i] = std::exp(x[i]) for every x <= 0x1.62e42ep6f and NaN
/// (the whole domain a softmax hands it), +inf above. `out` may alias
/// `x`.
void Exp(const float* x, float* out, size_t n);

/// \brief The scalar GeluInPlace's expression, lane by lane.
void GeluInPlace(float* x, size_t n);

/// \brief The scalar ScaledSoftmaxRow, with the elementwise passes in
/// lanes and the row sum still one ascending scalar loop.
void ScaledSoftmaxRow(float* row, const float* bias, size_t n, float scale);

}  // namespace libm_avx2
}  // namespace kernels
}  // namespace tabbin

#endif  // x86
#endif  // TABBIN_TENSOR_LIBM_AVX2_H_
