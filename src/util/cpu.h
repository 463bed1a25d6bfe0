/// \file
/// \brief Run-time choice between the generic and the AVX2 build of the
/// dispatched hot kernels (the contraction tree walk, the R(β) scorer and
/// the batched naive reconstruct).
///
/// Each of those kernels is compiled twice from one `.inc` body: once for
/// the baseline ISA and once under `#pragma GCC target("avx2")`. GCC's
/// `avx2` target does not enable FMA, so no multiply-add can contract and
/// both builds perform the same IEEE operations in the same order: their
/// results are bit-identical. The build itself carries no `-march` flag.
#ifndef PTUCKER_UTIL_CPU_H_
#define PTUCKER_UTIL_CPU_H_

// 1 where the AVX2 clones are compiled: GCC on x86-64, which honours
// `#pragma GCC target`. Elsewhere only the generic bodies exist.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define PTUCKER_AVX2_CLONES 1
#else
#define PTUCKER_AVX2_CLONES 0
#endif

namespace ptucker {

/// True when the AVX2 clones are compiled in and this CPU (with its OS)
/// runs AVX2. Asked of the CPU once per process.
bool CpuHasAvx2();

/// The clone the dispatched kernels run in this process: "avx2" or
/// "generic".
const char* KernelIsaName();

}  // namespace ptucker

#endif  // PTUCKER_UTIL_CPU_H_
