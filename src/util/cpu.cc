#include "util/cpu.h"

#if PTUCKER_AVX2_CLONES
#include <cpuid.h>
#endif

namespace ptucker {

bool CpuHasAvx2() {
#if PTUCKER_AVX2_CLONES
  // CPUID and XGETBV asked directly: `__builtin_cpu_supports` would link
  // libgcc's CPU-model table and its start-up constructor (about 4.5 KB
  // ahead of all other code) into every program that uses the library.
  static const bool has_avx2 = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
        (ecx & bit_OSXSAVE) == 0 || (ecx & bit_AVX) == 0) {
      return false;
    }
    // The OS must save the XMM and YMM registers (XCR0 bits 1 and 2).
    unsigned xcr0 = 0, xcr0_high = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    if ((xcr0 & 0x6) != 0x6) return false;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_AVX2) != 0;
  }();
  return has_avx2;
#else
  return false;
#endif
}

const char* KernelIsaName() { return CpuHasAvx2() ? "avx2" : "generic"; }

}  // namespace ptucker
