#include "esam/util/fp_env.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace esam::util {
namespace {

#if defined(__x86_64__)
constexpr std::uint32_t kMxcsrDaz = 1u << 6;
constexpr std::uint32_t kMxcsrFtz = 1u << 15;
#elif defined(__aarch64__)
constexpr std::uint64_t kFpcrFz = std::uint64_t{1} << 24;

std::uint64_t read_fpcr() {
  std::uint64_t fpcr = 0;
  __asm__ __volatile__("mrs %0, fpcr" : "=r"(fpcr));
  return fpcr;
}

void write_fpcr(std::uint64_t fpcr) {
  __asm__ __volatile__("msr fpcr, %0" : : "r"(fpcr));
}
#endif

}  // namespace

FlushDenormals::FlushDenormals() {
#if defined(__x86_64__)
  saved_ = _mm_getcsr();
  _mm_setcsr(static_cast<std::uint32_t>(saved_) | kMxcsrDaz | kMxcsrFtz);
#elif defined(__aarch64__)
  saved_ = read_fpcr();
  write_fpcr(saved_ | kFpcrFz);
#endif
}

FlushDenormals::~FlushDenormals() {
#if defined(__x86_64__)
  _mm_setcsr(static_cast<std::uint32_t>(saved_));
#elif defined(__aarch64__)
  write_fpcr(saved_);
#endif
}

}  // namespace esam::util
