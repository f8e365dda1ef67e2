// Scoped subnormal-free float arithmetic for the BNN trainer.
//
// Adam moments of weights that stop receiving gradient decay geometrically
// into the subnormal range, where every x86 multiply or add that touches
// them takes a microcode assist (tens to hundreds of cycles). For its
// lifetime, FlushDenormals makes the calling thread flush subnormal results
// to zero and read subnormal operands as zero -- MXCSR.FTZ + DAZ on x86-64
// (which covers the scalar backend too: it runs on SSE), FPCR.FZ on AArch64,
// nothing elsewhere -- and its destructor restores the caller's mode.
//
// The mode is per thread: a guard changes only the thread that opened it.
// A thread created inside a guard may or may not start flushed (on Linux
// it starts in its creator's mode; std::thread promises nothing), and a
// thread created earlier keeps its own mode. So each worker thread that does
// trainer float work must open its own guard -- BnnTrainer's parallel
// phases open one per run of indices -- or its results depend on where the
// thread came from, and an unflushed worker stalls on every subnormal.
//
// It changes results only where a subnormal value appears, so it is not
// exact by construction; tests/test_nn.cpp pins the trainer's saved bytes
// against an unflushed float oracle over a run that reaches subnormal
// moments.
#pragma once

#include <cstdint>

namespace esam::util {

/// Whether FlushDenormals changes the float mode on this target.
inline constexpr bool kFlushDenormalsSupported =
#if defined(__x86_64__) || defined(__aarch64__)
    true;
#else
    false;
#endif

class FlushDenormals {
 public:
  FlushDenormals();
  ~FlushDenormals();
  FlushDenormals(const FlushDenormals&) = delete;
  FlushDenormals& operator=(const FlushDenormals&) = delete;

 private:
  /// The caller's MXCSR / FPCR (unused where the guard is a no-op).
  [[maybe_unused]] std::uint64_t saved_ = 0;
};

}  // namespace esam::util
