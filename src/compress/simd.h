#pragma once
// Which build of the codec kernels (codec_kernels.h) this process runs.
//
// On x86 the kernels are compiled twice, as an AVX2 clone and a base-ISA
// clone, and the loader binds the AVX2 clone when the CPU supports it. Both
// clones produce the same bits; this is only a label for reports. Defined
// in codec_kernels.cpp, beside the clone attribute.

namespace cesm::comp::simd {

enum class Mode {
  kScalar,  ///< base-ISA build of the kernels
  kSimd,    ///< AVX2 clone of the kernels
};

/// The kernel build the loader bound for this CPU.
Mode active_mode();

const char* mode_name(Mode mode);

}  // namespace cesm::comp::simd
