#pragma once
// Fused, SIMD-friendly statistic kernels for the §4 hot paths.
//
// The methodology is dominated by repeated moment computations: per-variable
// min/max/mean/std (§4.1), Pearson co-moments against the 0.99999 bar
// (§4.2), pointwise error norms (eqs. 2–4) and RMSZ z-score accumulation
// (eqs. 6–8), each swept over variants x variables x members. The seed
// implementations were scalar two-pass loops with a per-element mask
// branch; at ensemble scale they are the framework's own bottleneck (the
// same effect Z-checker reports for assessment kernels).
//
// Every kernel here follows the same shape:
//
//   * single streaming pass over memory, processed in L1-resident blocks
//     (kBlock elements); moments that need a centered second pass do it
//     inside the block, so the data is read from DRAM once;
//   * block results merged with Chan's parallel update (means/M2/co-moments)
//     or Neumaier-compensated addition (plain sums), so accuracy matches or
//     beats the legacy global two-pass code on large-offset fields;
//   * the validity mask is hoisted to a per-block fast path: a block whose
//     mask slice is all-ones (the common no-fill / interior-ocean case)
//     branches once and runs the vectorizable unmasked inner loop;
//   * inner loops use independent accumulator lanes so the compiler can
//     keep them in SIMD registers without reassociating a serial reduction
//     (results stay deterministic: no -ffast-math anywhere).
//
// The seed's scalar two-pass implementations live on, verbatim, as the
// ground truth of the ULP parity tests (tests/stats/test_kernels.cpp) in
// tests/support/stats_kernels_reference.h.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cesm::stats::kernels {

/// Elements per processing block: 4096 floats = 16 KiB, comfortably
/// L1-resident together with a mask slice and an output tile.
inline constexpr std::size_t kBlock = 4096;

/// True when every byte of `mask` is non-zero. Empty masks are all-valid
/// by convention. Vectorizes to wide compares; used per block to pick the
/// unmasked fast path.
bool all_valid(std::span<const std::uint8_t> mask);

/// Number of non-zero mask bytes (empty mask counts as `fallback_count`).
std::size_t count_valid(std::span<const std::uint8_t> mask,
                        std::size_t fallback_count = 0);

/// Fused (min, max, mean, M2, count) accumulator. M2 is the sum of squared
/// deviations from the mean, so variance = m2 / count.
struct MomentAccum {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t count = 0;

  /// Chan's parallel combine of two partial moment sets.
  void merge(const MomentAccum& other);
};

MomentAccum moments(std::span<const float> data,
                    std::span<const std::uint8_t> mask = {});
MomentAccum moments(std::span<const double> data,
                    std::span<const std::uint8_t> mask = {});

/// Fused co-moment accumulator for Pearson/covariance: means plus centered
/// sums sxx = Σ(x-mx)², syy, sxy over valid pairs.
struct CoMomentAccum {
  double mean_x = 0.0;
  double mean_y = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
  std::size_t count = 0;

  void merge(const CoMomentAccum& other);
};

CoMomentAccum comoments(std::span<const float> x, std::span<const float> y,
                        std::span<const std::uint8_t> mask = {});
CoMomentAccum comoments(std::span<const double> x, std::span<const double> y,
                        std::span<const std::uint8_t> mask = {});

/// Pointwise error norms between an original and a reconstruction:
/// compensated Σe², max |e|, valid-point count (eqs. 2–3 numerators).
struct ErrorAccum {
  double sum_sq = 0.0;
  double max_abs = 0.0;
  std::size_t count = 0;
};

ErrorAccum error_norms(std::span<const float> original,
                       std::span<const float> reconstructed,
                       std::span<const std::uint8_t> mask = {});

/// Leave-one-out z-score sums for RMSZ (eqs. 6–7). For each valid point the
/// sub-ensemble {E \ m} mean/variance are recovered from the per-point
/// sufficient statistics `sum`/`sum_sq` by removing `orig[i]`; points whose
/// spread is degenerate (sd <= floor_rel * |mu|) are skipped. `data` is the
/// candidate standing in for member m (the original or a reconstruction).
struct ZScoreAccum {
  double sum_z2 = 0.0;
  std::size_t used = 0;
};

ZScoreAccum zscore_sums(std::span<const float> data, std::span<const float> orig,
                        std::span<const double> sum, std::span<const double> sum_sq,
                        std::span<const std::uint8_t> mask, double member_count,
                        double floor_rel);

/// Ensemble sufficient-statistics pass: sum[i] += x[i], sum_sq[i] += x[i]²
/// over valid points, with the mask branch hoisted per block.
void accumulate_sum_sq(std::span<const float> x, std::span<const std::uint8_t> mask,
                       std::span<double> sum, std::span<double> sum_sq);

/// Per-point extreme tracking with runners-up (the E_nmax leave-one-out
/// machinery): member m's values update max1/max2/argmax and min1/min2/
/// argmin in place. Mask hoisted per block; the runner-up update itself is
/// inherently branchy and stays scalar.
void update_extremes(std::span<const float> x, std::span<const std::uint8_t> mask,
                     std::uint32_t m, std::span<float> max1, std::span<float> max2,
                     std::span<std::uint32_t> argmax, std::span<float> min1,
                     std::span<float> min2, std::span<std::uint32_t> argmin);

// ---------------------------------------------------------------------------
// Resumable streaming front ends for the kernels above.
//
// The out-of-core pipeline feeds each kernel one chunk at a time, and the
// chunk partition is whatever the I/O layer chose — it rarely lands on
// kBlock boundaries. A naive "run the one-shot kernel per chunk and merge"
// would change the block decomposition and therefore the floating-point
// result. Each stream below instead re-aligns arbitrary feeds to the same
// absolute kBlock grid the one-shot kernel uses: a whole block that starts
// with nothing staged runs in place from the caller's spans, everything
// else is staged into an owned kBlock buffer (allocated on first use), and
// both go through the *identical* per-block routine the one-shot kernel
// calls, so for any partition of the input — 1-element tails included —
// the finished accumulator is bit-for-bit the one-shot result.
//
// Contract shared by all four streams: feeds must cover the logical array
// in order from element 0 with no gaps or overlaps; a stream constructed
// masked receives a mask slice with every feed (an empty mask slice means
// "all valid" and stages ones — by the all_valid fast path that is
// arithmetically identical to an absent mask); a feed marked `last` ends
// the array, so its final partial block runs in place too, and no feed may
// follow it; finish() flushes any staged tail and returns the accumulator.
// Streams are single-use.

/// Streaming `moments` (min/max/mean/M2/count).
class MomentStream {
 public:
  explicit MomentStream(bool masked = false);
  void feed(std::span<const float> data, std::span<const std::uint8_t> mask = {},
            bool last = false);
  [[nodiscard]] MomentAccum finish();

 private:
  void flush_block();

  MomentAccum acc_;
  std::vector<float> stage_;
  std::vector<std::uint8_t> stage_mask_;
  std::size_t staged_ = 0;
  bool masked_ = false;
};

/// Streaming `comoments` (Pearson sufficient statistics).
class CoMomentStream {
 public:
  explicit CoMomentStream(bool masked = false);
  void feed(std::span<const float> x, std::span<const float> y,
            std::span<const std::uint8_t> mask = {}, bool last = false);
  [[nodiscard]] CoMomentAccum finish();

 private:
  void flush_block();

  CoMomentAccum acc_;
  std::vector<float> stage_x_;
  std::vector<float> stage_y_;
  std::vector<std::uint8_t> stage_mask_;
  std::size_t staged_ = 0;
  bool masked_ = false;
};

/// Streaming `error_norms` (compensated Σe², max |e|, count).
class ErrorNormStream {
 public:
  explicit ErrorNormStream(bool masked = false);
  void feed(std::span<const float> original, std::span<const float> reconstructed,
            std::span<const std::uint8_t> mask = {}, bool last = false);
  [[nodiscard]] ErrorAccum finish();

 private:
  struct Comp {  // mirrors the kernel's Neumaier carry (sum, comp)
    double sum = 0.0;
    double comp = 0.0;
  };
  void run_block(const float* x, const float* y, const std::uint8_t* mk, std::size_t len);
  void flush_block();

  ErrorAccum acc_;
  Comp total_;
  std::vector<float> stage_x_;
  std::vector<float> stage_y_;
  std::vector<std::uint8_t> stage_mask_;
  std::size_t staged_ = 0;
  bool masked_ = false;
};

/// Streaming `zscore_sums`. The per-point sufficient statistics sum/sum_sq
/// slices ride along with each feed (they are per-point arrays, sliced by
/// the same chunk bounds as the data).
class ZScoreStream {
 public:
  ZScoreStream(double member_count, double floor_rel, bool masked = false);
  void feed(std::span<const float> data, std::span<const float> orig,
            std::span<const double> sum, std::span<const double> sum_sq,
            std::span<const std::uint8_t> mask = {}, bool last = false);
  [[nodiscard]] ZScoreAccum finish();

 private:
  void flush_block();

  ZScoreAccum acc_;
  double inv_ = 0.0;
  double floor_rel_ = 0.0;
  std::vector<float> stage_data_;
  std::vector<float> stage_orig_;
  std::vector<double> stage_sum_;
  std::vector<double> stage_sum_sq_;
  std::vector<std::uint8_t> stage_mask_;
  std::size_t staged_ = 0;
  bool masked_ = false;
};

}  // namespace cesm::stats::kernels
