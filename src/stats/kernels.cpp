#include "stats/kernels.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.h"

namespace cesm::stats::kernels {

namespace {

/// Independent accumulator lanes per inner loop: wide enough for one AVX2
/// double vector, few enough that every kernel's lanes stay in registers.
constexpr std::size_t kLanes = 4;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Neumaier-compensated running sum: block partial sums are combined with
/// a carried correction term, so the global total is accurate to ~1 ulp
/// regardless of how many blocks a large field spans.
struct CompensatedSum {
  double sum = 0.0;
  double comp = 0.0;

  void add(double v) {
    const double t = sum + v;
    if (std::fabs(sum) >= std::fabs(v)) {
      comp += (sum - t) + v;
    } else {
      comp += (v - t) + sum;
    }
    sum = t;
  }

  [[nodiscard]] double value() const { return sum + comp; }
};

/// Lane-parallel (sum, min, max) over a dense block.
template <typename T>
void block_minmax_sum(const T* x, std::size_t n, double& min_out, double& max_out,
                      double& sum_out) {
  double s[kLanes] = {0.0, 0.0, 0.0, 0.0};
  double lo[kLanes] = {kInf, kInf, kInf, kInf};
  double hi[kLanes] = {-kInf, -kInf, -kInf, -kInf};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const double v = static_cast<double>(x[i + k]);
      s[k] += v;
      lo[k] = v < lo[k] ? v : lo[k];
      hi[k] = v > hi[k] ? v : hi[k];
    }
  }
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    s[0] += v;
    lo[0] = v < lo[0] ? v : lo[0];
    hi[0] = v > hi[0] ? v : hi[0];
  }
  sum_out = (s[0] + s[1]) + (s[2] + s[3]);
  min_out = std::min(std::min(lo[0], lo[1]), std::min(lo[2], lo[3]));
  max_out = std::max(std::max(hi[0], hi[1]), std::max(hi[2], hi[3]));
}

/// Lane-parallel Σ(x - mean)² over a dense block. The block is L1-resident
/// from the first pass, so this does not re-read DRAM.
template <typename T>
double block_m2(const T* x, std::size_t n, double mean) {
  double s[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const double d = static_cast<double>(x[i + k]) - mean;
      s[k] += d * d;
    }
  }
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - mean;
    s[0] += d * d;
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// One ≤kBlock block of the moments kernel: computes the block accumulator
/// and merges it into `acc`. `mk == nullptr` means no mask. Shared verbatim
/// by the one-shot kernel and MomentStream so both produce identical bits.
template <typename T>
void moment_block(const T* x, const std::uint8_t* mk, std::size_t len,
                  MomentAccum& acc) {
  MomentAccum blk;
  {
    if (mk == nullptr || all_valid({mk, len})) {
      double lo = 0.0, hi = 0.0, sum = 0.0;
      block_minmax_sum(x, len, lo, hi, sum);
      blk.count = len;
      blk.mean = sum / static_cast<double>(len);
      blk.m2 = block_m2(x, len, blk.mean);
      blk.min = lo;
      blk.max = hi;
    } else {
      double lo = kInf, hi = -kInf, sum = 0.0;
      std::size_t cnt = 0;
      for (std::size_t i = 0; i < len; ++i) {
        if (!mk[i]) continue;
        const double v = static_cast<double>(x[i]);
        sum += v;
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
        ++cnt;
      }
      if (cnt == 0) return;
      blk.count = cnt;
      blk.mean = sum / static_cast<double>(cnt);
      blk.min = lo;
      blk.max = hi;
      double m2 = 0.0;
      for (std::size_t i = 0; i < len; ++i) {
        if (!mk[i]) continue;
        const double d = static_cast<double>(x[i]) - blk.mean;
        m2 += d * d;
      }
      blk.m2 = m2;
    }
    acc.merge(blk);
  }
}

template <typename T>
MomentAccum moments_impl(std::span<const T> data, std::span<const std::uint8_t> mask) {
  CESM_REQUIRE(mask.empty() || mask.size() == data.size());
  MomentAccum acc;
  const std::size_t n = data.size();
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    moment_block(data.data() + b, mask.empty() ? nullptr : mask.data() + b, len, acc);
  }
  return acc;
}

/// One ≤kBlock block of the co-moments kernel (see moment_block).
template <typename T>
void comoment_block(const T* xp, const T* yp, const std::uint8_t* mk, std::size_t len,
                    CoMomentAccum& acc) {
  CoMomentAccum blk;
  {
    if (mk == nullptr || all_valid({mk, len})) {
      // One pass, pivoted on the block's first element: accumulate
      // deviations from (px, py), then correct at block end with
      //   sxx = sum(dx^2) - sum(dx)^2 / len.
      // Within a 4096-element block the pivot sits inside the data
      // range, so the correction cancels at most a few bits; block
      // sums then combine via Chan's merge. This reads each input
      // exactly once where the two-pass form reads it twice, and the
      // correction can round a hair negative for near-constant blocks,
      // hence the clamp (sxx, syy are sums of squares).
      const double px = static_cast<double>(xp[0]);
      const double py = static_cast<double>(yp[0]);
      double sdx[kLanes] = {0.0, 0.0, 0.0, 0.0};
      double sdy[kLanes] = {0.0, 0.0, 0.0, 0.0};
      double cxx[kLanes] = {0.0, 0.0, 0.0, 0.0};
      double cyy[kLanes] = {0.0, 0.0, 0.0, 0.0};
      double cxy[kLanes] = {0.0, 0.0, 0.0, 0.0};
      std::size_t i = 0;
      for (; i + kLanes <= len; i += kLanes) {
        for (std::size_t k = 0; k < kLanes; ++k) {
          const double dx = static_cast<double>(xp[i + k]) - px;
          const double dy = static_cast<double>(yp[i + k]) - py;
          sdx[k] += dx;
          sdy[k] += dy;
          cxx[k] += dx * dx;
          cyy[k] += dy * dy;
          cxy[k] += dx * dy;
        }
      }
      for (; i < len; ++i) {
        const double dx = static_cast<double>(xp[i]) - px;
        const double dy = static_cast<double>(yp[i]) - py;
        sdx[0] += dx;
        sdy[0] += dy;
        cxx[0] += dx * dx;
        cyy[0] += dy * dy;
        cxy[0] += dx * dy;
      }
      const double sx = (sdx[0] + sdx[1]) + (sdx[2] + sdx[3]);
      const double sy = (sdy[0] + sdy[1]) + (sdy[2] + sdy[3]);
      const double d = static_cast<double>(len);
      blk.count = len;
      blk.mean_x = px + sx / d;
      blk.mean_y = py + sy / d;
      blk.sxx = std::max(0.0, ((cxx[0] + cxx[1]) + (cxx[2] + cxx[3])) - sx * sx / d);
      blk.syy = std::max(0.0, ((cyy[0] + cyy[1]) + (cyy[2] + cyy[3])) - sy * sy / d);
      blk.sxy = ((cxy[0] + cxy[1]) + (cxy[2] + cxy[3])) - sx * sy / d;
    } else {
      // Masked slow path: same pivoted single pass, pivoted on the
      // block's first valid element.
      std::size_t first = 0;
      while (first < len && !mk[first]) ++first;
      if (first == len) return;
      const double px = static_cast<double>(xp[first]);
      const double py = static_cast<double>(yp[first]);
      double sx = 0.0, sy = 0.0, cxx = 0.0, cyy = 0.0, cxy = 0.0;
      std::size_t cnt = 0;
      for (std::size_t i = first; i < len; ++i) {
        if (!mk[i]) continue;
        const double dx = static_cast<double>(xp[i]) - px;
        const double dy = static_cast<double>(yp[i]) - py;
        sx += dx;
        sy += dy;
        cxx += dx * dx;
        cyy += dy * dy;
        cxy += dx * dy;
        ++cnt;
      }
      const double d = static_cast<double>(cnt);
      blk.count = cnt;
      blk.mean_x = px + sx / d;
      blk.mean_y = py + sy / d;
      blk.sxx = std::max(0.0, cxx - sx * sx / d);
      blk.syy = std::max(0.0, cyy - sy * sy / d);
      blk.sxy = cxy - sx * sy / d;
    }
    acc.merge(blk);
  }
}

template <typename T>
CoMomentAccum comoments_impl(std::span<const T> x, std::span<const T> y,
                             std::span<const std::uint8_t> mask) {
  CESM_REQUIRE(x.size() == y.size());
  CESM_REQUIRE(mask.empty() || mask.size() == x.size());
  CoMomentAccum acc;
  const std::size_t n = x.size();
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    comoment_block(x.data() + b, y.data() + b,
                   mask.empty() ? nullptr : mask.data() + b, len, acc);
  }
  return acc;
}

/// One ≤kBlock block of the error-norm kernel. The compensated total is
/// carried across blocks by the caller (one-shot loop or ErrorNormStream).
void error_block(const float* xp, const float* yp, const std::uint8_t* mk,
                 std::size_t len, ErrorAccum& acc, CompensatedSum& total) {
  if (mk == nullptr || all_valid({mk, len})) {
    double s[kLanes] = {0.0, 0.0, 0.0, 0.0};
    double mx[kLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + kLanes <= len; i += kLanes) {
      for (std::size_t k = 0; k < kLanes; ++k) {
        const double e = static_cast<double>(xp[i + k]) - static_cast<double>(yp[i + k]);
        const double a = std::fabs(e);
        s[k] += e * e;
        mx[k] = a > mx[k] ? a : mx[k];
      }
    }
    for (; i < len; ++i) {
      const double e = static_cast<double>(xp[i]) - static_cast<double>(yp[i]);
      const double a = std::fabs(e);
      s[0] += e * e;
      mx[0] = a > mx[0] ? a : mx[0];
    }
    total.add((s[0] + s[1]) + (s[2] + s[3]));
    const double blk_max = std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]));
    acc.max_abs = blk_max > acc.max_abs ? blk_max : acc.max_abs;
    acc.count += len;
  } else {
    double s = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      if (!mk[i]) continue;
      const double e = static_cast<double>(xp[i]) - static_cast<double>(yp[i]);
      const double a = std::fabs(e);
      s += e * e;
      acc.max_abs = a > acc.max_abs ? a : acc.max_abs;
      ++acc.count;
    }
    total.add(s);
  }
}

/// One ≤kBlock block of the z-score kernel. `inv` is 1/(member_count-1),
/// hoisted by the caller exactly as the one-shot kernel hoists it. The
/// masked path adds per point straight into `acc` — that ordering is part
/// of the kernel's floating-point identity, which is why the stream must
/// reuse this block routine rather than merging per-chunk sub-results.
void zscore_block(const float* dp, const float* op, const double* sp, const double* qp,
                  const std::uint8_t* mk, std::size_t len, double inv, double floor_rel,
                  ZScoreAccum& acc) {
  if (mk == nullptr || all_valid({mk, len})) {
    // Branchless select form: degenerate-spread points contribute 0 and a
    // clamped denominator keeps the divide finite. The accumulated
    // quantity is z² = (x-μ)²/σ², so no sqrt is needed at all — the
    // legacy loop's sqrt-then-square is one divide plus one sqrt per
    // point of pure overhead.
    double z2[kLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t used[kLanes] = {0, 0, 0, 0};
    std::size_t i = 0;
    for (; i + kLanes <= len; i += kLanes) {
      for (std::size_t k = 0; k < kLanes; ++k) {
        const double xm = static_cast<double>(op[i + k]);
        const double mu = (sp[i + k] - xm) * inv;
        const double raw = (qp[i + k] - xm * xm) * inv - mu * mu;
        const double var = raw > 0.0 ? raw : 0.0;
        const double floor_sd = floor_rel * std::fabs(mu);
        const bool use = var > floor_sd * floor_sd;
        const double num = static_cast<double>(dp[i + k]) - mu;
        z2[k] += use ? num * num / var : 0.0;
        used[k] += use ? 1 : 0;
      }
    }
    for (; i < len; ++i) {
      const double xm = static_cast<double>(op[i]);
      const double mu = (sp[i] - xm) * inv;
      const double raw = (qp[i] - xm * xm) * inv - mu * mu;
      const double var = raw > 0.0 ? raw : 0.0;
      const double floor_sd = floor_rel * std::fabs(mu);
      const bool use = var > floor_sd * floor_sd;
      const double num = static_cast<double>(dp[i]) - mu;
      z2[0] += use ? num * num / var : 0.0;
      used[0] += use ? 1 : 0;
    }
    acc.sum_z2 += (z2[0] + z2[1]) + (z2[2] + z2[3]);
    acc.used += (used[0] + used[1]) + (used[2] + used[3]);
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      if (!mk[i]) continue;
      const double xm = static_cast<double>(op[i]);
      const double mu = (sp[i] - xm) * inv;
      const double raw = (qp[i] - xm * xm) * inv - mu * mu;
      const double var = raw > 0.0 ? raw : 0.0;
      const double floor_sd = floor_rel * std::fabs(mu);
      if (var <= floor_sd * floor_sd) continue;
      const double num = static_cast<double>(dp[i]) - mu;
      acc.sum_z2 += num * num / var;
      ++acc.used;
    }
  }
}

/// Copy `take` mask bytes into a staging slice, or ones when the caller's
/// mask slice is empty (all-valid; identical arithmetic via all_valid).
void stage_mask_bytes(std::uint8_t* dst, std::span<const std::uint8_t> mask,
                      std::size_t offset, std::size_t take) {
  if (mask.empty()) {
    std::memset(dst, 1, take);
  } else {
    std::memcpy(dst, mask.data() + offset, take);
  }
}

/// The caller's mask at `offset` for an in-place block; null (no mask)
/// when the slice is empty, which the block routines treat exactly like
/// an all-ones mask.
const std::uint8_t* mask_at(std::span<const std::uint8_t> mask, std::size_t offset) {
  return mask.empty() ? nullptr : mask.data() + offset;
}

/// The feed loop all four streams share. While nothing is staged, whole
/// kBlock blocks — and, on the `last` feed, the final partial block — run
/// in place from the caller's spans (`run_block(i, len)`); everything else
/// is staged (`stage(i, take)`) and flushed when a block fills. Both paths
/// call the same block routine on the same absolute block grid, so the
/// result does not depend on which one a block took.
/// Size a stream's staging buffers on first use, so a stream whose feeds
/// all run in place never allocates them.
template <typename... Buffers>
void size_staging(Buffers&... buffers) {
  (buffers.resize(kBlock), ...);
}

template <typename RunBlock, typename Stage, typename Flush>
void feed_blocks(std::size_t n, bool last, std::size_t& staged, const RunBlock& run_block,
                 const Stage& stage, const Flush& flush) {
  std::size_t i = 0;
  while (i < n) {
    if (staged == 0 && (n - i >= kBlock || last)) {
      const std::size_t len = std::min(kBlock, n - i);
      run_block(i, len);
      i += len;
      continue;
    }
    const std::size_t take = std::min(kBlock - staged, n - i);
    stage(i, take);
    staged += take;
    i += take;
    if (staged == kBlock) flush();
  }
}

}  // namespace

bool all_valid(std::span<const std::uint8_t> mask) {
  if (mask.empty()) return true;
  return std::memchr(mask.data(), 0, mask.size()) == nullptr;
}

std::size_t count_valid(std::span<const std::uint8_t> mask, std::size_t fallback_count) {
  if (mask.empty()) return fallback_count;
  std::size_t lanes[kLanes] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + kLanes <= mask.size(); i += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) lanes[k] += mask[i + k] ? 1 : 0;
  }
  for (; i < mask.size(); ++i) lanes[0] += mask[i] ? 1 : 0;
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void MomentAccum::merge(const MomentAccum& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count);
  const double nb = static_cast<double>(other.count);
  const double nn = na + nb;
  const double delta = other.mean - mean;
  m2 += other.m2 + delta * delta * (na * nb / nn);
  mean += delta * (nb / nn);
  min = other.min < min ? other.min : min;
  max = other.max > max ? other.max : max;
  count += other.count;
}

void CoMomentAccum::merge(const CoMomentAccum& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count);
  const double nb = static_cast<double>(other.count);
  const double nn = na + nb;
  const double f = na * nb / nn;
  const double dx = other.mean_x - mean_x;
  const double dy = other.mean_y - mean_y;
  sxx += other.sxx + dx * dx * f;
  syy += other.syy + dy * dy * f;
  sxy += other.sxy + dx * dy * f;
  mean_x += dx * (nb / nn);
  mean_y += dy * (nb / nn);
  count += other.count;
}

MomentAccum moments(std::span<const float> data, std::span<const std::uint8_t> mask) {
  return moments_impl(data, mask);
}

MomentAccum moments(std::span<const double> data, std::span<const std::uint8_t> mask) {
  return moments_impl(data, mask);
}

CoMomentAccum comoments(std::span<const float> x, std::span<const float> y,
                        std::span<const std::uint8_t> mask) {
  return comoments_impl(x, y, mask);
}

CoMomentAccum comoments(std::span<const double> x, std::span<const double> y,
                        std::span<const std::uint8_t> mask) {
  return comoments_impl(x, y, mask);
}

ErrorAccum error_norms(std::span<const float> original,
                       std::span<const float> reconstructed,
                       std::span<const std::uint8_t> mask) {
  CESM_REQUIRE(original.size() == reconstructed.size());
  CESM_REQUIRE(mask.empty() || mask.size() == original.size());
  ErrorAccum acc;
  CompensatedSum total;
  const std::size_t n = original.size();
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    error_block(original.data() + b, reconstructed.data() + b,
                mask.empty() ? nullptr : mask.data() + b, len, acc, total);
  }
  acc.sum_sq = total.value();
  return acc;
}

ZScoreAccum zscore_sums(std::span<const float> data, std::span<const float> orig,
                        std::span<const double> sum, std::span<const double> sum_sq,
                        std::span<const std::uint8_t> mask, double member_count,
                        double floor_rel) {
  const std::size_t n = data.size();
  CESM_REQUIRE(orig.size() == n && sum.size() == n && sum_sq.size() == n);
  CESM_REQUIRE(mask.empty() || mask.size() == n);
  CESM_REQUIRE(member_count >= 2.0);
  ZScoreAccum acc;
  const double inv = 1.0 / (member_count - 1.0);
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    zscore_block(data.data() + b, orig.data() + b, sum.data() + b, sum_sq.data() + b,
                 mask.empty() ? nullptr : mask.data() + b, len, inv, floor_rel, acc);
  }
  return acc;
}

void accumulate_sum_sq(std::span<const float> x, std::span<const std::uint8_t> mask,
                       std::span<double> sum, std::span<double> sum_sq) {
  const std::size_t n = x.size();
  CESM_REQUIRE(sum.size() == n && sum_sq.size() == n);
  CESM_REQUIRE(mask.empty() || mask.size() == n);
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    const float* xp = x.data() + b;
    double* sp = sum.data() + b;
    double* qp = sum_sq.data() + b;
    if (mask.empty() || all_valid(mask.subspan(b, len))) {
      for (std::size_t i = 0; i < len; ++i) {
        const double v = static_cast<double>(xp[i]);
        sp[i] += v;
        qp[i] += v * v;
      }
    } else {
      const std::uint8_t* mk = mask.data() + b;
      for (std::size_t i = 0; i < len; ++i) {
        if (!mk[i]) continue;
        const double v = static_cast<double>(xp[i]);
        sp[i] += v;
        qp[i] += v * v;
      }
    }
  }
}

void update_extremes(std::span<const float> x, std::span<const std::uint8_t> mask,
                     std::uint32_t m, std::span<float> max1, std::span<float> max2,
                     std::span<std::uint32_t> argmax, std::span<float> min1,
                     std::span<float> min2, std::span<std::uint32_t> argmin) {
  const std::size_t n = x.size();
  CESM_REQUIRE(max1.size() == n && max2.size() == n && argmax.size() == n);
  CESM_REQUIRE(min1.size() == n && min2.size() == n && argmin.size() == n);
  CESM_REQUIRE(mask.empty() || mask.size() == n);
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    const bool dense = mask.empty() || all_valid(mask.subspan(b, len));
    const std::uint8_t* mk = mask.empty() ? nullptr : mask.data() + b;
    for (std::size_t i = 0; i < len; ++i) {
      if (!dense && !mk[i]) continue;
      const std::size_t j = b + i;
      const float v = x[j];
      if (v > max1[j]) {
        max2[j] = max1[j];
        max1[j] = v;
        argmax[j] = m;
      } else if (v > max2[j]) {
        max2[j] = v;
      }
      if (v < min1[j]) {
        min2[j] = min1[j];
        min1[j] = v;
        argmin[j] = m;
      } else if (v < min2[j]) {
        min2[j] = v;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Streaming front ends. Each runs aligned blocks in place, stages the rest
// into an owned kBlock buffer, and processes both through the same block
// routine the one-shot kernel uses, so the absolute block grid — and
// therefore every floating-point result — is identical for any chunk
// partition of the input.

MomentStream::MomentStream(bool masked) : masked_(masked) {}

void MomentStream::feed(std::span<const float> data, std::span<const std::uint8_t> mask,
                        bool last) {
  CESM_REQUIRE(mask.empty() || mask.size() == data.size());
  CESM_REQUIRE(masked_ || mask.empty());
  feed_blocks(
      data.size(), last, staged_,
      [&](std::size_t i, std::size_t len) {
        moment_block(data.data() + i, mask_at(mask, i), len, acc_);
      },
      [&](std::size_t i, std::size_t take) {
        if (stage_.empty()) size_staging(stage_, stage_mask_);
        std::memcpy(stage_.data() + staged_, data.data() + i, take * sizeof(float));
        if (masked_) stage_mask_bytes(stage_mask_.data() + staged_, mask, i, take);
      },
      [&] { flush_block(); });
}

void MomentStream::flush_block() {
  moment_block(stage_.data(), masked_ ? stage_mask_.data() : nullptr, staged_, acc_);
  staged_ = 0;
}

MomentAccum MomentStream::finish() {
  if (staged_ > 0) flush_block();
  return acc_;
}

CoMomentStream::CoMomentStream(bool masked) : masked_(masked) {}

void CoMomentStream::feed(std::span<const float> x, std::span<const float> y,
                          std::span<const std::uint8_t> mask, bool last) {
  CESM_REQUIRE(x.size() == y.size());
  CESM_REQUIRE(mask.empty() || mask.size() == x.size());
  CESM_REQUIRE(masked_ || mask.empty());
  feed_blocks(
      x.size(), last, staged_,
      [&](std::size_t i, std::size_t len) {
        comoment_block(x.data() + i, y.data() + i, mask_at(mask, i), len, acc_);
      },
      [&](std::size_t i, std::size_t take) {
        if (stage_x_.empty()) size_staging(stage_x_, stage_y_, stage_mask_);
        std::memcpy(stage_x_.data() + staged_, x.data() + i, take * sizeof(float));
        std::memcpy(stage_y_.data() + staged_, y.data() + i, take * sizeof(float));
        if (masked_) stage_mask_bytes(stage_mask_.data() + staged_, mask, i, take);
      },
      [&] { flush_block(); });
}

void CoMomentStream::flush_block() {
  comoment_block(stage_x_.data(), stage_y_.data(),
                 masked_ ? stage_mask_.data() : nullptr, staged_, acc_);
  staged_ = 0;
}

CoMomentAccum CoMomentStream::finish() {
  if (staged_ > 0) flush_block();
  return acc_;
}

ErrorNormStream::ErrorNormStream(bool masked) : masked_(masked) {}

void ErrorNormStream::feed(std::span<const float> original,
                           std::span<const float> reconstructed,
                           std::span<const std::uint8_t> mask, bool last) {
  CESM_REQUIRE(original.size() == reconstructed.size());
  CESM_REQUIRE(mask.empty() || mask.size() == original.size());
  CESM_REQUIRE(masked_ || mask.empty());
  feed_blocks(
      original.size(), last, staged_,
      [&](std::size_t i, std::size_t len) {
        run_block(original.data() + i, reconstructed.data() + i, mask_at(mask, i), len);
      },
      [&](std::size_t i, std::size_t take) {
        if (stage_x_.empty()) size_staging(stage_x_, stage_y_, stage_mask_);
        std::memcpy(stage_x_.data() + staged_, original.data() + i, take * sizeof(float));
        std::memcpy(stage_y_.data() + staged_, reconstructed.data() + i,
                    take * sizeof(float));
        if (masked_) stage_mask_bytes(stage_mask_.data() + staged_, mask, i, take);
      },
      [&] { flush_block(); });
}

void ErrorNormStream::run_block(const float* x, const float* y, const std::uint8_t* mk,
                                std::size_t len) {
  CompensatedSum total{total_.sum, total_.comp};
  error_block(x, y, mk, len, acc_, total);
  total_ = {total.sum, total.comp};
}

void ErrorNormStream::flush_block() {
  run_block(stage_x_.data(), stage_y_.data(), masked_ ? stage_mask_.data() : nullptr,
            staged_);
  staged_ = 0;
}

ErrorAccum ErrorNormStream::finish() {
  if (staged_ > 0) flush_block();
  acc_.sum_sq = CompensatedSum{total_.sum, total_.comp}.value();
  return acc_;
}

ZScoreStream::ZScoreStream(double member_count, double floor_rel, bool masked)
    : floor_rel_(floor_rel), masked_(masked) {
  CESM_REQUIRE(member_count >= 2.0);
  inv_ = 1.0 / (member_count - 1.0);
}

void ZScoreStream::feed(std::span<const float> data, std::span<const float> orig,
                        std::span<const double> sum, std::span<const double> sum_sq,
                        std::span<const std::uint8_t> mask, bool last) {
  const std::size_t n = data.size();
  CESM_REQUIRE(orig.size() == n && sum.size() == n && sum_sq.size() == n);
  CESM_REQUIRE(mask.empty() || mask.size() == n);
  CESM_REQUIRE(masked_ || mask.empty());
  feed_blocks(
      n, last, staged_,
      [&](std::size_t i, std::size_t len) {
        zscore_block(data.data() + i, orig.data() + i, sum.data() + i, sum_sq.data() + i,
                     mask_at(mask, i), len, inv_, floor_rel_, acc_);
      },
      [&](std::size_t i, std::size_t take) {
        if (stage_data_.empty()) {
          size_staging(stage_data_, stage_orig_, stage_sum_, stage_sum_sq_, stage_mask_);
        }
        std::memcpy(stage_data_.data() + staged_, data.data() + i, take * sizeof(float));
        std::memcpy(stage_orig_.data() + staged_, orig.data() + i, take * sizeof(float));
        std::memcpy(stage_sum_.data() + staged_, sum.data() + i, take * sizeof(double));
        std::memcpy(stage_sum_sq_.data() + staged_, sum_sq.data() + i,
                    take * sizeof(double));
        if (masked_) stage_mask_bytes(stage_mask_.data() + staged_, mask, i, take);
      },
      [&] { flush_block(); });
}

void ZScoreStream::flush_block() {
  zscore_block(stage_data_.data(), stage_orig_.data(), stage_sum_.data(),
               stage_sum_sq_.data(), masked_ ? stage_mask_.data() : nullptr, staged_,
               inv_, floor_rel_, acc_);
  staged_ = 0;
}

ZScoreAccum ZScoreStream::finish() {
  if (staged_ > 0) flush_block();
  return acc_;
}

}  // namespace cesm::stats::kernels
