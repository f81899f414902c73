#include "core/rmsz.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/pvt.h"
#include "stats/kernels.h"
#include "util/error.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {

template <typename Read>
void EnsembleView::build(std::size_t members, std::span<const std::size_t> offsets,
                         std::optional<float> fill, std::size_t buffer_elems,
                         const Read& read) {
  member_count_ = members;
  CESM_REQUIRE(member_count_ >= 3);
  const std::size_t n = offsets.back();
  const std::size_t chunks = offsets.size() - 1;
  const bool has_fill = fill.has_value();
  constexpr float kInf = std::numeric_limits<float>::infinity();

  // Per-point arrays: sum + sum_sq (2 x 8 B) stay with the view; the
  // extremes with runners-up (4 x 4 B) and their arg planes (2 x 4 B),
  // which only pass 2's leave-one-out max distances read, are scratch of
  // this build. Plus the mask byte while it exists.
  sum_.assign(n, 0.0);
  sum_sq_.assign(n, 0.0);
  std::vector<float> max1(n, -kInf), max2(n, -kInf), min1(n, kInf), min2(n, kInf);
  std::vector<std::uint32_t> argmax(n, 0), argmin(n, 0);
  if (has_fill) mask_.assign(n, 1);

  // Pass 1 — parallel over chunks: each task owns a disjoint point slice
  // (and a read buffer, when the data is not resident) and walks the
  // members in order within it, so per point the arithmetic and its order
  // are the serial loop's at every thread count. Member 0 derives the
  // validity mask slice; later members must agree on it, or sum_/sum_sq_
  // would silently absorb fill values.
  const float fill_value = fill.value_or(0.0f);
  parallel_for(0, chunks, [&](std::size_t c) {
    const std::size_t lo = offsets[c];
    const std::size_t len = offsets[c + 1] - lo;
    std::vector<float> buf(buffer_elems);
    const std::span<std::uint8_t> mask_slice =
        has_fill ? std::span<std::uint8_t>(mask_).subspan(lo, len)
                 : std::span<std::uint8_t>{};
    for (std::size_t m = 0; m < member_count_; ++m) {
      const std::span<const float> x = read(m, c, std::span<float>(buf));
      for (std::size_t i = 0; has_fill && i < len; ++i) {
        const bool valid = x[i] != fill_value;
        if (m == 0) {
          mask_slice[i] = valid ? std::uint8_t{1} : std::uint8_t{0};
        } else {
          CESM_REQUIRE(valid == (mask_slice[i] != 0));
        }
      }
      stats::kernels::accumulate_sum_sq(x, mask_slice,
                                        std::span<double>(sum_).subspan(lo, len),
                                        std::span<double>(sum_sq_).subspan(lo, len));
      stats::kernels::update_extremes(
          x, mask_slice, static_cast<std::uint32_t>(m),
          std::span<float>(max1).subspan(lo, len), std::span<float>(max2).subspan(lo, len),
          std::span<std::uint32_t>(argmax).subspan(lo, len),
          std::span<float>(min1).subspan(lo, len), std::span<float>(min2).subspan(lo, len),
          std::span<std::uint32_t>(argmin).subspan(lo, len));
    }
  });

  // Normalize: a fill pattern that never fires is the same as no fill at
  // all, so downstream kernels take the dense path and verdicts match
  // fill-free variables bit for bit.
  valid_points_ = stats::kernels::count_valid(mask_, n);
  if (has_fill && valid_points_ == n) {
    mask_.clear();
    mask_.shrink_to_fit();
  }
  CESM_REQUIRE(valid_points_ > 0);

  // Pass 2 — parallel over members: each member reads its chunks once
  // more, in order, into one buffer of its own (none when the data is
  // resident), through the block-realigning moment/z-score streams
  // (bit-equal to the one-shot kernels on the whole array) and folds its
  // E_nmax distance (eq. 10): the pointwise leave-one-out distance, maxed
  // over valid points — order-invariant, so the partition cannot change
  // it.
  member_summary_.resize(member_count_);
  rmsz_dist_.resize(member_count_);
  enmax_dist_.resize(member_count_);
  const bool masked = !mask_.empty();
  parallel_for(0, member_count_, [&](std::size_t m) {
    stats::kernels::MomentStream mom(masked);
    stats::kernels::ZScoreStream zs(static_cast<double>(member_count_),
                                    kDegenerateSpreadRelTol, masked);
    double worst = 0.0;
    std::vector<float> buf(buffer_elems);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = offsets[c];
      const std::span<const float> x = read(m, c, std::span<float>(buf));
      const std::span<const std::uint8_t> mask_slice =
          masked ? std::span<const std::uint8_t>(mask_).subspan(lo, x.size())
                 : std::span<const std::uint8_t>{};
      const bool last = c + 1 == chunks;
      mom.feed(x, mask_slice, last);
      zs.feed(x, x, std::span<const double>(sum_).subspan(lo, x.size()),
              std::span<const double>(sum_sq_).subspan(lo, x.size()), mask_slice, last);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const std::size_t j = lo + i;
        if (masked && mask_[j] == 0) continue;
        const float hi_v = (argmax[j] == m) ? max2[j] : max1[j];
        const float lo_v = (argmin[j] == m) ? min2[j] : min1[j];
        worst = std::max(worst,
                         std::max(static_cast<double>(hi_v) - static_cast<double>(x[i]),
                                  static_cast<double>(x[i]) - static_cast<double>(lo_v)));
      }
    }
    member_summary_[m] = stats::summary_from(mom.finish());
    rmsz_dist_[m] = rmsz_from_accum(zs.finish());
    const double range = member_summary_[m].range();
    enmax_dist_[m] = range > 0.0 ? worst / range : worst;
  });
  finalize_rmsz_range();
}

EnsembleStats::EnsembleStats(std::vector<climate::Field> members)
    : members_(std::move(members)) {
  trace::Span span("stats.build");
  CESM_REQUIRE(members_.size() >= 3);
  const std::size_t n = members_[0].size();
  for (const climate::Field& f : members_) {
    CESM_REQUIRE(f.size() == n);
  }
  // The members are resident: chunks are views, cut on a fixed multiple
  // of the kernel block (never derived from the worker count) so the
  // streams run every block in place and the decomposition reproduces.
  const std::vector<std::size_t> offsets =
      chunk_partition(comp::Shape::d1(n), 16 * stats::kernels::kBlock);
  const auto view = [&](std::size_t m, std::size_t c, std::span<float>) {
    return std::span<const float>(members_[m].data)
        .subspan(offsets[c], offsets[c + 1] - offsets[c]);
  };
  build(members_.size(), offsets, members_[0].fill, 0, view);
}

StreamingStats::StreamingStats(const ncio::ChunkStoreReader& store) {
  trace::Span span("ooc.stats");
  const std::size_t max_chunk = max_chunk_elems(store.chunk_offsets());
  build(store.member_count(), store.chunk_offsets(), store.fill(), max_chunk,
        [&](std::size_t m, std::size_t c, std::span<float> buf) {
          const std::span<float> out = buf.first(store.chunk_elems(c));
          store.read_chunk(static_cast<std::uint32_t>(m), c, out);
          return std::span<const float>(out);
        });
}

std::vector<double> EnsembleView::global_means() const {
  std::vector<double> means;
  for (const stats::Summary& s : member_summary_) means.push_back(s.mean);
  return means;
}

void EnsembleView::finalize_rmsz_range() {
  const auto [lo, hi] = std::minmax_element(rmsz_dist_.begin(), rmsz_dist_.end());
  rmsz_min_ = *lo;
  rmsz_max_ = *hi;
}

double EnsembleStats::rmsz_of(std::size_t m, std::span<const float> data) const {
  CESM_REQUIRE(m < members_.size());
  const std::size_t n = members_[0].size();
  CESM_REQUIRE(data.size() == n);

  // Sub-ensemble {E \ m} statistics via leave-one-out update of the
  // per-point sufficient statistics. The value removed is the *original*
  // member m, even when scoring reconstructed data in its place. Points
  // with degenerate spread — below the float32 representation noise of
  // the mean (e.g. a saturated cloud-fraction point identical across
  // members) — are skipped; see kDegenerateSpreadRelTol.
  const stats::kernels::ZScoreAccum acc = stats::kernels::zscore_sums(
      data, members_[m].data, sum_, sum_sq_, mask_,
      static_cast<double>(members_.size()), kDegenerateSpreadRelTol);
  return rmsz_from_accum(acc);
}

double EnsembleView::enmax_range() const {
  const auto [lo, hi] = std::minmax_element(enmax_dist_.begin(), enmax_dist_.end());
  return *hi - *lo;
}

namespace {

// Layout version of the EnsembleStats snapshot itself (independent of the
// disk-cache container version): bump on any change to the field set or
// their order below, so stale snapshots deserialize as FormatError and the
// cache regenerates them instead of misreading bytes.
constexpr std::uint32_t kStatsFormatVersion = 3;

template <typename T>
void write_array(ByteWriter& w, const std::vector<T>& v) {
  w.u64(v.size());
  if constexpr (sizeof(T) == 1) {
    w.raw(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  } else if constexpr (std::is_same_v<T, float>) {
    w.f32_array(v);
  } else {
    w.f64_array(v);
  }
}

template <typename T>
std::vector<T> read_array(ByteReader& r) {
  const std::uint64_t n = r.u64();
  // An adversarially large count would throw in need() anyway, but check
  // against the remaining bytes first so we never attempt the allocation.
  if (n > r.remaining() / sizeof(T)) throw FormatError("array length overruns stream");
  std::vector<T> v(static_cast<std::size_t>(n));
  if constexpr (sizeof(T) == 1) {
    const auto src = r.raw(v.size());
    std::copy(src.begin(), src.end(), v.begin());
  } else if constexpr (std::is_same_v<T, float>) {
    r.f32_array(v);
  } else {
    r.f64_array(v);
  }
  return v;
}

}  // namespace

void EnsembleStats::serialize(ByteWriter& w) const {
  w.u32(kStatsFormatVersion);

  // Members: name/shape/fill are identical across members by construction,
  // so store them once.
  const climate::Field& proto = members_[0];
  w.str(proto.name);
  w.u64(proto.shape.dims.size());
  for (std::size_t d : proto.shape.dims) w.u64(d);
  w.u8(proto.fill.has_value() ? 1 : 0);
  if (proto.fill) w.f32(*proto.fill);

  w.u64(members_.size());
  for (const climate::Field& f : members_) write_array(w, f.data);

  write_array(w, mask_);
  w.u64(valid_points_);
  write_array(w, sum_);
  write_array(w, sum_sq_);
  write_array(w, rmsz_dist_);
  write_array(w, enmax_dist_);
  for (const stats::Summary& sm : member_summary_) {
    for (const double v : {sm.min, sm.max, sm.mean, sm.stddev}) w.f64(v);
    w.u64(sm.count);
  }
}

EnsembleStats EnsembleStats::deserialize(ByteReader& r) {
  if (r.u32() != kStatsFormatVersion) {
    throw FormatError("EnsembleStats snapshot version mismatch");
  }

  EnsembleStats s;
  const std::string name = r.str();
  comp::Shape shape;
  const std::uint64_t rank = r.u64();
  if (rank > 8) throw FormatError("EnsembleStats snapshot rank implausible");
  for (std::uint64_t i = 0; i < rank; ++i) {
    shape.dims.push_back(static_cast<std::size_t>(r.u64()));
  }
  std::optional<float> fill;
  if (r.u8() != 0) fill = r.f32();

  const std::uint64_t m_count = r.u64();
  if (m_count < 3 || m_count > (1u << 20)) {
    throw FormatError("EnsembleStats snapshot member count implausible");
  }
  const std::size_t n = shape.count();
  s.member_count_ = static_cast<std::size_t>(m_count);
  s.members_.reserve(s.member_count_);
  for (std::uint64_t m = 0; m < m_count; ++m) {
    climate::Field f{name, shape, read_array<float>(r), fill};
    if (f.data.size() != n) throw FormatError("EnsembleStats member size mismatch");
    s.members_.push_back(std::move(f));
  }

  s.mask_ = read_array<std::uint8_t>(r);
  if (!s.mask_.empty() && s.mask_.size() != n) {
    throw FormatError("EnsembleStats mask size mismatch");
  }
  s.valid_points_ = static_cast<std::size_t>(r.u64());
  s.sum_ = read_array<double>(r);
  s.sum_sq_ = read_array<double>(r);
  if (s.sum_.size() != n || s.sum_sq_.size() != n) {
    throw FormatError("EnsembleStats point-array size mismatch");
  }
  s.rmsz_dist_ = read_array<double>(r);
  s.enmax_dist_ = read_array<double>(r);
  if (s.rmsz_dist_.size() != m_count || s.enmax_dist_.size() != m_count) {
    throw FormatError("EnsembleStats member-array size mismatch");
  }
  if (s.valid_points_ == 0 || s.valid_points_ > n) {
    throw FormatError("EnsembleStats valid point count implausible");
  }
  s.member_summary_.resize(s.member_count_);
  for (stats::Summary& sm : s.member_summary_) {
    for (double* v : {&sm.min, &sm.max, &sm.mean, &sm.stddev}) *v = r.f64();
    sm.count = static_cast<std::size_t>(r.u64());
  }

  s.finalize_rmsz_range();
  return s;
}

std::size_t EnsembleStats::memory_bytes() const {
  const std::size_t n = members_.empty() ? 0 : members_[0].size();
  std::size_t bytes = members_.size() * n * sizeof(float);  // member data
  bytes += mask_.size();
  bytes += (sum_.size() + sum_sq_.size()) * sizeof(double);
  bytes += (rmsz_dist_.size() + enmax_dist_.size()) * sizeof(double);
  bytes += member_summary_.size() * sizeof(stats::Summary);
  return bytes;
}

}  // namespace cesm::core
