#pragma once
// CESM-PVT ensemble machinery (§4.3, eqs. 6–7 and 10).
//
// EnsembleView holds what verification needs of one variable's
// perturbation ensemble: RMSZ_X^m — the root-mean-square Z-score of member
// m against the sub-ensemble {E \ m} (eqs. 6–7) — the E_nmax distribution
// (eq. 10), and per-member summaries and global means. Leave-one-out
// statistics come from per-point sufficient statistics (sum and sum of
// squares), so scoring any member is O(N) rather than O(N·M).

#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "climate/field.h"
#include "stats/descriptive.h"
#include "stats/kernels.h"
#include "util/bytes.h"

namespace cesm::ncio {
class ChunkStoreReader;
}

namespace cesm::core {

/// Spread below this fraction of |mean| is float32 representation noise;
/// z-scores against it are meaningless (eq. 6 degenerate-spread guard).
inline constexpr double kDegenerateSpreadRelTol = 3e-7;

/// RMSZ (eq. 7) from a z-score accumulation — the exact finalization
/// rmsz_of() applies, shared with the chunk-walking verifier, which
/// accumulates chunk-by-chunk (stats::ZScoreStream).
inline double rmsz_from_accum(const stats::kernels::ZScoreAccum& acc) {
  if (acc.used == 0) return 0.0;
  return std::sqrt(acc.sum_z2 / static_cast<double>(acc.used));
}

/// The lossless baselines of one probe member: its Deflate (NetCDF-4) and
/// fpzip-32 compression ratios.
struct ProbeRatios {
  double lossless_cr = 1.0;
  double fpzip32_cr = 1.0;
};

/// The derived statistics of one variable's ensemble — everything the
/// verifier reads: the per-point sufficient statistics, the shared
/// validity mask and the per-member summaries and distributions.
/// EnsembleStats builds it from resident members, StreamingStats from a
/// chunk store; for the same data both hold bit-identical values.
class EnsembleView {
 public:
  [[nodiscard]] std::size_t member_count() const { return member_count_; }
  [[nodiscard]] std::size_t point_count() const { return valid_points_; }

  /// Shared validity mask of the ensemble (empty = every point valid;
  /// every member agrees on it by construction).
  [[nodiscard]] std::span<const std::uint8_t> mask() const { return mask_; }

  /// Per-point Σx and Σx² over all members (the eq. 6 leave-one-out input).
  [[nodiscard]] std::span<const double> sum() const { return sum_; }
  [[nodiscard]] std::span<const double> sum_sq() const { return sum_sq_; }

  /// RMSZ_X^m of the original member m.
  [[nodiscard]] double rmsz(std::size_t m) const { return rmsz_dist_[m]; }

  /// All member RMSZ scores (the Figure 2 histogram).
  [[nodiscard]] const std::vector<double>& rmsz_distribution() const { return rmsz_dist_; }

  /// {min, max} of the RMSZ distribution, precomputed once at build time:
  /// the eq. (8) acceptance window needs it per member per variant.
  [[nodiscard]] std::pair<double, double> rmsz_range() const {
    return {rmsz_min_, rmsz_max_};
  }

  /// E_nmax^{m_X} (eq. 10) for member m.
  [[nodiscard]] double enmax(std::size_t m) const { return enmax_dist_[m]; }

  /// All member E_nmax values (the Figure 3 box plot).
  [[nodiscard]] const std::vector<double>& enmax_distribution() const { return enmax_dist_; }

  /// R_{E_nmax^X}: the range (max - min) of the E_nmax distribution,
  /// the denominator of acceptance eq. (11).
  [[nodiscard]] double enmax_range() const;

  /// The §4.1 summary of member m over valid points (the characterization
  /// and the GRIB2 magnitude heuristic read it instead of rescanning).
  [[nodiscard]] const stats::Summary& member_summary(std::size_t m) const {
    return member_summary_[m];
  }

  /// Range R_X^m of member m over valid points.
  [[nodiscard]] double member_range(std::size_t m) const { return member_summary_[m].range(); }

  /// Equal-weight global mean of member m over valid points.
  [[nodiscard]] double global_mean(std::size_t m) const { return member_summary_[m].mean; }
  [[nodiscard]] std::vector<double> global_means() const;

  /// The probe ratios of `member` on the `chunk_elems` partition, computed
  /// by `compute()` on first use and memoized on this view, so every run
  /// the ensemble cache serves this view to reuses them. The memo lives in
  /// memory only (never serialized). Thread-safe; concurrent first uses
  /// may both compute, and the first insert wins — the probes are
  /// deterministic, so both computed the same ratios.
  template <typename Compute>
  [[nodiscard]] ProbeRatios probe_ratios(std::size_t member, std::size_t chunk_elems,
                                         const Compute& compute) const {
    const std::pair<std::size_t, std::size_t> key{member, chunk_elems};
    {
      const std::lock_guard<std::mutex> lock(probe_memo_.mu);
      const auto it = probe_memo_.ratios.find(key);
      if (it != probe_memo_.ratios.end()) return it->second;
    }
    const ProbeRatios computed = compute();
    const std::lock_guard<std::mutex> lock(probe_memo_.mu);
    return probe_memo_.ratios.emplace(key, computed).first->second;
  }

 protected:
  /// Fill every derived array, in two passes, from `members` members cut
  /// on `offsets`; the partition cannot change a bit of the result.
  ///   read(m, c, buf) -> chunk c of member m: a view of resident data, or
  ///                      read into the front of `buf` (buffer_elems != 0).
  /// Both passes call it chunk by chunk, each task with one buffer of its
  /// own. `fill` marks invalid points; `buffer_elems` is the widest chunk
  /// a task reads into. The per-point extremes pass 2 reads are locals,
  /// freed when build returns.
  template <typename Read>
  void build(std::size_t members, std::span<const std::size_t> offsets,
             std::optional<float> fill, std::size_t buffer_elems, const Read& read);
  /// Derive the cached rmsz_range() extremes from rmsz_dist_.
  void finalize_rmsz_range();

  std::size_t member_count_ = 0;
  std::vector<std::uint8_t> mask_;  // normalized: empty when all valid
  std::size_t valid_points_ = 0;

  // Per-point sufficient statistics over all members.
  std::vector<double> sum_;
  std::vector<double> sum_sq_;

  std::vector<stats::Summary> member_summary_;
  std::vector<double> rmsz_dist_;
  std::vector<double> enmax_dist_;
  double rmsz_min_ = 0.0;
  double rmsz_max_ = 0.0;

 private:
  /// The probe_ratios() memo. A copy starts empty: the memo only holds
  /// what the view's data determines, and the copy recomputes it.
  struct ProbeMemo {
    ProbeMemo() = default;
    ProbeMemo(const ProbeMemo&) {}
    ProbeMemo& operator=(const ProbeMemo&) {
      const std::lock_guard<std::mutex> lock(mu);
      ratios.clear();
      return *this;
    }
    std::mutex mu;
    std::map<std::pair<std::size_t, std::size_t>, ProbeRatios> ratios;
  };
  mutable ProbeMemo probe_memo_;
};

/// The ensemble view built from resident members, which it also keeps
/// (the in-core leg verifies straight from them).
class EnsembleStats final : public EnsembleView {
 public:
  /// Takes ownership of all members' fields (same variable, same shape,
  /// same fill layout). Requires at least 3 members.
  explicit EnsembleStats(std::vector<climate::Field> members);

  [[nodiscard]] const climate::Field& member(std::size_t m) const { return members_[m]; }

  /// RMSZ of arbitrary data standing in for member m: each point is
  /// z-scored against the sub-ensemble {E \ m} (eq. 6) and the RMS taken
  /// over points with non-degenerate sub-ensemble spread (eq. 7).
  [[nodiscard]] double rmsz_of(std::size_t m, std::span<const float> data) const;

  /// Exact-bit snapshot of the members and every derived product, for the
  /// content-addressed ensemble cache (core/ensemble_cache.h). A
  /// deserialized instance is indistinguishable from a freshly built one:
  /// all floating-point state round-trips via bit casts, so cached and
  /// uncached runs produce bit-identical results.
  void serialize(ByteWriter& w) const;
  /// Inverse of serialize(); throws FormatError on a malformed stream.
  /// (The disk cache additionally checksums entries, so this mostly
  /// guards against version skew and in-memory corruption.)
  [[nodiscard]] static EnsembleStats deserialize(ByteReader& r);

  /// Resident footprint (members + derived arrays) for cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  EnsembleStats() = default;  ///< deserialize() fills every member itself

  std::vector<climate::Field> members_;
};

/// The ensemble view built from a CNK1 chunk store (core/ooc.h) in two
/// bounded-memory read passes instead of from resident members. Each task
/// of either pass reads one chunk at a time into one buffer of its own
/// and never waits on another task while it holds it, so the build's
/// buffers are one chunk per lane (buffer_lanes). Its peak is part of the
/// working set the streaming leg reserves (ooc_working_set_bytes).
class StreamingStats final : public EnsembleView {
 public:
  explicit StreamingStats(const ncio::ChunkStoreReader& store);
};

}  // namespace cesm::core
