#pragma once
// The CESM-PVT-based verification of a compression method (§4.3).
//
// For one variable, given its perturbation ensemble:
//   1. ρ test        — Pearson correlation >= 0.99999 (§4.2);
//   2. RMSZ test     — reconstructed member's RMSZ falls inside the
//                      ensemble RMSZ distribution AND differs from the
//                      original member's score by <= 1/10 (eq. 8);
//   3. E_nmax test   — e_nmax(original, reconstructed) is <= 1/10 of the
//                      ensemble E_nmax range (eq. 11);
//   4. bias test     — eq. (9) over all members (see core/bias.h).
// Tests 1–3 run on a small set of randomly chosen members (the paper uses
// three); the bias test compresses the whole ensemble.
//
// One verifier serves the in-core and out-of-core legs: it walks each
// member chunk by chunk on a ChunkSource (resident EnsembleStats fields or
// a CNK1 store, core/ooc.h), round-trips every chunk through each codec of
// the sweep in turn and feeds that codec's streaming kernels
// (stats/kernels.h), which land on the one-shot kernels' block grid — so
// neither the source nor the number of codecs swept together can change a
// verdict.

#include <atomic>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "core/bias.h"
#include "core/metrics.h"
#include "core/rmsz.h"
#include "ncio/chunkstore.h"
#include "stats/kernels.h"
#include "util/scheduler.h"

namespace cesm::core {

struct PvtThresholds {
  double pearson_min = kPearsonThreshold;
  double rmsz_diff_max = 0.1;    ///< eq. (8)
  double enmax_ratio_max = 0.1;  ///< eq. (11)
  double bias_confidence = 0.95;
  /// Finite-ensemble allowance for the "falls within the distribution"
  /// check: the acceptance window is widened by this fraction of the
  /// distribution range on each side. With the paper's 101 members the
  /// window is broad and this barely matters; it keeps the check from
  /// penalizing a member that *is* the distribution extreme.
  double rmsz_range_slack = 0.05;
};

/// Per-member outcome of tests 1–3.
struct MemberEvaluation {
  std::size_t member = 0;
  double cr = 1.0;
  ErrorMetrics metrics;              ///< §4.2 errors vs the original member
  double rmsz_original = 0.0;
  double rmsz_reconstructed = 0.0;
  double rmsz_diff = 0.0;
  bool rmsz_in_distribution = false;
  double enmax_ratio = 0.0;          ///< e_nmax / R_{E_nmax}
  bool rho_pass = false;
  bool rmsz_pass = false;
  bool enmax_pass = false;

  /// Tests 1–3 all pass.
  [[nodiscard]] bool passes() const { return rho_pass && rmsz_pass && enmax_pass; }
};

/// Verdict for one (variable, codec) pair — one cell of Table 6.
struct VariableVerdict {
  std::string variable;
  std::string codec;
  std::vector<MemberEvaluation> members;
  BiasResult bias;
  bool bias_evaluated = false;
  double mean_cr = 1.0;   ///< average CR over the evaluated members
  bool rho_pass = false;
  bool rmsz_pass = false;
  bool enmax_pass = false;
  bool bias_pass = false;
  /// The intended (lossy) codec failed outright — decode threw — and the
  /// recorded member metrics, if any, come from `fallback_codec` instead
  /// (§5 hybrid semantics: a variable the lossy method cannot serve is
  /// stored lossless). A codec-error verdict never counts as a pass.
  bool codec_error = false;
  std::string error_message;   ///< what the failing codec threw
  std::string fallback_codec;  ///< lossless stand-in name; empty if none ran

  [[nodiscard]] bool all_pass() const {
    return !codec_error && rho_pass && rmsz_pass && enmax_pass && bias_pass;
  }
};

/// Concurrent buffer "lanes": tasks of a parallel loop execute on the
/// worker threads plus the caller (parallel_for helps). A member task
/// never waits on another task while it holds its buffers, so at most
/// this many member tasks hold them at once; the out-of-core leg's
/// per-task buffers are budgeted for that many.
inline std::size_t buffer_lanes() { return Scheduler::global().thread_count() + 1; }

/// The smallest nonzero chunk_elems a partition accepts.
inline constexpr std::size_t kMinChunkElems = 1024;

/// The element offsets of the chunk partition of `shape` for `chunk_elems`
/// ({0, n} — one chunk — when chunk_elems is 0): about chunk_elems values
/// per chunk, and whole slices of the slowest dimension when rank > 1.
/// Throws InvalidArgument when chunk_elems is below kMinChunkElems but
/// not 0.
std::vector<std::size_t> chunk_partition(const comp::Shape& shape, std::size_t chunk_elems);

/// The shape a codec encodes the chunk [lo, hi) of `shape` under; the
/// range must be a whole number of slowest-dimension slices when rank > 1.
comp::Shape chunk_shape(const comp::Shape& shape, std::size_t lo, std::size_t hi);

/// The stored size of a chunked member of `shape` whose chunks encoded to
/// `chunk_sizes` bytes (in partition order): the payloads plus the chunk
/// index — header, chunk count, each chunk's byte and element count. The
/// index bytes are the ones chunked CRs have always included.
std::size_t chunked_stored_bytes(const comp::Shape& shape,
                                 std::span<const std::size_t> chunk_sizes);

/// Element count of the widest chunk of a partition.
std::size_t max_chunk_elems(std::span<const std::size_t> offsets);

/// Where the verifier reads members from, cut on one chunk partition —
/// the only owner of that partition: the verifier takes each chunk's shape
/// and each member's stored size from here.
///
/// Resident: the EnsembleStats member fields, cut on chunk_partition for
/// chunk_elems without copying; chunk_elems == 0 yields one index-less
/// chunk per member. Store: the members of a CNK1 spill, each chunk read
/// into the walk's one buffer just before it is processed.
class ChunkSource {
 public:
  explicit ChunkSource(const EnsembleStats& stats, std::size_t chunk_elems = 0);
  /// `stats` is the StreamingStats built from the same store; chunk_elems
  /// is the partition the store was staged with.
  ChunkSource(const ncio::ChunkStoreReader& store, const EnsembleView& stats,
              std::size_t chunk_elems);

  [[nodiscard]] const EnsembleView& stats() const { return *stats_; }
  [[nodiscard]] const std::string& variable() const;
  [[nodiscard]] const comp::Shape& shape() const { return shape_; }
  [[nodiscard]] std::span<const std::size_t> offsets() const { return offsets_; }
  [[nodiscard]] std::size_t chunk_count() const { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t chunk_elems() const { return chunk_elems_; }
  [[nodiscard]] std::size_t max_chunk() const { return max_chunk_; }
  [[nodiscard]] std::size_t total_elems() const { return offsets_.back(); }

  /// The shape chunk `c` is encoded under: the member's shape unchunked.
  [[nodiscard]] comp::Shape chunk_shape(std::size_t c) const;

  /// A member's stored size from its chunks' stream sizes: the one
  /// stream's size unchunked, else chunked_stored_bytes.
  [[nodiscard]] std::size_t stored_bytes(std::span<const std::size_t> chunk_sizes) const;

  /// Read-buffer floats one walk needs: one chunk for the store, none for
  /// resident members.
  [[nodiscard]] std::size_t walk_elems() const { return store_ != nullptr ? max_chunk_ : 0; }

  /// Call `process(chunk_index, data)` for every chunk of member `m`, in
  /// order, synchronously: a view of a resident member, or a store chunk
  /// read into `buffer`, which holds walk_elems() floats.
  template <typename Process>
  void walk(std::size_t m, std::span<float> buffer, Process&& process) const {
    for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
      const std::size_t len = offsets_[c + 1] - offsets_[c];
      if (store_ != nullptr) {
        const std::span<float> out = buffer.first(len);
        store_->read_chunk(static_cast<std::uint32_t>(m), c, out);
        process(c, std::span<const float>(out));
      } else {
        process(c, std::span<const float>(resident_->member(m).data).subspan(offsets_[c], len));
      }
    }
  }

 private:
  const EnsembleView* stats_ = nullptr;
  const EnsembleStats* resident_ = nullptr;
  const ncio::ChunkStoreReader* store_ = nullptr;
  comp::Shape shape_;
  std::vector<std::size_t> offsets_;
  std::size_t chunk_elems_ = 0;
  std::size_t max_chunk_ = 0;
};

/// One codec's outcome of a member-major sweep (PvtVerifier::verify_all).
struct SweepResult {
  VariableVerdict verdict;
  /// The cesm::Error the codec's encode or decode threw, which took it out
  /// of the pass; `verdict` is then left empty.
  std::exception_ptr error;
};

/// Where the plan-sharing runs of `codecs` end: maximal runs of adjacent
/// codecs with equal non-empty prep_key(). A codec without a key is a run
/// of its own. Returns one past the last index of each run, in order.
std::vector<std::size_t> plan_run_ends(std::span<const comp::Codec* const> codecs);

class PvtVerifier {
 public:
  /// Verifies straight from the resident members of `stats`, one whole
  /// member per chunk.
  explicit PvtVerifier(const EnsembleStats& stats, PvtThresholds thresholds = {});
  /// Verifies from `source`, round-tripping each of its chunks through the
  /// codecs it is given.
  PvtVerifier(ChunkSource source, PvtThresholds thresholds);

  /// The member-major sweep behind every call below. Walks each member's
  /// chunks once: tests 1–3 on `test_members`, and with `run_bias` the
  /// reconstructed RMSZ of every other member for the bias test. Each chunk
  /// is encoded, decoded and fed to every codec's own accumulators in
  /// turn, so each codec folds exactly what a pass of its own would. A
  /// member's CR is ChunkSource::stored_bytes of its chunk streams. Inside
  /// a plan-sharing run (plan_run_ends) the chunk's prep plan is built once
  /// and reused by the run's siblings; a plan-build fault falls back to the
  /// direct encode. Plans never change a stream byte.
  ///
  /// `known` is empty or holds one span per codec: a non-empty span is
  /// that codec's test-member evaluations, already measured by the caller
  /// (GRIB2's come from tune_decimal_scale), in `test_members` order. Such
  /// a codec is not live on the test members: its verdict members are the
  /// known ones and its bias sweep is seeded from their reconstructed
  /// RMSZ. A member that no live codec needs is not walked.
  ///
  /// One result per codec, in order. A codec whose encode or decode throws
  /// cesm::Error leaves the pass without disturbing its siblings;
  /// InvalidArgument, and any error reading the source, propagate.
  ///
  /// Members run in parallel, each member task with buffers of its own.
  /// The verifier holds no mutable state, so any number of threads may
  /// call it, and the one-codec calls below, at once.
  [[nodiscard]] std::vector<SweepResult> verify_all(
      std::span<const comp::Codec* const> codecs, std::span<const std::size_t> test_members,
      bool run_bias = true,
      std::span<const std::span<const MemberEvaluation>> known = {}) const;

  /// Full verdict for one codec: verify_all of one codec, rethrowing its
  /// error.
  [[nodiscard]] VariableVerdict verify(const comp::Codec& codec,
                                       std::span<const std::size_t> test_members,
                                       bool run_bias = true) const;

  /// Tests 1–3 for one member.
  [[nodiscard]] MemberEvaluation evaluate_member(const comp::Codec& codec,
                                                 std::size_t member) const;

  /// Tests 1–3 on every member of `members` — one GRIB2 tuning rung.
  /// Returns the evaluations of the members that ran, in `members` order.
  /// Members run in parallel; with `early_skip`, once one fails, members
  /// not yet started are skipped (so one worker keeps the serial early
  /// break) and are missing from the result.
  [[nodiscard]] std::vector<MemberEvaluation> members_pass(
      const comp::Codec& codec, std::span<const std::size_t> members,
      bool early_skip = true) const;

  /// Compression ratio of member m's stream (encode only) — the lossless
  /// baselines of the characterization.
  [[nodiscard]] double compression_ratio(const comp::Codec& codec, std::size_t member) const;

  /// Reconstructed-ensemble RMSZ scores (one per member) — Figure 4's
  /// y-axis data and the bias test input.
  [[nodiscard]] std::vector<double> reconstructed_rmsz(const comp::Codec& codec) const;

  /// The paper's "choose three members at random".
  static std::vector<std::size_t> pick_members(std::size_t count, std::size_t member_count,
                                               std::uint64_t seed);

  [[nodiscard]] const EnsembleView& stats() const { return source_.stats(); }
  [[nodiscard]] const ChunkSource& source() const { return source_; }
  [[nodiscard]] const PvtThresholds& thresholds() const { return thresholds_; }

 private:
  /// What a pass measured of one (codec, member).
  struct Measured {
    std::size_t bytes = 0;  ///< the member's stream bytes
    double rmsz = 0.0;      ///< reconstructed RMSZ (eq. 7); decoding passes
    stats::kernels::ErrorAccum err;    ///< evaluated members only
    stats::kernels::CoMomentAccum co;  ///< evaluated members only
  };

  /// The member-major pass: walk members[i] for every i, members in
  /// parallel, round-tripping each chunk through every live codec (encode
  /// only unless `decode`), then call done(k, i, measured) for each codec
  /// k that completed the member. members[0, evaluated) also get the
  /// tests 1–3 accumulators, except for the codecs with known[k] set,
  /// which are not live on them. A member with no live codec is not
  /// walked. A codec that throws cesm::Error records it in errors[k] and
  /// leaves the pass. Members not yet started are skipped once `*skip` is
  /// set. Each member task allocates its own walk buffer, stream sizes and
  /// codec streams, alive only while it runs and never across a join, so
  /// the buffers in flight stay within the per-lane allowance the
  /// out-of-core leg reserves.
  template <typename Done>
  void sweep(std::span<const comp::Codec* const> codecs, std::span<const std::size_t> members,
             std::size_t evaluated, bool decode, std::span<std::exception_ptr> errors,
             const Done& done, const std::atomic<bool>* skip = nullptr,
             std::span<const std::uint8_t> known = {}) const;
  /// Tests 1–3 of `member` from what the pass measured.
  [[nodiscard]] MemberEvaluation evaluation(std::size_t member, const Measured& m) const;

  ChunkSource source_;
  PvtThresholds thresholds_;
};

}  // namespace cesm::core
