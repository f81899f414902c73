#include "core/pvt.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <type_traits>

#include "compress/chunked.h"
#include "compress/deflate/deflate.h"
#include "stats/correlation.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/trace.h"

namespace cesm::core {

namespace {

// Scratch arena slots of a verifier.
constexpr std::size_t kLaneSlot = 0;     // member lanes: recon + walk floats
constexpr std::size_t kSizeSlot = 1;     // member lanes: per-chunk stream sizes
constexpr std::size_t kScoreSlot = 2;    // bias-sweep scores
constexpr std::size_t kSeededSlot = 3;   // bias-sweep: score already known
constexpr std::size_t kPendingSlot = 4;  // bias-sweep: members to round-trip

}  // namespace

std::size_t max_chunk_elems(std::span<const std::size_t> offsets) {
  std::size_t widest = 0;
  for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
    widest = std::max(widest, offsets[c + 1] - offsets[c]);
  }
  return widest;
}

std::vector<std::size_t> chunk_partition(const comp::Shape& shape, std::size_t chunk_elems) {
  if (chunk_elems == 0) return {0, shape.count()};
  return comp::ChunkedCodec(std::make_shared<comp::DeflateCodec>(), chunk_elems)
      .chunk_offsets(shape);
}

ChunkSource::ChunkSource(const EnsembleStats& stats, std::size_t chunk_elems)
    : stats_(&stats),
      resident_(&stats),
      shape_(stats.member(0).shape),
      offsets_(chunk_partition(shape_, chunk_elems)),
      chunk_elems_(chunk_elems),
      max_chunk_(max_chunk_elems(offsets_)) {}

ChunkSource::ChunkSource(const ncio::ChunkStoreReader& store, const EnsembleView& stats,
                         std::size_t chunk_elems)
    : stats_(&stats),
      store_(&store),
      shape_(store.shape()),
      offsets_(store.chunk_offsets()),
      chunk_elems_(chunk_elems),
      max_chunk_(max_chunk_elems(offsets_)) {}

const std::string& ChunkSource::variable() const {
  return store_ != nullptr ? store_->variable() : resident_->member(0).name;
}

PvtVerifier::PvtVerifier(const EnsembleStats& stats, PvtThresholds thresholds)
    : PvtVerifier(ChunkSource(stats), thresholds) {}

PvtVerifier::PvtVerifier(ChunkSource source, PvtThresholds thresholds)
    : source_(std::move(source)), thresholds_(thresholds) {}

/// Run body(lane, i) for every i in [0, count), members in parallel. Each
/// index writes its own result slot, so the scheduling never changes a
/// result. Resident members run in batches of kBiasBatch on arena lanes
/// that stay warm across calls; store members get buffers of their own,
/// alive only while the member runs.
template <typename Body>
void PvtVerifier::for_each_member(std::size_t count, const Body& body) const {
  const std::size_t recon = source_.max_chunk();
  const std::size_t walk = source_.walk_elems();
  const std::size_t chunks = source_.chunk_count();
  if (walk != 0) {
    parallel_for(0, count, [&](std::size_t i) {
      std::vector<float> floats(recon + walk);
      std::vector<std::size_t> sizes(chunks);
      body(Lane{std::span(floats).first(recon), std::span(floats).subspan(recon), sizes}, i);
    });
    return;
  }
  const std::size_t width = std::min(kBiasBatch, count);
  const std::span<float> floats = scratch_.get<float>(kLaneSlot, width * recon);
  const std::span<std::size_t> sizes = scratch_.get<std::size_t>(kSizeSlot, width * chunks);
  for (std::size_t lo = 0; lo < count; lo += width) {
    parallel_for(0, std::min(width, count - lo), [&](std::size_t i) {
      body(Lane{floats.subspan(i * recon, recon), {}, sizes.subspan(i * chunks, chunks)},
           lo + i);
    });
  }
}

/// Encode member `member` chunk by chunk (plan-driven when a store is
/// attached) and, unless `sink` is nullptr, decode each chunk into the
/// lane, z-score it and call sink(original, reconstruction, mask, last). On a
/// chunked source the chunks go through the ChunkedCodec's inner codec and
/// the member's size is the container size encode() would produce; on an
/// unchunked source the codec sees the whole member.
template <typename Sink>
PvtVerifier::Trip PvtVerifier::round_trip(const comp::Codec& codec, std::size_t member,
                                          const Lane& lane, const Sink& sink) const {
  const comp::ChunkedCodec* chunked = nullptr;
  if (source_.chunk_elems() != 0) {
    chunked = dynamic_cast<const comp::ChunkedCodec*>(&codec);
    CESM_REQUIRE(chunked != nullptr);
  }
  const comp::Codec& inner = chunked != nullptr ? *chunked->inner() : codec;
  const EnsembleView& s = stats();
  const std::span<const std::size_t> offsets = source_.offsets();
  const bool masked = !s.mask().empty();
  stats::kernels::ZScoreStream zs(static_cast<double>(s.member_count()),
                                  kDegenerateSpreadRelTol, masked);
  constexpr bool kDecode = !std::is_null_pointer_v<Sink>;
  source_.walk(member, lane.walk, [&](std::size_t c, std::span<const float> x) {
    const comp::Shape shape =
        chunked != nullptr ? chunked->chunk_shape(source_.shape(), offsets[c], offsets[c + 1])
                           : source_.shape();
    const std::uint64_t block =
        static_cast<std::uint64_t>(member) * source_.chunk_count() + c;
    const Bytes stream =
        plans_ != nullptr ? plans_->encode(inner, x, shape, block) : inner.encode(x, shape);
    lane.sizes[c] = stream.size();
    if constexpr (kDecode) {
      const std::span<float> out = lane.recon.first(x.size());
      inner.decode_into(stream, out);
      const std::size_t lo = offsets[c];
      const std::span<const std::uint8_t> mask =
          masked ? s.mask().subspan(lo, x.size()) : std::span<const std::uint8_t>{};
      const bool last = c + 1 == source_.chunk_count();
      zs.feed(out, x, s.sum().subspan(lo, x.size()), s.sum_sq().subspan(lo, x.size()), mask,
              last);
      sink(x, std::span<const float>(out), mask, last);
    }
  });
  Trip trip;
  trip.bytes = chunked != nullptr ? chunked->packed_stream_bytes(source_.shape(), lane.sizes)
                                  : lane.sizes[0];
  if constexpr (kDecode) {
    trace::counter_add("pvt.member_roundtrips", 1);
    trip.rmsz = rmsz_from_accum(zs.finish());
  }
  return trip;
}

MemberEvaluation PvtVerifier::evaluate(const comp::Codec& codec, std::size_t member,
                                       const Lane& lane) const {
  const EnsembleView& s = stats();
  CESM_REQUIRE(member < s.member_count());
  stats::kernels::ErrorNormStream err(!s.mask().empty());
  stats::kernels::CoMomentStream co(!s.mask().empty());
  const Trip trip = round_trip(codec, member, lane,
                               [&](std::span<const float> x, std::span<const float> y,
                                   std::span<const std::uint8_t> mask, bool last) {
                                 err.feed(x, y, mask, last);
                                 co.feed(x, y, mask, last);
                               });
  MemberEvaluation eval;
  eval.member = member;
  eval.cr = comp::compression_ratio(trip.bytes, source_.total_elems());
  // The original member's range and peak come from its precomputed
  // summary — the same moments compare_fields() would rescan.
  const stats::Summary& summary = s.member_summary(member);
  eval.metrics = error_metrics_from(err.finish(), summary.range(),
                                    std::max(std::fabs(summary.min), std::fabs(summary.max)),
                                    stats::pearson_from_accum(co.finish()));
  // The eq. (8)/(11) windows against the precomputed distribution extremes.
  eval.rmsz_original = s.rmsz(member);
  eval.rmsz_reconstructed = trip.rmsz;
  eval.rmsz_diff = std::fabs(eval.rmsz_original - eval.rmsz_reconstructed);
  const auto [lo, hi] = s.rmsz_range();
  const double slack = thresholds_.rmsz_range_slack * (hi - lo);
  eval.rmsz_in_distribution =
      eval.rmsz_reconstructed >= lo - slack && eval.rmsz_reconstructed <= hi + slack;
  const double enmax_range = s.enmax_range();
  eval.enmax_ratio =
      enmax_range > 0.0 ? eval.metrics.e_nmax / enmax_range : eval.metrics.e_nmax;
  eval.rho_pass = eval.metrics.pearson >= thresholds_.pearson_min;
  eval.rmsz_pass =
      eval.rmsz_in_distribution && eval.rmsz_diff <= thresholds_.rmsz_diff_max;
  eval.enmax_pass = eval.enmax_ratio <= thresholds_.enmax_ratio_max;
  return eval;
}

MemberEvaluation PvtVerifier::evaluate_member(const comp::Codec& codec,
                                              std::size_t member) const {
  std::vector<float> recon(source_.max_chunk());
  std::vector<float> walk(source_.walk_elems());
  std::vector<std::size_t> sizes(source_.chunk_count());
  return evaluate(codec, member, Lane{recon, walk, sizes});
}

double PvtVerifier::compression_ratio(const comp::Codec& codec, std::size_t member) const {
  std::vector<float> walk(source_.walk_elems());
  std::vector<std::size_t> sizes(source_.chunk_count());
  const Trip trip = round_trip(codec, member, Lane{{}, walk, sizes}, nullptr);
  return comp::compression_ratio(trip.bytes, source_.total_elems());
}

bool PvtVerifier::members_pass(const comp::Codec& codec,
                               std::span<const std::size_t> members) const {
  std::atomic<bool> failed{false};
  for_each_member(members.size(), [&](const Lane& lane, std::size_t i) {
    if (failed.load()) return;
    const MemberEvaluation eval = evaluate(codec, members[i], lane);
    if (!(eval.rho_pass && eval.rmsz_pass && eval.enmax_pass)) failed.store(true);
  });
  return !failed.load();
}

void PvtVerifier::bias_scores(const comp::Codec& codec, std::span<double> scores,
                              std::span<const MemberEvaluation> known) const {
  trace::Span span("pvt.bias_sweep");
  const std::size_t m_count = stats().member_count();
  CESM_REQUIRE(scores.size() == m_count);

  // Seed the scores the test-member evaluations already computed: the
  // codec is deterministic, so re-compressing member m would reproduce
  // the identical reconstruction and the identical RMSZ.
  const std::span<std::uint8_t> seeded = scratch_.get<std::uint8_t>(kSeededSlot, m_count);
  std::fill(seeded.begin(), seeded.end(), std::uint8_t{0});
  std::uint64_t reused = 0;
  for (const MemberEvaluation& eval : known) {
    if (eval.member < m_count && seeded[eval.member] == 0) {
      scores[eval.member] = eval.rmsz_reconstructed;
      seeded[eval.member] = 1;
      ++reused;
    }
  }
  trace::counter_add("pvt.bias_reused", reused);

  const std::span<std::size_t> pending = scratch_.get<std::size_t>(kPendingSlot, m_count);
  std::size_t pending_count = 0;
  for (std::size_t m = 0; m < m_count; ++m) {
    if (seeded[m] == 0) pending[pending_count++] = m;
  }
  for_each_member(pending_count, [&](const Lane& lane, std::size_t i) {
    scores[pending[i]] =
        round_trip(codec, pending[i], lane, [](auto&&...) {}).rmsz;
  });
}

std::vector<double> PvtVerifier::reconstructed_rmsz(const comp::Codec& codec) const {
  std::vector<double> scores(stats().member_count());
  bias_scores(codec, scores, {});
  return scores;
}

VariableVerdict PvtVerifier::verify(const comp::Codec& codec,
                                    std::span<const std::size_t> test_members,
                                    bool run_bias) const {
  CESM_REQUIRE(!test_members.empty());
  trace::Span span("pvt.verify");
  VariableVerdict verdict;
  verdict.variable = source_.variable();
  verdict.codec = codec.name();

  // Test members evaluate in parallel into per-member slots, then the pass
  // flags and CR mean fold serially in member order — the same results,
  // bit for bit, at any thread count.
  verdict.members.resize(test_members.size());
  for_each_member(test_members.size(), [&](const Lane& lane, std::size_t i) {
    verdict.members[i] = evaluate(codec, test_members[i], lane);
  });
  verdict.rho_pass = verdict.rmsz_pass = verdict.enmax_pass = true;
  double cr_sum = 0.0;
  for (const MemberEvaluation& eval : verdict.members) {
    verdict.rho_pass = verdict.rho_pass && eval.rho_pass;
    verdict.rmsz_pass = verdict.rmsz_pass && eval.rmsz_pass;
    verdict.enmax_pass = verdict.enmax_pass && eval.enmax_pass;
    cr_sum += eval.cr;
  }
  verdict.mean_cr = cr_sum / static_cast<double>(verdict.members.size());

  if (run_bias) {
    const std::span<double> scores = scratch_.get<double>(kScoreSlot, stats().member_count());
    bias_scores(codec, scores, verdict.members);
    verdict.bias =
        bias_test(stats().rmsz_distribution(), scores, thresholds_.bias_confidence);
    verdict.bias_pass = verdict.bias.pass;
    verdict.bias_evaluated = true;
  } else {
    verdict.bias_pass = true;  // not evaluated: do not veto
  }
  return verdict;
}

std::vector<std::size_t> PvtVerifier::pick_members(std::size_t count,
                                                   std::size_t member_count,
                                                   std::uint64_t seed) {
  CESM_REQUIRE(count <= member_count);
  Pcg32 rng(seed);
  std::vector<std::size_t> all(member_count);
  for (std::size_t i = 0; i < member_count; ++i) all[i] = i;
  // Partial Fisher-Yates.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + rng.bounded(static_cast<std::uint32_t>(member_count - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace cesm::core
