#include "core/pvt.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>

#include "stats/correlation.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/trace.h"

namespace cesm::core {

namespace {

// The magic of the chunk index a chunked member's stored size counts.
constexpr std::uint32_t kChunkIndexMagic = 0x324b4843;  // "CHK2"

/// One chunk's prep plan for a run of sibling codecs, or null. A
/// plan-stage fault only costs the plan (the run encodes the chunk
/// directly); an input error propagates, since build_prep validates its
/// input exactly like encode() and the direct path would throw it too.
comp::PrepPlanPtr build_plan(const comp::Codec& codec, std::span<const float> x,
                             const comp::Shape& shape) {
  try {
    CESM_FAILPOINT("comp.prep_plan");
    comp::PrepPlanPtr plan = codec.build_prep(x, shape);
    if (plan != nullptr) trace::add(trace::Counter::kPrepPlanBuilt);
    return plan;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const Error&) {
    trace::add(trace::Counter::kPrepPlanFaults);
    return nullptr;
  }
}

}  // namespace

std::size_t max_chunk_elems(std::span<const std::size_t> offsets) {
  std::size_t widest = 0;
  for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
    widest = std::max(widest, offsets[c + 1] - offsets[c]);
  }
  return widest;
}

std::vector<std::size_t> chunk_partition(const comp::Shape& shape, std::size_t chunk_elems) {
  const std::size_t total = shape.count();
  if (chunk_elems == 0) return {0, total};
  if (chunk_elems < kMinChunkElems) {
    throw InvalidArgument("chunk_elems = " + std::to_string(chunk_elems) +
                          " is below the chunk floor of " + std::to_string(kMinChunkElems) +
                          " (0 verifies whole members)");
  }
  std::vector<std::size_t> offsets = {0};
  if (total == 0) return offsets;
  // Whole slices of the slowest dimension keep the codecs' geometry sane.
  const std::size_t slice = shape.rank() > 1 ? total / shape.dims[0] : total;
  const std::size_t slices_per_chunk = std::max<std::size_t>(1, chunk_elems / slice);
  const std::size_t step =
      shape.rank() > 1 ? slices_per_chunk * slice : std::min(total, chunk_elems);
  for (std::size_t off = step; off < total; off += step) offsets.push_back(off);
  offsets.push_back(total);
  return offsets;
}

comp::Shape chunk_shape(const comp::Shape& shape, std::size_t lo, std::size_t hi) {
  CESM_REQUIRE(lo < hi && hi <= shape.count());
  if (shape.rank() > 1) {
    const std::size_t slice = shape.count() / shape.dims[0];
    CESM_REQUIRE((hi - lo) % slice == 0 && lo % slice == 0);
    comp::Shape cs = shape;
    cs.dims[0] = (hi - lo) / slice;
    return cs;
  }
  return comp::Shape::d1(hi - lo);
}

std::size_t chunked_stored_bytes(const comp::Shape& shape,
                                 std::span<const std::size_t> chunk_sizes) {
  // The index is written, not summed by formula, so its size follows the
  // byte layout by construction: header, chunk count, each chunk's byte
  // and element count.
  Bytes index;
  ByteWriter w(index);
  comp::wire::write_header(w, kChunkIndexMagic, shape);
  w.u32(static_cast<std::uint32_t>(chunk_sizes.size()));
  std::size_t payload = 0;
  for (const std::size_t s : chunk_sizes) {
    w.u64(s);
    payload += s;
  }
  for (std::size_t c = 0; c < chunk_sizes.size(); ++c) w.u64(0);  // element counts
  return index.size() + payload;
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

comp::Shape ChunkSource::chunk_shape(std::size_t c) const {
  return chunk_elems_ != 0 ? core::chunk_shape(shape_, offsets_[c], offsets_[c + 1]) : shape_;
}

std::size_t ChunkSource::stored_bytes(std::span<const std::size_t> chunk_sizes) const {
  return chunk_elems_ != 0 ? chunked_stored_bytes(shape_, chunk_sizes) : chunk_sizes[0];
}

PvtVerifier::PvtVerifier(const EnsembleStats& stats, PvtThresholds thresholds)
    : PvtVerifier(ChunkSource(stats), thresholds) {}

PvtVerifier::PvtVerifier(ChunkSource source, PvtThresholds thresholds)
    : source_(std::move(source)), thresholds_(thresholds) {}

std::vector<std::size_t> plan_run_ends(std::span<const comp::Codec* const> codecs) {
  std::vector<std::size_t> ends;
  std::string run_key;
  for (std::size_t k = 0; k < codecs.size(); ++k) {
    std::string key = codecs[k]->prep_key();
    if (k > 0 && (key.empty() || key != run_key)) ends.push_back(k);
    run_key = std::move(key);
  }
  if (!codecs.empty()) ends.push_back(codecs.size());
  return ends;
}

template <typename Done>
void PvtVerifier::sweep(std::span<const comp::Codec* const> codecs,
                        std::span<const std::size_t> members, std::size_t evaluated,
                        bool decode, std::span<std::exception_ptr> errors, const Done& done,
                        const std::atomic<bool>* skip,
                        std::span<const std::uint8_t> known) const {
  const std::size_t n = codecs.size();
  CESM_REQUIRE(errors.size() == n);
  CESM_REQUIRE(known.empty() || known.size() == n);
  if (n == 0 || members.empty()) return;  // nothing to measure: skip the walk
  // run_begin[k]: the first codec of k's plan-sharing run, or npos for a
  // codec that encodes directly (a run of one has no sibling to share
  // its plan with).
  constexpr std::size_t npos = ~std::size_t{0};
  std::vector<std::size_t> run_begin(n, npos);
  std::size_t begin = 0;
  for (const std::size_t end : plan_run_ends(codecs)) {
    if (end - begin > 1) std::fill(run_begin.begin() + begin, run_begin.begin() + end, begin);
    begin = end;
  }

  const EnsembleView& s = stats();
  const std::span<const std::size_t> offsets = source_.offsets();
  const std::size_t chunks = source_.chunk_count();
  const bool masked = !s.mask().empty();
  std::vector<std::atomic<bool>> dead(n);
  std::mutex error_mu;
  const auto leave = [&](std::size_t k) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!errors[k]) errors[k] = std::current_exception();
    dead[k].store(true);
  };

  // One codec's accumulators for the member in flight.
  struct Slot {
    stats::kernels::ZScoreStream zs;
    stats::kernels::ErrorNormStream err;
    stats::kernels::CoMomentStream co;
  };

  const std::size_t walk = source_.walk_elems();
  // Each index writes its own result slots, so the scheduling never
  // changes a result.
  parallel_for(0, members.size(), [&](std::size_t i) {
    if (skip != nullptr && skip->load()) return;
    const std::size_t member = members[i];
    const bool evaluate = i < evaluated;
    // Codecs still in this member's pass: one that left (here or in a
    // sibling member) skips the member's remaining chunks, and one whose
    // evaluation is known skips the member altogether.
    std::vector<std::uint8_t> live(n);
    bool any_live = false;
    for (std::size_t k = 0; k < n; ++k) {
      live[k] = dead[k].load() || (evaluate && !known.empty() && known[k] != 0) ? 0 : 1;
      any_live = any_live || live[k] != 0;
    }
    if (!any_live) return;
    std::vector<float> buffer(walk);
    std::vector<std::size_t> chunk_sizes(n * chunks);
    std::vector<Slot> slots;
    slots.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      slots.push_back({stats::kernels::ZScoreStream(static_cast<double>(s.member_count()),
                                                    kDegenerateSpreadRelTol, masked),
                       stats::kernels::ErrorNormStream(masked),
                       stats::kernels::CoMomentStream(masked)});
    }

    source_.walk(member, buffer, [&](std::size_t c, std::span<const float> x) {
      const comp::Shape shape = source_.chunk_shape(c);
      const std::size_t lo = offsets[c];
      const std::span<const std::uint8_t> mask =
          masked ? s.mask().subspan(lo, x.size()) : std::span<const std::uint8_t>{};
      const bool last = c + 1 == chunks;
      // The chunk's plan, built by the first live codec of run `plan_run`.
      comp::PrepPlanPtr plan;
      std::size_t plan_run = npos;
      for (std::size_t k = 0; k < n; ++k) {
        if (live[k] == 0) continue;
        if (dead[k].load()) {
          live[k] = 0;
          continue;
        }
        const comp::Codec& codec = *codecs[k];
        const bool shares = run_begin[k] != npos;
        try {
          if (shares && run_begin[k] != plan_run) {
            plan_run = run_begin[k];
            plan = build_plan(codec, x, shape);
          } else if (shares && plan != nullptr) {
            trace::add(trace::Counter::kPrepPlanReused);
          }
          const Bytes stream = shares && plan != nullptr
                                   ? codec.encode_with_prep(*plan, x, shape)
                                   : codec.encode(x, shape);
          chunk_sizes[k * chunks + c] = stream.size();
          if (!decode) continue;
          const std::vector<float> out = codec.decode(stream);
          if (out.size() != x.size()) {
            throw FormatError(codec.name() + ": decoded element count does not match the chunk");
          }
          Slot& slot = slots[k];
          slot.zs.feed(out, x, s.sum().subspan(lo, x.size()),
                       s.sum_sq().subspan(lo, x.size()), mask, last);
          if (evaluate) {
            slot.err.feed(x, out, mask, last);
            slot.co.feed(x, out, mask, last);
          }
        } catch (const InvalidArgument&) {
          throw;  // caller bug, not a codec failure
        } catch (const Error&) {
          live[k] = 0;
          leave(k);
        }
      }
    });

    for (std::size_t k = 0; k < n; ++k) {
      if (live[k] == 0) continue;
      Measured m;
      m.bytes = source_.stored_bytes(std::span(chunk_sizes).subspan(k * chunks, chunks));
      trace::add(decode ? trace::Counter::kPvtMemberRoundtrips
                        : trace::Counter::kPvtMemberEncodes);
      if (decode) {
        m.rmsz = rmsz_from_accum(slots[k].zs.finish());
        if (evaluate) {
          m.err = slots[k].err.finish();
          m.co = slots[k].co.finish();
        }
      }
      done(k, i, m);
    }
  });
}

MemberEvaluation PvtVerifier::evaluation(std::size_t member, const Measured& m) const {
  const EnsembleView& s = stats();
  MemberEvaluation eval;
  eval.member = member;
  eval.cr = comp::compression_ratio(m.bytes, source_.total_elems());
  // The original member's range and peak come from its precomputed
  // summary — the same moments compare_fields() would rescan.
  const stats::Summary& summary = s.member_summary(member);
  eval.metrics = error_metrics_from(m.err, summary.range(),
                                    std::max(std::fabs(summary.min), std::fabs(summary.max)),
                                    stats::pearson_from_accum(m.co));
  // The eq. (8)/(11) windows against the precomputed distribution extremes.
  eval.rmsz_original = s.rmsz(member);
  eval.rmsz_reconstructed = m.rmsz;
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

namespace {

void rethrow_if(const std::exception_ptr& error) {
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::vector<SweepResult> PvtVerifier::verify_all(
    std::span<const comp::Codec* const> codecs, std::span<const std::size_t> test_members,
    bool run_bias, std::span<const std::span<const MemberEvaluation>> known) const {
  CESM_REQUIRE(!test_members.empty());
  trace::Span span("pvt.verify");
  const std::size_t n = codecs.size();
  const std::size_t m_count = stats().member_count();
  const std::size_t tests = test_members.size();
  for (const std::size_t m : test_members) CESM_REQUIRE(m < m_count);
  CESM_REQUIRE(known.empty() || known.size() == n);

  // Codecs whose test-member evaluations the caller already measured are
  // not live on the test members; when every codec's are known, the walk
  // skips the test members.
  std::vector<std::uint8_t> is_known(n);
  std::size_t known_count = 0;
  for (std::size_t k = 0; k < known.size(); ++k) {
    if (known[k].empty()) continue;
    CESM_REQUIRE(known[k].size() == tests);
    for (std::size_t i = 0; i < tests; ++i) CESM_REQUIRE(known[k][i].member == test_members[i]);
    is_known[k] = 1;
    ++known_count;
  }
  const std::size_t evaluated = known_count == n ? 0 : tests;

  // The pass walks the test members, then — for the bias sweep — every
  // member no test member already covers: the codecs are deterministic,
  // so a test member's reconstructed RMSZ is its bias score, bit for bit.
  std::vector<std::uint8_t> seeded(m_count);
  std::uint64_t reused = 0;
  for (const std::size_t m : test_members) {
    reused += seeded[m] == 0 ? 1 : 0;
    seeded[m] = 1;
  }
  const std::span<const std::size_t> evaluated_members = test_members.first(evaluated);
  std::vector<std::size_t> members(evaluated_members.begin(), evaluated_members.end());
  for (std::size_t m = 0; run_bias && m < m_count; ++m) {
    if (seeded[m] == 0) members.push_back(m);
  }
  std::vector<double> scores(run_bias ? n * m_count : 0);

  std::vector<SweepResult> results(n);
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (is_known[k] == 0) {
      results[k].verdict.members.resize(tests);
    } else {
      results[k].verdict.members.assign(known[k].begin(), known[k].end());
    }
  }
  sweep(
      codecs, members, evaluated, /*decode=*/true, errors,
      [&](std::size_t k, std::size_t i, const Measured& m) {
        if (i < evaluated) {
          results[k].verdict.members[i] = evaluation(members[i], m);
        } else {
          scores[k * m_count + members[i]] = m.rmsz;
        }
      },
      nullptr, is_known);

  // Per codec, the pass flags and CR mean fold serially in member order —
  // the same results, bit for bit, at any thread count.
  for (std::size_t k = 0; k < n; ++k) {
    SweepResult& r = results[k];
    VariableVerdict& verdict = r.verdict;
    if (errors[k]) {
      r.error = errors[k];
      verdict.members.clear();
      continue;
    }
    verdict.variable = source_.variable();
    verdict.codec = codecs[k]->name();
    verdict.rho_pass = verdict.rmsz_pass = verdict.enmax_pass = true;
    double cr_sum = 0.0;
    for (const MemberEvaluation& eval : verdict.members) {
      verdict.rho_pass = verdict.rho_pass && eval.rho_pass;
      verdict.rmsz_pass = verdict.rmsz_pass && eval.rmsz_pass;
      verdict.enmax_pass = verdict.enmax_pass && eval.enmax_pass;
      cr_sum += eval.cr;
      if (run_bias) scores[k * m_count + eval.member] = eval.rmsz_reconstructed;
    }
    verdict.mean_cr = cr_sum / static_cast<double>(tests);
    if (run_bias) {
      trace::add(trace::Counter::kPvtBiasReused, reused);
      verdict.bias = bias_test(stats().rmsz_distribution(),
                               std::span(scores).subspan(k * m_count, m_count),
                               thresholds_.bias_confidence);
      verdict.bias_pass = verdict.bias.pass;
      verdict.bias_evaluated = true;
    } else {
      verdict.bias_pass = true;  // not evaluated: do not veto
    }
  }
  return results;
}

VariableVerdict PvtVerifier::verify(const comp::Codec& codec,
                                    std::span<const std::size_t> test_members,
                                    bool run_bias) const {
  const comp::Codec* const one[] = {&codec};
  std::vector<SweepResult> results = verify_all(one, test_members, run_bias);
  rethrow_if(results[0].error);
  return std::move(results[0].verdict);
}

MemberEvaluation PvtVerifier::evaluate_member(const comp::Codec& codec,
                                              std::size_t member) const {
  CESM_REQUIRE(member < stats().member_count());
  const comp::Codec* const one[] = {&codec};
  const std::size_t members[] = {member};
  std::exception_ptr error[1];
  MemberEvaluation eval;
  sweep(one, members, 1, /*decode=*/true, error,
        [&](std::size_t, std::size_t, const Measured& m) { eval = evaluation(member, m); });
  rethrow_if(error[0]);
  return eval;
}

double PvtVerifier::compression_ratio(const comp::Codec& codec, std::size_t member) const {
  const comp::Codec* const one[] = {&codec};
  const std::size_t members[] = {member};
  std::exception_ptr error[1];
  std::size_t bytes = 0;
  sweep(one, members, 0, /*decode=*/false, error,
        [&](std::size_t, std::size_t, const Measured& m) { bytes = m.bytes; });
  rethrow_if(error[0]);
  return comp::compression_ratio(bytes, source_.total_elems());
}

std::vector<MemberEvaluation> PvtVerifier::members_pass(
    const comp::Codec& codec, std::span<const std::size_t> members, bool early_skip) const {
  for (const std::size_t m : members) CESM_REQUIRE(m < stats().member_count());
  const comp::Codec* const one[] = {&codec};
  std::exception_ptr error[1];
  std::vector<std::optional<MemberEvaluation>> evals(members.size());
  std::atomic<bool> failed{false};
  sweep(
      one, members, members.size(), /*decode=*/true, error,
      [&](std::size_t, std::size_t i, const Measured& m) {
        evals[i] = evaluation(members[i], m);
        if (!evals[i]->passes()) failed.store(true);
      },
      early_skip ? &failed : nullptr);
  rethrow_if(error[0]);
  std::vector<MemberEvaluation> ran;
  ran.reserve(members.size());
  for (std::optional<MemberEvaluation>& eval : evals) {
    if (eval) ran.push_back(std::move(*eval));
  }
  return ran;
}

std::vector<double> PvtVerifier::reconstructed_rmsz(const comp::Codec& codec) const {
  const comp::Codec* const one[] = {&codec};
  std::vector<std::size_t> members(stats().member_count());
  for (std::size_t m = 0; m < members.size(); ++m) members[m] = m;
  std::exception_ptr error[1];
  std::vector<double> scores(members.size());
  sweep(one, members, 0, /*decode=*/true, error,
        [&](std::size_t, std::size_t i, const Measured& m) { scores[i] = m.rmsz; });
  rethrow_if(error[0]);
  return scores;
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
