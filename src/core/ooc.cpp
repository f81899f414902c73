#include "core/ooc.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "compress/variants.h"
#include "core/ensemble_cache.h"
#include "stats/kernels.h"
#include "util/cache.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {

namespace {

/// The chunk partition of one variable's spill: the chunk_partition every
/// downstream phase (stats, round-trips, chunked_stored_bytes) reuses.
struct SpillLayout {
  comp::Shape shape;
  std::vector<std::size_t> offsets;
  std::size_t max_chunk = 0;
};

SpillLayout spill_layout(const climate::EnsembleGenerator& ensemble,
                         const climate::VariableSpec& spec, std::size_t chunk_elems) {
  SpillLayout layout;
  const std::size_t ncol = ensemble.grid().columns();
  const std::size_t nlev = spec.is_3d ? ensemble.grid().levels() : 1;
  layout.shape = spec.is_3d ? comp::Shape::d2(nlev, ncol) : comp::Shape::d1(ncol);
  layout.offsets = chunk_partition(layout.shape, chunk_elems);
  layout.max_chunk = max_chunk_elems(layout.offsets);
  return layout;
}

/// Deletes a reused spill file when the scope unwinds with an exception:
/// bytes that failed a run are never trusted by the next one. (POSIX
/// semantics keep the already-open reader fd valid after the unlink.)
struct ReusedSpillInvalidator {
  const std::string& path;
  bool reused;
  int base = std::uncaught_exceptions();
  ~ReusedSpillInvalidator() {
    if (reused && std::uncaught_exceptions() > base) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      trace::add(trace::Counter::kOocSpillInvalidated);
    }
  }
};

}  // namespace

void stage_variable_at(const climate::EnsembleGenerator& ensemble,
                       const climate::VariableSpec& spec, const std::string& path,
                       std::size_t chunk_elems) {
  trace::Span span("ooc.stage");
  const SpillLayout layout = spill_layout(ensemble, spec, chunk_elems);
  const std::vector<std::size_t>& offsets = layout.offsets;
  const std::optional<float> fill =
      spec.has_fill ? std::optional<float>(climate::kFillValue) : std::nullopt;
  const std::size_t members = ensemble.members();

  ncio::ChunkStoreWriter writer(path, spec.name, layout.shape, fill,
                                static_cast<std::uint32_t>(members), offsets);

  {
    // The synthesis span is the reuse acceptance signal: a warm run that
    // reuses every spill emits zero "ensemble.synthesize" spans.
    trace::Span synth("ensemble.synthesize");
    // Warm the memoized synthesizer before fanning out (same trick as
    // ensemble_fields): the first access builds its basis factor tables.
    (void)ensemble.field_elems(spec);
    parallel_for(0, members, [&](std::size_t m) {
      std::vector<float> buf(layout.max_chunk);
      for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
        const std::size_t len = offsets[c + 1] - offsets[c];
        const std::span<float> out(buf.data(), len);
        ensemble.field_range(spec, static_cast<std::uint32_t>(m), offsets[c],
                             offsets[c + 1], out);
        writer.write_chunk(static_cast<std::uint32_t>(m), c, out);
      }
    });
  }
  writer.finish();
  trace::add(trace::Counter::kOocVariablesStaged);
}

std::uint64_t spill_key(const climate::EnsembleSpec& spec,
                        const climate::VariableSpec& var, std::size_t chunk_elems) {
  // Version of the *spill* keying itself; bump when the staged bytes for
  // an identical (spec, var, partition) would change.
  constexpr std::uint64_t kSpillSchemaVersion = 1;
  // CNK1 format revisions invalidate old spills through the key too, so a
  // reader never even opens a file written by an incompatible writer.
  constexpr std::uint64_t kSpillFormatVersion = 2;
  return util::KeyHasher()
      .u64(kSpillSchemaVersion)
      .u64(kSpillFormatVersion)
      .u64(EnsembleCache::key(spec, var))
      .u64(chunk_elems)
      .digest();
}

std::string spill_path(const std::string& dir, const std::string& variable,
                       std::uint64_t key) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(key));
  return (std::filesystem::path(dir) / (variable + "-" + hex + ".cnk1")).string();
}

SpillSession::SpillSession(const std::string& base_dir) {
  static std::atomic<std::uint64_t> seq{0};
  static const std::uint64_t salt = [] {
    std::random_device rd;
    return (std::uint64_t{rd()} << 32) ^ std::uint64_t{rd()};
  }();
  // pid + a once-per-process random salt: unique across concurrent
  // processes sharing spill_dir, and across pid reuse after a crash.
  char token[17];
  std::snprintf(token, sizeof token, "%016llx",
                static_cast<unsigned long long>(hash_combine(
                    salt, seq.fetch_add(1, std::memory_order_relaxed) + 1)));
  dir_ = (std::filesystem::path(base_dir) /
          ("cesm-spill-" + std::to_string(static_cast<long>(::getpid())) + "-" + token))
             .string();
  std::filesystem::create_directories(dir_);
}

SpillSession::~SpillSession() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // best effort, incl. unwind paths
}

std::uint64_t ooc_working_set_bytes(const climate::EnsembleGenerator& ensemble,
                                    const climate::VariableSpec& spec,
                                    std::size_t chunk_elems) {
  const SpillLayout layout = spill_layout(ensemble, spec, chunk_elems);
  const std::uint64_t n = layout.shape.count();
  // The peak of one streaming run, as one sum. Per point: the stats
  // build's sum and sum_sq (2 x 8 B, kept for verification), its extremes
  // with runners-up and their arg planes (6 x 4 B, freed when the build
  // returns) and the mask byte. Per member: the summary, RMSZ and E_nmax
  // slots. Per lane (buffer_lanes: no member task waits on another while
  // it holds buffers), the verify phase's member task, the widest of any
  // phase (staging holds one chunk per lane, each build pass one chunk
  // and at most two kernel streams).
  const std::uint64_t point_stats = n * (40 + (spec.has_fill ? 1 : 0));
  const std::uint64_t member_stats =
      static_cast<std::uint64_t>(ensemble.members()) *
      (sizeof(stats::Summary) + 2 * sizeof(double));
  const std::uint64_t chunk_bytes = layout.max_chunk * sizeof(float);
  const std::uint64_t read_buffer = chunk_bytes;  // ChunkSource::walk_elems()
  const std::uint64_t decoded_chunk = chunk_bytes;
  // Each swept codec's ZScoreStream (two floats, two doubles and a mask
  // byte per element), ErrorNormStream and CoMomentStream (two floats and
  // a mask byte each) stage one kernel block apiece.
  constexpr std::uint64_t kStagedBytesPerElem = (2 * 4 + 2 * 8 + 1) + 2 * (2 * 4 + 1);
  const std::uint64_t stream_staging = comp::paper_variant_names().size() *
                                       kStagedBytesPerElem * stats::kernels::kBlock;
  // A codec's own encode and decode scratch and its stream. The widest is
  // GRIB2: its round trip peaks at 0.79 MiB of live heap on a
  // 48,672-value (0.19 MiB) chunk, 4.3 chunk-floats, measured with a
  // counting operator new; this allowance plus the decoded chunk cover it.
  constexpr std::uint64_t kRoundTripChunks = 4;
  const std::uint64_t round_trip = kRoundTripChunks * chunk_bytes;
  const std::uint64_t lane_buffers = static_cast<std::uint64_t>(buffer_lanes()) *
                                     (read_buffer + decoded_chunk + stream_staging + round_trip);
  return point_stats + member_stats + lane_buffers;
}

VariableResult run_variable_streaming(const climate::EnsembleGenerator& ensemble,
                                      const climate::VariableSpec& spec,
                                      const OocConfig& config,
                                      util::MemoryBudget* shared) {
  trace::Span span("ooc.variable");
  begin_variable(spec, config.suite);

  // Admission: the variable's whole working set is one all-or-nothing
  // reservation, taken before anything is staged. On a shared suite
  // budget it parks under contention; on its own budget a working set
  // above the cap throws here. Nothing inside the variable reserves more.
  std::optional<util::MemoryBudget> own_budget;
  util::MemoryBudget& budget =
      shared != nullptr ? *shared : own_budget.emplace(config.memory_budget_bytes);
  const util::MemoryReservation admission(
      budget, "ooc.variable_working_set",
      ooc_working_set_bytes(ensemble, spec, config.chunk_elems));

  // Phase 1: synthesis -> CNK1 spill store, or content-addressed reuse of
  // a previous run's spill. A reuse candidate is only trusted after its
  // header and checksum table validate; anything less is deleted, counted
  // and restaged.
  std::string path;
  std::optional<SpillSession> session;
  if (config.reuse_spill) {
    std::filesystem::create_directories(config.spill_dir);
    path = spill_path(config.spill_dir, spec.name,
                      spill_key(ensemble.spec(), spec, config.chunk_elems));
  } else {
    session.emplace(config.spill_dir);
    path = (std::filesystem::path(session->dir()) / (spec.name + ".cnk1")).string();
  }
  std::optional<ncio::ChunkStoreReader> store_slot;
  bool reused = false;
  if (config.reuse_spill) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      try {
        store_slot.emplace(path);
        // The key should make a layout mismatch impossible; check anyway
        // so a hash collision or hand-placed file cannot poison the run.
        if (store_slot->variable() != spec.name ||
            store_slot->member_count() != ensemble.members()) {
          throw FormatError("chunkstore: spill does not match its key");
        }
        reused = true;
        trace::add(trace::Counter::kOocSpillReused);
      } catch (const Error&) {
        store_slot.reset();
        std::filesystem::remove(path, ec);
        trace::add(trace::Counter::kOocSpillCorrupt);
      }
    }
  }
  if (!store_slot.has_value()) {
    stage_variable_at(ensemble, spec, path, config.chunk_elems);
    store_slot.emplace(path);
  }
  const ncio::ChunkStoreReader& store = *store_slot;

  // From here on, a failure while running over a *reused* spill must
  // invalidate it: delete the file and count it, so the error propagates
  // to the guarded retry, which restages from fresh synthesis instead of
  // re-trusting the bytes.
  const ReusedSpillInvalidator invalidator{path, reused};

  // Phase 2: the ensemble view in two read passes.
  const StreamingStats stats(store);

  // Phase 3: tuning + verdicts through the one verifier, walking the
  // store chunk by chunk; a member task's buffers live while it runs.
  VariableResult result =
      verify_variable(spec, ChunkSource(store, stats, config.chunk_elems), config.suite);

  // Keep the reusable store within its byte budget: oldest spills go
  // first, the one this run just used is protected. Eviction of a file
  // another in-flight variable holds open is harmless (its fd survives
  // the unlink); that variable's next run simply restages.
  if (config.reuse_spill && config.spill_budget_bytes > 0) {
    const std::string protect[] = {path};
    const util::EvictionResult evicted = util::evict_directory_to_budget(
        config.spill_dir, ".cnk1", config.spill_budget_bytes, protect);
    if (evicted.files_removed > 0) {
      trace::add(trace::Counter::kOocSpillEvicted, evicted.files_removed);
    }
  }
  return result;
}

SuiteResults run_suite_streaming(const climate::EnsembleGenerator& ensemble,
                                 const OocConfig& config,
                                 std::vector<std::string> variables) {
  trace::Span span("ooc.run");
  SuiteResults results;

  const std::vector<const climate::VariableSpec*> specs =
      resolve_suite_specs(ensemble, variables);

  // One shared admission budget for every in-flight variable: the
  // bounded-memory promise is now "the *sum* of concurrent working sets
  // stays under the cap", enforced by all-or-nothing reservations.
  util::MemoryBudget own_budget(config.memory_budget_bytes);
  util::MemoryBudget& shared =
      config.shared_budget != nullptr ? *config.shared_budget : own_budget;

  std::size_t jobs = config.parallel_variables == 0
                         ? Scheduler::global().thread_count()
                         : config.parallel_variables;
  jobs = std::max<std::size_t>(1, std::min(jobs, specs.size()));

  // Fixed result slots keep the output byte-identical at any job count;
  // the atomic cursor only decides who computes what, never where it
  // lands or what it contains.
  results.variables.resize(specs.size());
  const auto run_one = [&](std::size_t i) {
    results.variables[i] = run_guarded(*specs[i], config.suite, [&] {
      return run_variable_streaming(ensemble, *specs[i], config, &shared);
    });
  };
  if (jobs == 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) run_one(i);
  } else {
    // Variable jobs live on dedicated admission threads, NOT on scheduler
    // workers: a parked reservation must never occupy a worker the
    // admitted variables need to make progress (that would deadlock the
    // backpressure). The inner parallel_for work still
    // lands on the global work-stealing scheduler — external threads
    // help-execute their own joins, so admission threads add concurrency
    // without oversubscribing the worker pool.
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::vector<std::thread> admission;
    admission.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      admission.emplace_back([&] {
        for (;;) {
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= specs.size()) return;
          try {
            run_one(i);
          } catch (...) {
            {
              std::lock_guard<std::mutex> lock(error_mu);
              if (!first_error) first_error = std::current_exception();
            }
            // Stop dispatching new variables; in-flight ones finish.
            cursor.store(specs.size(), std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& t : admission) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }
  trace::add(trace::Counter::kSuiteVariablesFailedTotal, results.failed_variable_count());
  derive_variant_names(results);
  return results;
}

}  // namespace cesm::core
