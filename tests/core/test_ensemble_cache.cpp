// The memoization layer's determinism contract: a suite run with a warm
// cache (memory or disk tier), a cold cache, or the cache disabled must
// produce bit-identical results — at any thread count — and the warm run
// must actually skip the ensemble synthesis / stats build (hit counters
// prove it, not wall clock).

#include "core/ensemble_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "climate/ensemble.h"
#include "core/export.h"
#include "core/suite.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {
namespace {

climate::EnsembleSpec tiny_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{12, 18, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  return spec;
}

SuiteConfig fast_config() {
  SuiteConfig cfg;
  cfg.test_member_count = 2;
  cfg.grib_max_extra_digits = 3;
  return cfg;
}

std::string suite_csv(const climate::EnsembleGenerator& ens) {
  return suite_results_csv(run_suite(ens, fast_config(), {"U", "FSDSC"}));
}

util::CacheConfig memory_only() {
  util::CacheConfig cfg;
  cfg.enabled = true;
  return cfg;
}

util::CacheConfig disabled() {
  util::CacheConfig cfg;
  cfg.enabled = false;
  return cfg;
}

/// Every test leaves the global cache in its default (env-derived) state
/// so sibling tests — which also run through EnsembleCache::global() —
/// see consistent behaviour regardless of execution order.
class EnsembleCacheTest : public ::testing::Test {
 protected:
  // Per-test scratch dir: sibling cases may run as parallel ctest
  // processes and must not clobber each other's disk tier.
  EnsembleCacheTest()
      : dir_(std::filesystem::path(::testing::TempDir()) /
             (std::string("cesm_ens_cache_test_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    std::filesystem::remove_all(dir_);
  }
  ~EnsembleCacheTest() override {
    EnsembleCache::global().configure(util::CacheConfig::from_env());
    std::filesystem::remove_all(dir_);
    trace::set_enabled(false);
  }

  util::CacheConfig with_disk() {
    util::CacheConfig cfg = memory_only();
    cfg.disk_dir = dir_.string();
    return cfg;
  }

  std::filesystem::path dir_;
};

TEST_F(EnsembleCacheTest, KeyIsStableAndDiscriminating) {
  const climate::EnsembleSpec spec = tiny_spec();
  const climate::EnsembleGenerator ens(spec);
  const climate::VariableSpec& u = ens.variable("U");
  const climate::VariableSpec& fsdsc = ens.variable("FSDSC");

  EXPECT_EQ(EnsembleCache::key(spec, u), EnsembleCache::key(spec, u));
  EXPECT_NE(EnsembleCache::key(spec, u), EnsembleCache::key(spec, fsdsc));

  climate::EnsembleSpec more_members = spec;
  more_members.members = 11;
  EXPECT_NE(EnsembleCache::key(spec, u), EnsembleCache::key(more_members, u));

  climate::EnsembleSpec other_seed = spec;
  other_seed.latent.seed ^= 1;
  EXPECT_NE(EnsembleCache::key(spec, u), EnsembleCache::key(other_seed, u));

  climate::EnsembleSpec other_grid = spec;
  other_grid.grid.nlon += 1;
  EXPECT_NE(EnsembleCache::key(spec, u), EnsembleCache::key(other_grid, u));
}

TEST_F(EnsembleCacheTest, MemoryTierServesRepeatedRequests) {
  const climate::EnsembleGenerator ens(tiny_spec());
  EnsembleCache cache(memory_only());
  const auto a = cache.stats(ens, ens.variable("U"));
  const auto b = cache.stats(ens, ens.variable("U"));
  EXPECT_EQ(a.get(), b.get()) << "second request must be served from the cache";
  EXPECT_EQ(cache.memory_stats().hits, 1u);
  EXPECT_EQ(cache.memory_stats().misses, 1u);
}

TEST_F(EnsembleCacheTest, DisabledCacheBuildsFreshEveryTime) {
  const climate::EnsembleGenerator ens(tiny_spec());
  EnsembleCache cache(disabled());
  const auto a = cache.stats(ens, ens.variable("U"));
  const auto b = cache.stats(ens, ens.variable("U"));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.memory_stats().hits, 0u);
  // Identical products nonetheless: builds are deterministic.
  EXPECT_EQ(a->rmsz_distribution(), b->rmsz_distribution());
}

TEST_F(EnsembleCacheTest, SnapshotRoundTripsExactBits) {
  const climate::EnsembleGenerator ens(tiny_spec());
  EnsembleCache cache(disabled());
  const auto built = cache.stats(ens, ens.variable("CCN3"));

  Bytes payload;
  ByteWriter w(payload);
  built->serialize(w);
  ByteReader r(payload);
  const EnsembleStats restored = EnsembleStats::deserialize(r);
  EXPECT_TRUE(r.exhausted());

  ASSERT_EQ(restored.member_count(), built->member_count());
  EXPECT_EQ(restored.point_count(), built->point_count());
  EXPECT_EQ(restored.rmsz_distribution(), built->rmsz_distribution());
  EXPECT_EQ(restored.enmax_distribution(), built->enmax_distribution());
  EXPECT_EQ(restored.global_means(), built->global_means());
  EXPECT_EQ(restored.rmsz_range(), built->rmsz_range());
  EXPECT_EQ(restored.enmax_range(), built->enmax_range());
  for (std::size_t m = 0; m < built->member_count(); ++m) {
    EXPECT_EQ(restored.member(m).data, built->member(m).data) << "member " << m;
    EXPECT_EQ(restored.member(m).name, built->member(m).name);
    EXPECT_EQ(restored.member(m).fill, built->member(m).fill);
    EXPECT_EQ(restored.member_range(m), built->member_range(m));
  }
  // Derived leave-one-out scoring agrees bit for bit.
  EXPECT_EQ(restored.rmsz_of(0, built->member(0).data),
            built->rmsz_of(0, built->member(0).data));
}

TEST_F(EnsembleCacheTest, SnapshotHoldsNoBuildScratch) {
  // A snapshot keeps the members and what verification reads of the
  // build: sum and sum_sq (16 B/point), the mask and the per-member
  // arrays. The extreme planes only the build's second pass reads
  // (24 B/point) are freed with the build.
  const climate::EnsembleGenerator ens(tiny_spec());
  EnsembleCache cache(disabled());
  for (const char* name : {"U", "SST"}) {
    SCOPED_TRACE(name);
    const auto built = cache.stats(ens, ens.variable(name));
    const std::size_t n = built->member(0).size();
    const std::size_t members = built->member_count();
    EXPECT_EQ(built->mask().empty(), std::string(name) == "U");
    EXPECT_EQ(built->memory_bytes(),
              members * n * sizeof(float) + 16 * n + built->mask().size() +
                  members * (sizeof(stats::Summary) + 2 * sizeof(double)));
  }
}

TEST_F(EnsembleCacheTest, TruncatedSnapshotThrowsFormatError) {
  const climate::EnsembleGenerator ens(tiny_spec());
  EnsembleCache cache(disabled());
  const auto built = cache.stats(ens, ens.variable("U"));
  Bytes payload;
  ByteWriter w(payload);
  built->serialize(w);
  payload.resize(payload.size() / 2);
  ByteReader r(payload);
  EXPECT_THROW((void)EnsembleStats::deserialize(r), FormatError);
}

TEST_F(EnsembleCacheTest, DiskTierSurvivesMemoryReset) {
  const climate::EnsembleGenerator ens(tiny_spec());
  EnsembleCache cache(with_disk());
  trace::set_enabled(true);
  trace::reset();
  const auto built = cache.stats(ens, ens.variable("U"));
  // Simulates a new process sharing CESM_CACHE_DIR: memory tier gone,
  // disk files still there.
  cache.configure(with_disk());
  const auto restored = cache.stats(ens, ens.variable("U"));
  const auto counters = trace::counters();
  trace::set_enabled(false);

  EXPECT_GE(counters.at("cache.disk_write"), 1u);
  EXPECT_GE(counters.at("cache.disk_hit"), 1u);
  EXPECT_NE(built.get(), restored.get());
  EXPECT_EQ(built->rmsz_distribution(), restored->rmsz_distribution());
  EXPECT_EQ(built->enmax_distribution(), restored->enmax_distribution());
  for (std::size_t m = 0; m < built->member_count(); ++m) {
    EXPECT_EQ(built->member(m).data, restored->member(m).data);
  }
}

TEST_F(EnsembleCacheTest, CorruptDiskEntryIsRegeneratedNeverTrusted) {
  const climate::EnsembleGenerator ens(tiny_spec());
  EnsembleCache cache(with_disk());
  const auto built = cache.stats(ens, ens.variable("U"));
  const std::uint64_t key = EnsembleCache::key(ens.spec(), ens.variable("U"));

  // Flip one payload byte of the on-disk entry.
  const util::DiskCache disk(dir_.string(), "stats");
  const std::filesystem::path path = disk.entry_path(key);
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    const char x = 0x7f;
    f.write(&x, 1);
  }

  cache.configure(with_disk());  // drop the memory tier, forcing a disk read
  trace::set_enabled(true);
  trace::reset();
  const auto regenerated = cache.stats(ens, ens.variable("U"));
  const auto counters = trace::counters();
  trace::set_enabled(false);

  EXPECT_GE(counters.at("cache.disk_corrupt"), 1u);
  EXPECT_EQ(built->rmsz_distribution(), regenerated->rmsz_distribution());
  for (std::size_t m = 0; m < built->member_count(); ++m) {
    EXPECT_EQ(built->member(m).data, regenerated->member(m).data);
  }
  // The rebuilt entry was re-persisted and is valid again.
  cache.configure(with_disk());
  trace::set_enabled(true);
  trace::reset();
  (void)cache.stats(ens, ens.variable("U"));
  const auto counters2 = trace::counters();
  trace::set_enabled(false);
  EXPECT_GE(counters2.at("cache.disk_hit"), 1u);
}

// The tentpole acceptance test: cold / warm / disabled suite runs are
// bit-identical at 1 and 4 threads, and the warm run performs no
// synthesis or stats build at all.
TEST_F(EnsembleCacheTest, SuiteParityColdWarmDisabledAcrossThreadCounts) {
  const climate::EnsembleGenerator ens(tiny_spec());

  EnsembleCache::global().configure(disabled());
  const std::string baseline = suite_csv(ens);
  EXPECT_FALSE(baseline.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScopedScheduler scoped(threads);

    EnsembleCache::global().configure(disabled());
    EXPECT_EQ(suite_csv(ens), baseline) << "disabled, threads=" << threads;

    EnsembleCache::global().configure(memory_only());
    EXPECT_EQ(suite_csv(ens), baseline) << "cold cache, threads=" << threads;

    // Warm run: identical bits, zero synthesis/stats work.
    trace::set_enabled(true);
    trace::reset();
    const std::string warm = suite_csv(ens);
    const auto counters = trace::counters();
    const auto spans = trace::aggregate_by_label();
    trace::set_enabled(false);

    EXPECT_EQ(warm, baseline) << "warm cache, threads=" << threads;
    EXPECT_GE(counters.at("cache.hit"), 2u) << "threads=" << threads;
    EXPECT_EQ(spans.count("ensemble.synthesize"), 0u)
        << "warm run re-synthesized the ensemble (threads=" << threads << ")";
    EXPECT_EQ(spans.count("stats.build"), 0u)
        << "warm run rebuilt EnsembleStats (threads=" << threads << ")";
  }
}

TEST_F(EnsembleCacheTest, SuiteParityAcrossDiskTierReload) {
  const climate::EnsembleGenerator ens(tiny_spec());

  EnsembleCache::global().configure(disabled());
  const std::string baseline = suite_csv(ens);

  EnsembleCache::global().configure(with_disk());
  EXPECT_EQ(suite_csv(ens), baseline) << "cold disk-backed run";

  // "Second process": fresh memory tier, entries come back from disk.
  EnsembleCache::global().configure(with_disk());
  trace::set_enabled(true);
  trace::reset();
  const std::string from_disk = suite_csv(ens);
  const auto counters = trace::counters();
  const auto spans = trace::aggregate_by_label();
  trace::set_enabled(false);

  EXPECT_EQ(from_disk, baseline) << "disk-tier reload run";
  EXPECT_GE(counters.at("cache.disk_hit"), 2u);
  EXPECT_EQ(spans.count("ensemble.synthesize"), 0u);
  EXPECT_EQ(spans.count("stats.build"), 0u);
}

// The Deflate and fpzip-32 probes are memoized on the cached stats, keyed
// by (probe member, chunk_elems): a warm run encodes no probe and writes
// the same bytes; another probe member, another partition or the cache
// off recompute. Each probe encode of a whole member is one
// pvt.member_encodes (no other path encodes without decoding).
TEST_F(EnsembleCacheTest, ProbeRatiosAreMemoizedWithTheStats) {
  const climate::EnsembleGenerator ens(tiny_spec());
  const auto run = [&](const SuiteConfig& cfg, std::string* csv) {
    trace::set_enabled(true);
    trace::reset();
    *csv = suite_results_csv(run_suite(ens, cfg, {"U"}));
    const auto counters = trace::counters();
    trace::set_enabled(false);
    return counters.at("pvt.member_encodes");
  };
  SuiteConfig cfg = fast_config();
  cfg.run_bias = false;
  std::string cold;
  std::string warm;
  std::string again;

  EnsembleCache::global().configure(disabled());
  EXPECT_EQ(run(cfg, &cold), 2u) << "cache off: both probes encode";
  EXPECT_EQ(run(cfg, &again), 2u) << "cache off: a fresh view recomputes";
  EXPECT_EQ(again, cold);

  EnsembleCache::global().configure(memory_only());
  EXPECT_EQ(run(cfg, &again), 2u) << "cold cache";
  EXPECT_EQ(again, cold);
  EXPECT_EQ(run(cfg, &warm), 0u) << "warm run re-encoded a memoized probe";
  EXPECT_EQ(warm, cold);

  // Another probe member: a member seed whose first pick differs.
  const climate::VariableSpec& u = ens.variable("U");
  const auto probe_of = [&](std::uint64_t seed) {
    return PvtVerifier::pick_members(cfg.test_member_count, tiny_spec().members,
                                     hash_combine(seed, u.stream))
        .front();
  };
  SuiteConfig other_probe = cfg;
  while (probe_of(other_probe.member_seed) == probe_of(cfg.member_seed)) {
    ++other_probe.member_seed;
  }
  EXPECT_EQ(run(other_probe, &again), 2u) << "another probe member";
  EXPECT_EQ(run(other_probe, &again), 0u);

  // Another partition of the same member.
  SuiteConfig chunked = cfg;
  chunked.chunk_elems = 1024;
  EXPECT_EQ(run(chunked, &again), 2u) << "another chunk_elems";
  EXPECT_EQ(run(chunked, &again), 0u);
  EXPECT_EQ(run(cfg, &again), 0u) << "the unchunked ratios are still memoized";
  EXPECT_EQ(again, cold);
}

// Concurrent variables on one cached view race to fill its probe memo
// (the first insert wins): every row still equals the cache-off run.
TEST_F(EnsembleCacheTest, ConcurrentRunsShareTheProbeMemo) {
  const climate::EnsembleGenerator ens(tiny_spec());
  SuiteConfig cfg = fast_config();
  cfg.run_bias = false;
  const std::vector<std::string> repeated = {"U", "FSDSC", "U", "FSDSC", "U", "FSDSC"};

  EnsembleCache::global().configure(disabled());
  const SuiteResults baseline = run_suite(ens, cfg, {"U", "FSDSC"});

  ScopedScheduler scoped(4);
  EnsembleCache::global().configure(memory_only());
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "cold" : "warm");
    const SuiteResults results = run_suite(ens, cfg, repeated);
    ASSERT_EQ(results.variables.size(), repeated.size());
    for (std::size_t i = 0; i < repeated.size(); ++i) {
      const VariableResult& got = results.variables[i];
      const VariableResult& want = baseline.variable(repeated[i]);
      EXPECT_EQ(got.netcdf4_cr, want.netcdf4_cr) << repeated[i];
      EXPECT_EQ(got.fpzip32_cr, want.fpzip32_cr) << repeated[i];
      EXPECT_EQ(got.character.lossless_cr, want.character.lossless_cr) << repeated[i];
    }
  }
}

}  // namespace
}  // namespace cesm::core
