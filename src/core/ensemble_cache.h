#pragma once
// Cross-run memoization of the ensemble side of the PVT (§4, eqs. 6-11).
//
// The methodology's acceptance tests compare a *reconstructed* dataset
// against distributions computed purely from the perturbation ensemble:
// the RMSZ histogram, the E_nmax distribution, per-member ranges and
// global means. None of that depends on the codec under test, yet the
// suite and every bench tool rebuild it per variant, per repetition, per
// process. This cache keys the complete EnsembleStats product (members +
// every derived array) by a stable content hash of everything that
// determines it — grid shape, member count, the Lorenz-96 latent spec
// (including its seed) and the full VariableSpec — so one synthesis
// serves all of them.
//
// Two tiers (util/cache.h):
//   * an in-memory byte-budgeted LRU shared by all threads of a process,
//   * an optional on-disk tier (CESM_CACHE_DIR) shared across processes
//     and runs; entries are checksummed and versioned, and anything
//     stale, truncated or corrupt is regenerated, never trusted.
//
// Determinism contract: EnsembleStats::build() is bit-deterministic at
// any thread count and serialization round-trips exact bits, so a run
// with a warm cache (either tier), a cold cache, or the cache disabled
// produces bit-identical results. tests/core/test_ensemble_cache.cpp
// locks this in.

#include <memory>
#include <mutex>

#include "climate/ensemble.h"
#include "core/rmsz.h"
#include "util/cache.h"

namespace cesm::core {

/// Hash every field of `spec` into `h`: grid shape, member count, then the
/// full latent dynamics spec. The one spelling of an ensemble's identity,
/// shared by EnsembleCache::key and cesmd's generator registry.
void hash_ensemble_spec(util::KeyHasher& h, const climate::EnsembleSpec& spec);

class EnsembleCache {
 public:
  /// Process-wide instance, configured from the environment (CESM_CACHE,
  /// CESM_CACHE_MB, CESM_CACHE_DIR) on first use.
  static EnsembleCache& global();

  explicit EnsembleCache(util::CacheConfig cfg);

  /// Replace the configuration. Drops every resident entry (the disk
  /// tier, if any, keeps its files — they are validated on read).
  void configure(util::CacheConfig cfg);

  /// The EnsembleStats for (ensemble, var): served from memory, then
  /// disk, then built from a fresh synthesis (and inserted into both
  /// tiers). With the cache disabled this degenerates to a plain build.
  /// Thread-safe; concurrent callers may build duplicates (first insert
  /// wins — builds are deterministic so the duplicates are identical).
  [[nodiscard]] std::shared_ptr<const EnsembleStats> stats(
      const climate::EnsembleGenerator& ensemble, const climate::VariableSpec& var);

  /// Content hash of everything that determines stats(ensemble, var).
  [[nodiscard]] static std::uint64_t key(const climate::EnsembleSpec& spec,
                                         const climate::VariableSpec& var);

  /// In-memory tier counters (hits/misses/evictions/bytes).
  [[nodiscard]] util::CacheStats memory_stats() const;

  [[nodiscard]] bool enabled() const;
  [[nodiscard]] bool has_disk_tier() const;

 private:
  struct Tiers {
    std::shared_ptr<util::LruCache<EnsembleStats>> mem;
    std::shared_ptr<util::DiskCache> disk;  // null = no disk tier
  };
  [[nodiscard]] Tiers tiers() const;

  mutable std::mutex mu_;  // guards cfg_/tiers_ swaps, not the tiers themselves
  util::CacheConfig cfg_;
  Tiers tiers_;
};

}  // namespace cesm::core
