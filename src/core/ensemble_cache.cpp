#include "core/ensemble_cache.h"

#include <cstdio>
#include <filesystem>

#include "util/error.h"
#include "util/trace.h"

namespace cesm::core {

namespace {

// Salted into every key so a change to the key schema or the snapshot
// layout (rmsz.cpp kStatsFormatVersion bumps alongside this) can never
// alias an old disk entry.
constexpr std::uint64_t kKeySchemaVersion = 3;

void make_tiers(const util::CacheConfig& cfg,
                std::shared_ptr<util::LruCache<EnsembleStats>>& mem,
                std::shared_ptr<util::DiskCache>& disk) {
  mem = std::make_shared<util::LruCache<EnsembleStats>>(cfg.max_bytes);
  disk = nullptr;
  if (!cfg.enabled || cfg.disk_dir.empty()) return;
  try {
    // The disk tier shares the memory tier's byte budget as its per-entry
    // ceiling: a snapshot too big to ever be admitted in memory would only
    // burn disk space. CESM_CACHE_DISK_MB additionally bounds the whole
    // directory, evicted oldest-first after each write.
    disk = std::make_shared<util::DiskCache>(cfg.disk_dir, "stats", cfg.max_bytes,
                                             cfg.disk_max_bytes);
  } catch (const Error& e) {
    // An unusable cache directory must not take down the run; fall back
    // to the memory tier alone.
    std::fprintf(stderr, "CESM_CACHE_DIR unusable, disk tier disabled: %s\n",
                 e.what());
  }
}

}  // namespace

void hash_ensemble_spec(util::KeyHasher& h, const climate::EnsembleSpec& spec) {
  h.u64(spec.grid.nlat).u64(spec.grid.nlon).u64(spec.grid.nlev);
  h.u64(spec.members);
  h.u64(spec.latent.k)
      .f64(spec.latent.forcing)
      .f64(spec.latent.dt)
      .u64(spec.latent.spinup_steps)
      .u64(spec.latent.average_steps)
      .u64(spec.latent.seed);
}

EnsembleCache& EnsembleCache::global() {
  static EnsembleCache* instance =
      new EnsembleCache(util::CacheConfig::from_env());
  return *instance;
}

EnsembleCache::EnsembleCache(util::CacheConfig cfg) : cfg_(std::move(cfg)) {
  make_tiers(cfg_, tiers_.mem, tiers_.disk);
}

void EnsembleCache::configure(util::CacheConfig cfg) {
  std::lock_guard lock(mu_);
  cfg_ = std::move(cfg);
  make_tiers(cfg_, tiers_.mem, tiers_.disk);
}

EnsembleCache::Tiers EnsembleCache::tiers() const {
  std::lock_guard lock(mu_);
  return tiers_;
}

bool EnsembleCache::enabled() const {
  std::lock_guard lock(mu_);
  return cfg_.enabled;
}

bool EnsembleCache::has_disk_tier() const { return tiers().disk != nullptr; }

util::CacheStats EnsembleCache::memory_stats() const { return tiers().mem->stats(); }

std::uint64_t EnsembleCache::key(const climate::EnsembleSpec& spec,
                                 const climate::VariableSpec& var) {
  util::KeyHasher h;
  h.u64(kKeySchemaVersion);
  hash_ensemble_spec(h, spec);
  // Variable side: every VariableSpec field that shapes the synthesis.
  h.str(var.name)
      .str(var.units)
      .str(var.description)
      .boolean(var.is_3d)
      .u64(static_cast<std::uint64_t>(var.transform))
      .f64(var.center)
      .f64(var.scale)
      .f64(var.log_mu)
      .f64(var.log_sigma)
      .f64(var.bound_lo)
      .f64(var.bound_hi)
      .f64(var.smoothness)
      .f64(var.noise_frac)
      .f64(var.anomaly_frac)
      .f64(var.vertical_gradient)
      .f64(var.vertical_scale)
      .boolean(var.has_fill)
      .u64(var.stream);
  return h.digest();
}

std::shared_ptr<const EnsembleStats> EnsembleCache::stats(
    const climate::EnsembleGenerator& ensemble, const climate::VariableSpec& var) {
  const Tiers t = tiers();
  const bool use_cache = [&] {
    std::lock_guard lock(mu_);
    return cfg_.enabled;
  }();
  if (!use_cache) {
    return std::make_shared<EnsembleStats>(ensemble.ensemble_fields(var));
  }

  const std::uint64_t k = key(ensemble.spec(), var);
  if (auto hit = t.mem->get(k)) return hit;

  if (t.disk) {
    if (std::optional<Bytes> payload = t.disk->read(k)) {
      try {
        ByteReader r(*payload);
        auto stats = std::make_shared<EnsembleStats>(EnsembleStats::deserialize(r));
        if (!r.exhausted()) throw FormatError("trailing bytes in stats snapshot");
        t.mem->put(k, stats, stats->memory_bytes());
        return stats;
      } catch (const Error&) {
        // Checksum passed but the payload layout is stale or mangled:
        // same contract as container corruption — count, drop, rebuild.
        trace::add(trace::Counter::kCacheDiskCorrupt);
        std::error_code ec;
        std::filesystem::remove(t.disk->entry_path(k), ec);
      }
    }
  }

  auto built = std::make_shared<EnsembleStats>(ensemble.ensemble_fields(var));
  t.mem->put(k, built, built->memory_bytes());
  if (t.disk) {
    Bytes payload;
    ByteWriter w(payload);
    built->serialize(w);
    t.disk->write(k, payload);
  }
  return built;
}

}  // namespace cesm::core
