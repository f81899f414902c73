#include "util/cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <vector>

#include "util/env.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace cesm::util {

std::uint64_t fnv1a64(std::span<const std::uint8_t> data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t KeyHasher::digest() const {
  // One SplitMix64 round diffuses the FNV state so near-identical inputs
  // (e.g. keys differing only in a trailing bool) land far apart.
  return SplitMix64(h_).next();
}

EvictionResult evict_directory_to_budget(const std::filesystem::path& dir,
                                         std::string_view extension,
                                         std::uint64_t max_total_bytes,
                                         std::span<const std::string> protect) {
  EvictionResult result;
  struct Entry {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    std::error_code fec;
    if (!de.is_regular_file(fec) || fec) continue;
    const std::string name = de.path().filename().string();
    if (name.size() < extension.size() ||
        name.compare(name.size() - extension.size(), extension.size(), extension) != 0) {
      continue;
    }
    Entry e;
    e.path = de.path();
    e.bytes = de.file_size(fec);
    if (fec) continue;
    e.mtime = de.last_write_time(fec);
    if (fec) continue;
    total += e.bytes;
    entries.push_back(std::move(e));
  }
  if (total <= max_total_bytes) return result;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& e : entries) {
    if (total <= max_total_bytes) break;
    const std::string path_str = e.path.string();
    bool is_protected = false;
    for (const std::string& p : protect) {
      if (p == path_str) {
        is_protected = true;
        break;
      }
    }
    if (is_protected) continue;
    std::error_code rec;
    if (!std::filesystem::remove(e.path, rec) || rec) continue;
    total -= e.bytes;
    ++result.files_removed;
    result.bytes_removed += e.bytes;
  }
  if (result.files_removed > 0) {
    trace::add(trace::Counter::kCacheDirEvict, result.files_removed);
  }
  return result;
}

DiskCache::DiskCache(std::filesystem::path dir, std::string prefix,
                     std::size_t max_payload_bytes, std::uint64_t max_total_bytes)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      max_payload_bytes_(max_payload_bytes),
      max_total_bytes_(max_total_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw IoError("cannot create cache directory " + dir_.string() +
                  (ec ? ": " + ec.message() : ""));
  }
}

std::filesystem::path DiskCache::entry_path(std::uint64_t key) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s-%016llx.cesmc", prefix_.c_str(),
                static_cast<unsigned long long>(key));
  return dir_ / name;
}

std::optional<Bytes> DiskCache::read(std::uint64_t key) const {
  const std::filesystem::path path = entry_path(key);
  Bytes raw;
  {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      trace::add(trace::Counter::kCacheDiskMiss);
      return std::nullopt;
    }
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekg(0, std::ios::beg);
    if (size < 0) {
      trace::add(trace::Counter::kCacheDiskMiss);
      return std::nullopt;
    }
    raw.resize(static_cast<std::size_t>(size));
    if (!raw.empty() &&
        !f.read(reinterpret_cast<char*>(raw.data()),
                static_cast<std::streamsize>(raw.size()))) {
      raw.clear();  // short read: fall through to the corrupt path below
    }
  }

  // Validation (and the injectable fault) share one recovery path: any
  // Error here means the entry cannot be trusted — count it, delete it,
  // and report a miss so the caller regenerates the value.
  try {
    CESM_FAILPOINT("cache.disk_read");
    ByteReader r(raw);
    if (r.u32() != kMagic) throw FormatError("cache entry magic mismatch");
    if (r.u32() != kFormatVersion) throw FormatError("cache entry version mismatch");
    if (r.u64() != key) throw FormatError("cache entry key mismatch");
    const std::uint64_t payload_size = r.u64();
    const std::uint64_t checksum = r.u64();
    if (payload_size != r.remaining()) {
      throw FormatError("cache entry payload size mismatch");
    }
    const std::span<const std::uint8_t> payload =
        r.raw(static_cast<std::size_t>(payload_size));
    if (fnv1a64(payload) != checksum) {
      throw FormatError("cache entry checksum mismatch");
    }
    trace::add(trace::Counter::kCacheDiskHit);
    return Bytes(payload.begin(), payload.end());
  } catch (const Error&) {
    trace::add(trace::Counter::kCacheDiskCorrupt);
    std::error_code ec;
    std::filesystem::remove(path, ec);  // best effort; rewrite replaces it anyway
    return std::nullopt;
  }
}

void DiskCache::write(std::uint64_t key, std::span<const std::uint8_t> payload) const {
  if (max_payload_bytes_ != 0 && payload.size() > max_payload_bytes_) {
    trace::add(trace::Counter::kCacheOversize);
    return;
  }
  Bytes file;
  ByteWriter w(file);
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u64(key);
  w.u64(payload.size());
  w.u64(fnv1a64(payload));
  w.raw(payload);

  const std::filesystem::path path = entry_path(key);
  // Unique temp name per writer so concurrent processes warming the same
  // directory never interleave into one file; rename() then publishes the
  // complete entry atomically (same directory => same filesystem).
  const std::filesystem::path tmp =
      path.string() + ".tmp." +
      std::to_string(static_cast<unsigned long long>(
          hash_combine(reinterpret_cast<std::uintptr_t>(&file), key)));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f ||
        !f.write(reinterpret_cast<const char*>(file.data()),
                 static_cast<std::streamsize>(file.size()))) {
      trace::add(trace::Counter::kCacheDiskWriteFail);
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    trace::add(trace::Counter::kCacheDiskWriteFail);
    std::filesystem::remove(tmp, ec);
    return;
  }
  trace::add(trace::Counter::kCacheDiskWrite);
  if (max_total_bytes_ != 0) {
    const std::string protect[] = {path.string()};
    evict_directory_to_budget(dir_, ".cesmc", max_total_bytes_, protect);
  }
}

CacheConfig CacheConfig::from_env() {
  CacheConfig cfg;
  if (const char* v = std::getenv("CESM_CACHE");
      v != nullptr && (std::string_view(v) == "off" || std::string_view(v) == "0")) {
    cfg.enabled = false;
  }
  if (const auto mb = env_u64("CESM_CACHE_MB")) {
    // strtoull used to live here and accepted "-1" via unsigned wraparound,
    // turning a typo into a ~16-exabyte budget. env_u64 rejects signs,
    // garbage, and overflow with a stderr warning; the shift guard below
    // catches values whose byte count would not fit in size_t.
    if (*mb > (std::numeric_limits<std::size_t>::max() >> 20)) {
      std::fprintf(stderr, "CESM_CACHE_MB ignored: %llu MiB overflows the byte budget\n",
                   static_cast<unsigned long long>(*mb));
    } else {
      cfg.max_bytes = static_cast<std::size_t>(*mb) << 20;
    }
  }
  if (const char* v = std::getenv("CESM_CACHE_DIR"); v != nullptr && *v != '\0') {
    cfg.disk_dir = v;
  }
  if (const auto mb = env_u64("CESM_CACHE_DISK_MB")) {
    if (*mb > (std::numeric_limits<std::uint64_t>::max() >> 20)) {
      std::fprintf(stderr,
                   "CESM_CACHE_DISK_MB ignored: %llu MiB overflows the byte budget\n",
                   static_cast<unsigned long long>(*mb));
    } else {
      cfg.disk_max_bytes = *mb << 20;
    }
  }
  return cfg;
}

}  // namespace cesm::util
