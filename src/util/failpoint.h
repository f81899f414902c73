#pragma once
// Deterministic fault injection (cesm::fail).
//
// The suite's whole product is trust: the paper's methodology certifies a
// compression pipeline, so the pipeline's *error paths* — truncated
// streams, failed decodes, scheduler task failures, I/O errors mid-suite
// — need the same mechanical coverage as its happy paths. This module
// provides named failpoint sites compiled into those paths:
//
//   CESM_FAILPOINT("fpz.decode");
//
// A disabled site (the production state) costs exactly one relaxed
// atomic load and a branch, the same budget as a disabled trace::Span.
// When a site is armed and its trigger decides to fire, the site throws
// fail::InjectedFault (a cesm::Error), exercising the surrounding code's
// real unwind path.
//
// Triggers are deterministic:
//   * once            — fire on the next hit, then disarm;
//   * nth:N           — fire on the Nth armed hit (1-based), then disarm;
//   * prob:P[:SEED]   — fire each hit with probability P, decided by a
//                       pure hash of (SEED, armed-hit index) so a given
//                       hit sequence always fires at the same indices;
//   * always          — fire on every hit (targeted unit tests);
//   * off             — disarm.
//
// Configuration comes from the CESM_FAILPOINTS environment variable
// ("site=trigger,site=trigger", parsed once at process start) or from the
// arm()/disarm()/ScopedFailpoint API used by tests.
//
// Sites are registered in the canonical list in failpoint.cpp so
// all_sites() enumerates every site without having to execute it; the
// failpoint meta-test uses that to fail when a site has no test firing
// it. Per-site hit/fire counts are kept while the subsystem is enabled;
// hit_count()/fire_count() are the one place to read them (they are not
// rows of the cesm::trace counter table, whose names are fixed at
// compile time).

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.h"

namespace cesm::fail {

/// Thrown by a firing failpoint. Derives from cesm::Error so injected
/// faults travel the exact unwind path a real decode/I-O failure takes.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& site)
      : Error("injected fault at failpoint " + site), site_(site) {}
  [[nodiscard]] const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// When and how an armed site fires.
struct Trigger {
  enum class Kind : std::uint8_t { kNever, kAlways, kNth, kProbability };
  Kind kind = Kind::kNever;
  std::uint64_t n = 0;        ///< kNth: fire on the nth armed hit (1-based)
  double probability = 0.0;   ///< kProbability: chance per armed hit
  std::uint64_t seed = 0;     ///< kProbability: hash seed

  static Trigger off() { return {}; }
  static Trigger always() { return {Kind::kAlways, 0, 0.0, 0}; }
  static Trigger once() { return nth(1); }
  static Trigger nth(std::uint64_t hit) { return {Kind::kNth, hit, 0.0, 0}; }
  static Trigger with_probability(double p, std::uint64_t seed = 0) {
    return {Kind::kProbability, 0, p, seed};
  }
};

namespace detail {
extern std::atomic<bool> g_enabled;
struct Site;
/// Look up (registering on first sight) the site record for `name`.
/// Called once per CESM_FAILPOINT site via a function-local static.
Site& site(const char* name);
/// Count a hit on an enabled subsystem; throws InjectedFault when the
/// site's trigger fires.
void hit(Site& site);
}  // namespace detail

/// True while at least one site is armed. The entire disabled-mode cost
/// of every CESM_FAILPOINT.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Arm `site` with `trigger` (Kind::kNever disarms). Throws
/// InvalidArgument for a site name not in the registry.
void arm(const std::string& site, const Trigger& trigger);

/// Disarm one site / every site. Counters are preserved.
void disarm(const std::string& site);
void disarm_all();

/// Disarm everything and zero all hit/fire counters (test isolation).
void reset();

/// Parse and apply a CESM_FAILPOINTS spec: comma- or semicolon-separated
/// `site=trigger` entries, e.g. "fpz.decode=once,grib2.decode=nth:3".
/// Throws InvalidArgument on malformed specs or unknown sites.
void configure(const std::string& spec);

/// Apply the CESM_FAILPOINTS environment variable (no-op when unset).
/// Called automatically once at process start; callable again by tests
/// that need a deterministic re-arm after disarm_all(). Returns true when
/// the variable was present and applied. A malformed value is reported on
/// stderr and skipped rather than aborting the host process.
bool configure_from_env();

/// Every registered site name, sorted. Complete without executing any
/// site: the canonical list in failpoint.cpp pre-registers them.
std::vector<std::string> all_sites();
[[nodiscard]] bool is_registered(const std::string& site);

/// Hits observed / faults fired while the subsystem was enabled. Throws
/// InvalidArgument for unknown sites.
std::uint64_t hit_count(const std::string& site);
std::uint64_t fire_count(const std::string& site);
/// Snapshot of every site's fire count (sites with zero fires included).
std::map<std::string, std::uint64_t> fire_counts();

/// RAII arm/disarm for tests:
///   fail::ScopedFailpoint fp("fpz.decode", fail::Trigger::once());
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, const Trigger& trigger) : site_(std::move(site)) {
    arm(site_, trigger);
  }
  ~ScopedFailpoint() { disarm(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace cesm::fail

/// A named fault-injection site. Disabled cost: one relaxed atomic load
/// and a branch. The name should be a stable "<layer>.<operation>" label
/// listed in failpoint.cpp's canonical registry.
#define CESM_FAILPOINT(name)                                        \
  do {                                                              \
    if (::cesm::fail::enabled()) {                                  \
      static ::cesm::fail::detail::Site& cesm_failpoint_site =      \
          ::cesm::fail::detail::site(name);                         \
      ::cesm::fail::detail::hit(cesm_failpoint_site);               \
    }                                                               \
  } while (0)
