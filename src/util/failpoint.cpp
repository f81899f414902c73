#include "util/failpoint.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/rng.h"

namespace cesm::fail {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

/// Canonical site registry. Every CESM_FAILPOINT name in the tree must be
/// listed here: the list is what makes all_sites() complete without
/// executing a single site, which in turn is what lets the failpoint
/// meta-test fail when a site has no test firing it. Keep sorted.
constexpr const char* kRegisteredSites[] = {
    "apax.decode",        //
    "cache.disk_read",    //
    "comp.prep_plan",     //
    "deflate.decode",     //
    "fpz.decode",         //
    "grib2.decode",       //
    "isabela.decode",     //
    "ncio.read",          //
    "ncio.read_chunk",    //
    "ncio.read_file",     //
    "ncio.write",         //
    "ncio.write_file",    //
    "sched.task",         //
    "serve.request",      //
    "special.decode",     //
    "suite.variable",     //
    "suite.verify_variant",
};

std::atomic<std::size_t> g_armed_count{0};

}  // namespace

struct Site {
  std::string name;
  std::mutex mu;  ///< guards trigger state on the (test-only) armed path
  Trigger trigger;
  std::uint64_t countdown = 0;   ///< kNth: armed hits left before firing
  std::uint64_t armed_hits = 0;  ///< kProbability: index into the hash stream
  std::atomic<bool> armed{false};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fires{0};
};

namespace {

struct Registry {
  std::mutex mu;
  /// Node-based map: Site addresses stay stable across registrations.
  std::map<std::string, Site> sites;
};

Registry& registry() {
  // Leaked on purpose: failpoints may be hit during static destruction.
  static auto* r = [] {
    auto* reg = new Registry;
    for (const char* name : kRegisteredSites) reg->sites[name].name = name;
    return reg;
  }();
  return *r;
}

Site* find_site(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  auto it = reg.sites.find(name);
  return it == reg.sites.end() ? nullptr : &it->second;
}

Site& require_site(const std::string& name) {
  Site* s = find_site(name);
  if (s == nullptr) throw InvalidArgument("unknown failpoint: " + name);
  return *s;
}

/// Apply `trigger` to `s` and maintain the armed-site census that backs
/// the global enabled flag.
void set_trigger(Site& s, const Trigger& trigger) {
  std::lock_guard lock(s.mu);
  const bool was_armed = s.armed.load(std::memory_order_relaxed);
  s.trigger = trigger;
  s.countdown = trigger.kind == Trigger::Kind::kNth ? trigger.n : 0;
  s.armed_hits = 0;
  const bool now_armed = trigger.kind != Trigger::Kind::kNever;
  s.armed.store(now_armed, std::memory_order_release);
  if (was_armed != now_armed) {
    const std::size_t count =
        now_armed ? g_armed_count.fetch_add(1, std::memory_order_relaxed) + 1
                  : g_armed_count.fetch_sub(1, std::memory_order_relaxed) - 1;
    g_enabled.store(count > 0, std::memory_order_relaxed);
  }
}

Trigger parse_trigger(const std::string& spec) {
  if (spec == "off") return Trigger::off();
  if (spec == "always") return Trigger::always();
  if (spec == "once") return Trigger::once();
  if (spec.rfind("nth:", 0) == 0) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(spec.c_str() + 4, &end, 10);
    if (end == spec.c_str() + 4 || *end != '\0' || n == 0) {
      throw InvalidArgument("bad failpoint trigger (want nth:N, N >= 1): " + spec);
    }
    return Trigger::nth(n);
  }
  if (spec.rfind("prob:", 0) == 0) {
    char* end = nullptr;
    const double p = std::strtod(spec.c_str() + 5, &end);
    if (end == spec.c_str() + 5 || !(p >= 0.0 && p <= 1.0)) {
      throw InvalidArgument("bad failpoint trigger (want prob:P[:SEED], 0<=P<=1): " + spec);
    }
    std::uint64_t seed = 0;
    if (*end == ':') {
      char* seed_end = nullptr;
      seed = std::strtoull(end + 1, &seed_end, 0);
      if (seed_end == end + 1 || *seed_end != '\0') {
        throw InvalidArgument("bad failpoint trigger seed: " + spec);
      }
    } else if (*end != '\0') {
      throw InvalidArgument("bad failpoint trigger: " + spec);
    }
    return Trigger::with_probability(p, seed);
  }
  throw InvalidArgument("unknown failpoint trigger: " + spec);
}

// Applies CESM_FAILPOINTS exactly once, before main() in any binary that
// links a failpoint site (the TU is pulled in by the site's symbol
// references). Sites armed here are live for the whole process.
const bool g_env_applied = [] {
  configure_from_env();
  return true;
}();

}  // namespace

Site& site(const char* name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  Site& s = reg.sites[name];
  // A site the canonical list does not know about still works (and shows
  // up in all_sites() once executed) so production code never aborts, but
  // the meta-test will flag it as unfirable until it is listed.
  if (s.name.empty()) s.name = name;
  return s;
}

void hit(Site& s) {
  s.hits.fetch_add(1, std::memory_order_relaxed);
  if (!s.armed.load(std::memory_order_acquire)) return;

  bool fire = false;
  bool disarmed = false;
  {
    std::lock_guard lock(s.mu);
    switch (s.trigger.kind) {
      case Trigger::Kind::kNever:
        break;
      case Trigger::Kind::kAlways:
        fire = true;
        break;
      case Trigger::Kind::kNth:
        if (s.countdown > 0 && --s.countdown == 0) {
          fire = true;
          // One-shot: disarm before throwing so a retry of the failed
          // operation succeeds — the recovery path the suite's retry
          // policy depends on.
          s.trigger = Trigger::off();
          s.armed.store(false, std::memory_order_release);
          disarmed = true;
        }
        break;
      case Trigger::Kind::kProbability: {
        // Pure function of (seed, armed-hit index): a fixed hit sequence
        // fires at the same indices on every run.
        const std::uint64_t h = hash_combine(s.trigger.seed, s.armed_hits++);
        fire = static_cast<double>(h >> 11) * 0x1.0p-53 < s.trigger.probability;
        break;
      }
    }
  }
  if (disarmed) {
    const std::size_t count = g_armed_count.fetch_sub(1, std::memory_order_relaxed) - 1;
    g_enabled.store(count > 0, std::memory_order_relaxed);
  }
  if (!fire) return;
  s.fires.fetch_add(1, std::memory_order_relaxed);
  throw InjectedFault(s.name);
}

}  // namespace detail

void arm(const std::string& site, const Trigger& trigger) {
  detail::set_trigger(detail::require_site(site), trigger);
}

void disarm(const std::string& site) { arm(site, Trigger::off()); }

void disarm_all() {
  detail::Registry& reg = detail::registry();
  std::vector<detail::Site*> sites;
  {
    std::lock_guard lock(reg.mu);
    for (auto& [_, s] : reg.sites) sites.push_back(&s);
  }
  for (detail::Site* s : sites) detail::set_trigger(*s, Trigger::off());
}

void reset() {
  detail::Registry& reg = detail::registry();
  std::vector<detail::Site*> sites;
  {
    std::lock_guard lock(reg.mu);
    for (auto& [_, s] : reg.sites) sites.push_back(&s);
  }
  for (detail::Site* s : sites) {
    detail::set_trigger(*s, Trigger::off());
    s->hits.store(0, std::memory_order_relaxed);
    s->fires.store(0, std::memory_order_relaxed);
  }
}

void configure(const std::string& spec) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find_first_of(",;", pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    // Tolerate stray whitespace around entries.
    const std::size_t first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const std::size_t last = entry.find_last_not_of(" \t");
    entry = entry.substr(first, last - first + 1);

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      throw InvalidArgument("bad failpoint entry (want site=trigger): " + entry);
    }
    const auto trim = [](std::string s) {
      const std::size_t b = s.find_first_not_of(" \t");
      if (b == std::string::npos) return std::string();
      return s.substr(b, s.find_last_not_of(" \t") - b + 1);
    };
    const std::string site = trim(entry.substr(0, eq));
    const std::string trigger = trim(entry.substr(eq + 1));
    if (site.empty() || trigger.empty()) {
      throw InvalidArgument("bad failpoint entry (want site=trigger): " + entry);
    }
    arm(site, detail::parse_trigger(trigger));
  }
}

bool configure_from_env() {
  const char* spec = std::getenv("CESM_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return false;
  try {
    configure(spec);
    return true;
  } catch (const Error& e) {
    // A typo in the environment must not abort the host process during
    // static initialization; report and run without the bad entries.
    std::fprintf(stderr, "CESM_FAILPOINTS ignored: %s\n", e.what());
    return false;
  }
}

std::vector<std::string> all_sites() {
  detail::Registry& reg = detail::registry();
  std::lock_guard lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.sites.size());
  for (const auto& [name, _] : reg.sites) names.push_back(name);
  return names;  // std::map iterates sorted
}

bool is_registered(const std::string& site) { return detail::find_site(site) != nullptr; }

std::uint64_t hit_count(const std::string& site) {
  return detail::require_site(site).hits.load(std::memory_order_relaxed);
}

std::uint64_t fire_count(const std::string& site) {
  return detail::require_site(site).fires.load(std::memory_order_relaxed);
}

std::map<std::string, std::uint64_t> fire_counts() {
  detail::Registry& reg = detail::registry();
  std::lock_guard lock(reg.mu);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, s] : reg.sites) {
    out[name] = s.fires.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace cesm::fail
