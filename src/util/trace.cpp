#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace cesm::trace {

namespace detail {

std::atomic<bool> g_enabled{false};
std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters{};

namespace {

constexpr std::array<const char*, kCounterCount> kCounterNames = {
#define CESM_TRACE_COUNTER_NAME(id, name) name,
    CESM_TRACE_COUNTERS(CESM_TRACE_COUNTER_NAME)
#undef CESM_TRACE_COUNTER_NAME
};

using Clock = std::chrono::steady_clock;

/// Per-thread span tree. nodes[0] is the thread's root; every other node
/// hangs off it by label path. The owning thread appends under `mu`
/// (uncontended in steady state); collect_tree() locks the same mutex to
/// take a consistent snapshot.
struct ThreadLog {
  struct Node {
    std::string label;
    std::vector<std::uint32_t> children;  // indices into `nodes`
    SpanStats stats;
  };
  struct Open {
    std::uint32_t node = 0;
    Clock::time_point start;
  };

  std::mutex mu;
  std::vector<Node> nodes;
  std::vector<Open> stack;  // currently-open spans, outermost first

  ThreadLog() { nodes.emplace_back(); }

  std::uint32_t child_of(std::uint32_t parent, const std::string& label) {
    for (std::uint32_t c : nodes[parent].children) {
      if (nodes[c].label == label) return c;
    }
    const auto idx = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(Node{label, {}, {}});
    nodes[parent].children.push_back(idx);
    return idx;
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadLog>> logs;
};

Registry& registry() {
  // Leaked on purpose: worker threads may record past static destruction.
  static auto* r = new Registry;
  return *r;
}

ThreadLog& thread_log() {
  thread_local std::shared_ptr<ThreadLog> log = [] {
    auto l = std::make_shared<ThreadLog>();
    Registry& reg = registry();
    std::lock_guard lock(reg.mu);
    reg.logs.push_back(l);
    return l;
  }();
  return *log;
}

void merge_into(ReportNode& dst, const ThreadLog& log, std::uint32_t src) {
  dst.stats.merge(log.nodes[src].stats);
  for (std::uint32_t c : log.nodes[src].children) {
    const std::string& label = log.nodes[c].label;
    ReportNode* child = nullptr;
    for (ReportNode& existing : dst.children) {
      if (existing.label == label) {
        child = &existing;
        break;
      }
    }
    if (child == nullptr) {
      dst.children.push_back(ReportNode{label, {}, {}});
      child = &dst.children.back();
    }
    merge_into(*child, log, c);
  }
}

void sort_by_total(ReportNode& node) {
  std::sort(node.children.begin(), node.children.end(),
            [](const ReportNode& a, const ReportNode& b) {
              return a.stats.total_ns > b.stats.total_ns;
            });
  for (ReportNode& c : node.children) sort_by_total(c);
}

void flatten(const ReportNode& node, std::map<std::string, SpanStats>& out) {
  out[node.label].merge(node.stats);
  for (const ReportNode& c : node.children) flatten(c, out);
}

}  // namespace

void span_begin(const std::string& label) {
  ThreadLog& log = thread_log();
  std::lock_guard lock(log.mu);
  const std::uint32_t parent = log.stack.empty() ? 0 : log.stack.back().node;
  log.stack.push_back(ThreadLog::Open{log.child_of(parent, label), Clock::now()});
}

void span_end() {
  const Clock::time_point end = Clock::now();
  ThreadLog& log = thread_log();
  std::lock_guard lock(log.mu);
  if (log.stack.empty()) return;  // reset() raced an open span; drop it
  const ThreadLog::Open open = log.stack.back();
  log.stack.pop_back();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - open.start).count());
  SpanStats& s = log.nodes[open.node].stats;
  ++s.count;
  s.total_ns += ns;
  s.max_ns = std::max(s.max_ns, ns);
}

}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
  for (std::atomic<std::uint64_t>& c : detail::g_counters) c.store(0, std::memory_order_relaxed);
  detail::Registry& reg = detail::registry();
  std::lock_guard reg_lock(reg.mu);
  for (const auto& log : reg.logs) {
    std::lock_guard lock(log->mu);
    // Rebuild the node tree, re-threading any still-open spans so their
    // eventual span_end() lands on a valid node of the fresh tree. The
    // old labels went with the old nodes; mark the re-opened path.
    const std::vector<detail::ThreadLog::Open> open = std::move(log->stack);
    log->nodes.clear();
    log->nodes.emplace_back();
    log->stack.clear();
    std::uint32_t parent = 0;
    for (const detail::ThreadLog::Open& o : open) {
      parent = log->child_of(parent, "(open-at-reset)");
      log->stack.push_back(detail::ThreadLog::Open{parent, o.start});
    }
  }
}

const ReportNode* ReportNode::child(const std::string& child_label) const {
  for (const ReportNode& c : children) {
    if (c.label == child_label) return &c;
  }
  return nullptr;
}

std::size_t ReportNode::size() const {
  std::size_t n = 1;
  for (const ReportNode& c : children) n += c.size();
  return n;
}

ReportNode collect_tree() {
  ReportNode root;
  root.label = "profile";
  detail::Registry& reg = detail::registry();
  std::lock_guard reg_lock(reg.mu);
  for (const auto& log : reg.logs) {
    std::lock_guard lock(log->mu);
    detail::merge_into(root, *log, 0);
  }
  detail::sort_by_total(root);
  // The synthetic root carries no timing of its own; report the sum of
  // its direct children as the covered total.
  root.stats = SpanStats{};
  for (const ReportNode& c : root.children) root.stats.merge(c.stats);
  return root;
}

std::map<std::string, SpanStats> aggregate_by_label() {
  std::map<std::string, SpanStats> out;
  const ReportNode root = collect_tree();
  for (const ReportNode& c : root.children) detail::flatten(c, out);
  return out;
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out.emplace(detail::kCounterNames[i], detail::g_counters[i].load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace cesm::trace
