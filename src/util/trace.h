#pragma once
// Low-overhead scoped tracing and metrics for the experiment pipeline.
//
// The suite harnesses fan out over 9 variants x 170 variables x 101
// members; without per-stage timing there is no way to tell whether
// ensemble synthesis, GRIB tuning, codec work, or RMSZ scoring dominates
// a run. This module provides:
//
//   * RAII scoped spans (trace::Span) with nesting, timed on the
//     monotonic clock;
//   * one table of process-wide counters (CESM_TRACE_COUNTERS below:
//     bytes in/out, elements, codec calls, cache, out-of-core and
//     service events), the single source --profile, the bench JSONs and
//     cesmd's stats response all read;
//   * per-thread span buffers merged on demand into one process-wide
//     span tree with count/total/mean/max per label;
//   * export hooks (core/profile_report.{h,cpp} renders the tree as
//     text and JSON; bench/common wires it to --profile=out.json).
//
// Spans are DISABLED by default. A disabled Span construction costs
// exactly one relaxed atomic load and a branch, so instrumented hot paths
// (codec encode/decode, ncio) keep their throughput when
// nobody is profiling. Counters are always on: trace::add() is one
// relaxed fetch_add on a fixed slot, whether or not spans are enabled.
//
// Thread model: each thread owns a private span-tree buffer guarded by
// its own (uncontended) mutex; buffers register themselves in a global
// registry on first use and outlive their thread so collect_tree() can
// merge completed work at any time. Spans that are still open when the
// tree is collected are simply not counted yet.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// Every process-wide counter, one row each: X(identifier, "layer.name").
/// The Counter enum and the reported names both expand from this list,
/// so an unlisted counter is a compile error. The counter-table ctest
/// fails when a row is counted nowhere in src/. Keep sorted by name.
#define CESM_TRACE_COUNTERS(X)                                       \
  X(kCacheBytes, "cache.bytes")                                      \
  X(kCacheDirEvict, "cache.dir_evict")                               \
  X(kCacheDiskCorrupt, "cache.disk_corrupt")                         \
  X(kCacheDiskHit, "cache.disk_hit")                                 \
  X(kCacheDiskMiss, "cache.disk_miss")                               \
  X(kCacheDiskWrite, "cache.disk_write")                             \
  X(kCacheDiskWriteFail, "cache.disk_write_fail")                    \
  X(kCacheEvict, "cache.evict")                                      \
  X(kCacheHit, "cache.hit")                                          \
  X(kCacheMiss, "cache.miss")                                        \
  X(kCacheOversize, "cache.oversize")                                \
  X(kCodecBytesIn, "codec.bytes_in")                                 \
  X(kCodecBytesOut, "codec.bytes_out")                               \
  X(kCodecDecodeCalls, "codec.decode_calls")                         \
  X(kCodecElementsIn, "codec.elements_in")                           \
  X(kCodecElementsOut, "codec.elements_out")                         \
  X(kCodecEncodeCalls, "codec.encode_calls")                         \
  X(kCodecResidualClassDecisions, "codec.residual_class_decisions")  \
  X(kCodecResidualRawBits, "codec.residual_raw_bits")                \
  X(kCodecResidualSymbols, "codec.residual_symbols")                 \
  X(kEnsembleElements, "ensemble.elements")                          \
  X(kEnsembleFields, "ensemble.fields")                              \
  X(kGribTuneAttempts, "grib.tune_attempts")                         \
  X(kIsabelaBasisBuilt, "isabela.basis_built")                       \
  X(kMemBudgetExceeded, "mem.budget_exceeded")                       \
  X(kMemChargedBytes, "mem.charged_bytes")                           \
  X(kMemReserveWaits, "mem.reserve_waits")                           \
  X(kNcioBytesRead, "ncio.bytes_read")                               \
  X(kNcioBytesWritten, "ncio.bytes_written")                         \
  X(kOocChunksRead, "ooc.chunks_read")                               \
  X(kOocChunksWritten, "ooc.chunks_written")                         \
  X(kOocSpillCorrupt, "ooc.spill_corrupt")                           \
  X(kOocSpillEvicted, "ooc.spill_evicted")                           \
  X(kOocSpillInvalidated, "ooc.spill_invalidated")                   \
  X(kOocSpillReused, "ooc.spill_reused")                             \
  X(kOocVariablesStaged, "ooc.variables_staged")                     \
  X(kPrepPlanBuilt, "prep.plan_built")                               \
  X(kPrepPlanFaults, "prep.plan_faults")                             \
  X(kPrepPlanReused, "prep.plan_reused")                             \
  X(kPvtBiasReused, "pvt.bias_reused")                               \
  X(kPvtMemberEncodes, "pvt.member_encodes")                         \
  X(kPvtMemberRoundtrips, "pvt.member_roundtrips")                   \
  X(kServeCoalescedJoins, "serve.coalesced_joins")                   \
  X(kServeConnections, "serve.connections")                          \
  X(kServeFlights, "serve.flights")                                  \
  X(kServePings, "serve.pings")                                      \
  X(kServeProcessingFailures, "serve.processing_failures")           \
  X(kServeProtocolErrors, "serve.protocol_errors")                   \
  X(kServeRejectedQueueFull, "serve.rejected_queue_full")            \
  X(kServeRejectedShutdown, "serve.rejected_shutdown")               \
  X(kServeRequests, "serve.requests")                                \
  X(kServeResponses, "serve.responses")                              \
  X(kSuiteCodecErrors, "suite.codec_errors")                         \
  X(kSuiteLosslessFallbacks, "suite.lossless_fallbacks")             \
  X(kSuiteVariableFailures, "suite.variable_failures")               \
  X(kSuiteVariableRetries, "suite.variable_retries")                 \
  X(kSuiteVariables, "suite.variables")                              \
  X(kSuiteVariablesFailedTotal, "suite.variables_failed_total")      \
  X(kSweepVariantTasks, "sweep.variant_tasks")

namespace cesm::trace {

enum class Counter : std::size_t {
#define CESM_TRACE_COUNTER_ID(id, name) id,
  CESM_TRACE_COUNTERS(CESM_TRACE_COUNTER_ID)
#undef CESM_TRACE_COUNTER_ID
};

#define CESM_TRACE_COUNTER_ONE(id, name) +1
inline constexpr std::size_t kCounterCount = 0 CESM_TRACE_COUNTERS(CESM_TRACE_COUNTER_ONE);
#undef CESM_TRACE_COUNTER_ONE

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters;
void span_begin(const std::string& label);
void span_end();
}  // namespace detail

/// True while spans collect. One relaxed atomic load — the entire cost
/// of every disabled-mode Span.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Turn span collection on/off (off by default). Spans opened while
/// enabled finish recording even if tracing is disabled before they
/// close. Counters count either way.
void set_enabled(bool on);

/// Drop every span recorded so far, on every thread, and zero every
/// counter. Currently-open spans survive (their timing restarts from
/// their original start point under a fresh tree).
void reset();

/// Add `n` to a process-wide counter: one relaxed fetch_add, always on.
inline void add(Counter c, std::uint64_t n = 1) {
  detail::g_counters[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
}

/// RAII scoped span. Nesting follows C++ scope per thread:
///   trace::Span s("suite.variable");
///   { trace::Span t("grib.tune"); ... }   // child of suite.variable
class Span {
 public:
  explicit Span(const char* label) : armed_(enabled()) {
    if (armed_) detail::span_begin(label);
  }
  explicit Span(const std::string& label) : armed_(enabled()) {
    if (armed_) detail::span_begin(label);
  }
  ~Span() {
    if (armed_) detail::span_end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_;
};

/// Aggregated timing for one span label at one tree position.
struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;

  [[nodiscard]] double total_seconds() const { return static_cast<double>(total_ns) * 1e-9; }
  [[nodiscard]] double mean_seconds() const {
    return count == 0 ? 0.0 : total_seconds() / static_cast<double>(count);
  }
  [[nodiscard]] double max_seconds() const { return static_cast<double>(max_ns) * 1e-9; }

  void merge(const SpanStats& other) {
    count += other.count;
    total_ns += other.total_ns;
    max_ns = max_ns > other.max_ns ? max_ns : other.max_ns;
  }
};

/// One node of the merged span tree. The root is synthetic ("profile");
/// its children are the top-level spans of every thread, merged by
/// label, sorted by total time descending.
struct ReportNode {
  std::string label;
  SpanStats stats;
  std::vector<ReportNode> children;

  /// First child with the given label, or nullptr.
  [[nodiscard]] const ReportNode* child(const std::string& child_label) const;
  /// Recursive node count, root included.
  [[nodiscard]] std::size_t size() const;
};

/// Merge every thread's completed spans into one tree.
ReportNode collect_tree();

/// Flat per-label totals over the whole tree (a label appearing at
/// several tree positions is summed).
std::map<std::string, SpanStats> aggregate_by_label();

/// Snapshot of every row of the counter table by name, zeros included.
std::map<std::string, std::uint64_t> counters();

}  // namespace cesm::trace
