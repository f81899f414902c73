#pragma once
// Out-of-core full-grid verification: the chunk-store leg of the one
// verification pipeline (docs/ooc.md).
//
// A paper-scale variable (101 members of a full CAM grid) does not fit in
// memory next to its derived statistics. run_variable_streaming stages it
// chunk by chunk into a CNK1 spill (ncio/chunkstore.h), builds its
// StreamingStats (core/rmsz.h) in two read passes, and hands the store to
// the same verify_variable (core/suite.h) the in-core leg runs on resident
// members. Both legs therefore produce bit-identical results for the same
// chunk partition (SuiteConfig::chunk_elems == OocConfig::chunk_elems).
//
// Memory honesty: a variable reserves its whole working set
// (ooc_working_set_bytes: per-point arrays, per-member slots, per-lane
// chunk buffers, stream staging and codec round trip) on a
// util::MemoryBudget once, before it stages anything;
// with CESM_MEM_MB set, a working set above the cap is an error, not a
// slowdown.
//
// Multi-variable concurrency: run_suite_streaming runs variables as
// concurrent jobs under ONE shared budget. Each variable acquires its
// whole working set (ooc_working_set_bytes) as a single all-or-nothing
// reservation and parks in FIFO order when it does not fit, so the cap
// holds under contention, no variable starves and none deadlocks.
//
// Spill reuse: with OocConfig::reuse_spill, spills are content-addressed
// on the EnsembleCache key schema plus the chunk partition and format
// version; a later run validates the CNK1 checksums and skips synthesis.
// A spill that fails validation, or fails mid-run after being reused, is
// deleted and restaged by the guarded retry. Non-reusable runs stage into
// a private SpillSession directory.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "climate/ensemble.h"
#include "core/suite.h"
#include "ncio/chunkstore.h"
#include "util/memory.h"

namespace cesm::core {

struct OocConfig {
  /// Target elements per chunk (core::chunk_partition). Must equal
  /// the in-core leg's SuiteConfig::chunk_elems for parity; >= 1024.
  std::size_t chunk_elems = 1 << 16;
  /// Directory for CNK1 spill files (must exist and be writable).
  std::string spill_dir = "/tmp";
  /// Logical working-set cap in bytes; 0 means "no cap". Callers
  /// usually seed this from util::memory_budget_bytes() (CESM_MEM_MB).
  std::uint64_t memory_budget_bytes = 0;
  /// Concurrent variable jobs in run_suite_streaming: 0 = auto (one job
  /// per scheduler worker), 1 = serial, N = exactly N jobs. All jobs
  /// reserve their working sets on one shared MemoryBudget.
  std::size_t parallel_variables = 0;
  /// Content-address spill files on (EnsembleSpec, VariableSpec,
  /// chunk partition) and keep them after the run: a later run reuses a
  /// staged spill (after checksum validation) instead of re-synthesizing.
  bool reuse_spill = false;
  /// Byte budget for the reusable spill store in spill_dir (0 = no
  /// limit). After each variable, oldest spills are evicted until the
  /// store fits — same mtime-ordered policy as the DiskCache tier.
  std::uint64_t spill_budget_bytes = 0;
  /// Caller-owned shared admission budget for run_suite_streaming; when
  /// null the suite builds its own from memory_budget_bytes. Exposed so
  /// tests can observe peak/waits across a run.
  util::MemoryBudget* shared_budget = nullptr;
  /// Everything else (thresholds, member picks, bias policy, retries).
  /// `suite.chunk_elems` is ignored here: the streaming leg always uses
  /// OocConfig::chunk_elems.
  SuiteConfig suite;
};

/// The working set of one streaming variable run at the current scheduler
/// width, and the one definition of it: the per-point statistic planes,
/// the per-member moment slots, and per lane the verify phase's member
/// task, the widest of any phase: its read buffer, the decoded chunk,
/// each swept codec's stream staging and a codec round-trip allowance.
/// run_variable_streaming reserves exactly this before it stages
/// anything. It counts the leg's own arrays and buffers, not allocator or
/// I/O overheads or the generator's state (docs/ooc.md, "What the cap
/// does not cover").
std::uint64_t ooc_working_set_bytes(const climate::EnsembleGenerator& ensemble,
                                    const climate::VariableSpec& spec,
                                    std::size_t chunk_elems);

/// Content hash of everything that determines a staged spill's bytes:
/// the EnsembleCache key schema for (spec, var) plus the chunk partition
/// and the CNK1 format version.
std::uint64_t spill_key(const climate::EnsembleSpec& spec,
                        const climate::VariableSpec& var, std::size_t chunk_elems);

/// Where a reusable spill for `key` lives: "<dir>/<var>-<16-hex-key>.cnk1".
std::string spill_path(const std::string& dir, const std::string& variable,
                       std::uint64_t key);

/// Unique per-run spill subdirectory ("<base>/cesm-spill-<pid>-<token>"),
/// created on construction and removed recursively on destruction. The
/// fix for concurrent processes sharing one spill_dir: per-(member,
/// variable) filenames only ever collide inside a single run's private
/// directory, and unwinding (including a signal drain) cleans the whole
/// directory up.
class SpillSession {
 public:
  explicit SpillSession(const std::string& base_dir);
  ~SpillSession();

  SpillSession(const SpillSession&) = delete;
  SpillSession& operator=(const SpillSession&) = delete;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// Synthesize one variable's full ensemble into a CNK1 store at `path`
/// (members in parallel, chunk-granular writes; never more than one chunk
/// of one member resident per worker). The chunk partition is
/// chunk_partition for `chunk_elems`. Synthesis runs under an
/// "ensemble.synthesize" span, so a trace with zero such spans proves a
/// warm run never regenerated data.
void stage_variable_at(const climate::EnsembleGenerator& ensemble,
                       const climate::VariableSpec& spec, const std::string& path,
                       std::size_t chunk_elems);

/// run_variable over a CNK1 spill instead of resident members: stage (or
/// reuse) the spill, build StreamingStats, and run the same verify_variable
/// (suite.h) on the store's chunk source — same seeds, same thresholds,
/// same codecs, bit-identical VariableResult to an
/// in-core run with SuiteConfig::chunk_elems == config.chunk_elems, under
/// a working set of chunks instead of members. Its phases run under the
/// "ooc.stage" and "ooc.stats" spans (the rest is verification).
///
/// Before it stages anything, the variable reserves its whole
/// ooc_working_set_bytes once: on `shared`, a suite-level admission
/// budget, when non-null (parking under contention, so the shared cap
/// stays a hard bound no matter how many variables are in flight),
/// otherwise on its own budget of config.memory_budget_bytes. A working
/// set above the cap throws there, naming "ooc.variable_working_set".
VariableResult run_variable_streaming(const climate::EnsembleGenerator& ensemble,
                                      const climate::VariableSpec& spec,
                                      const OocConfig& config,
                                      util::MemoryBudget* shared = nullptr);

/// run_suite over CNK1 spills: variables stream as concurrent jobs
/// (config.parallel_variables) under one shared admission budget, with
/// the same guarded retry/containment policy as run_suite. Results land
/// in catalog order regardless of job count — the CSV is byte-identical
/// to a serial run.
SuiteResults run_suite_streaming(const climate::EnsembleGenerator& ensemble,
                                 const OocConfig& config,
                                 std::vector<std::string> variables = {});

}  // namespace cesm::core
