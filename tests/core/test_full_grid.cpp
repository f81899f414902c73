// Out-of-core legs at the paper's grid (48,672 columns x 30 levels, 57
// members), held to the bounded-memory promise with measured numbers.
//
//   StreamingUMatchesInCoreUnderTheBudget   the 3-D variable U streamed
//       chunk by chunk from its spill, then verified in-core on the same
//       chunk partition;
//   FourSurfaceJobsMatchSerialAndInCore     the first four 2-D catalog
//       variables streamed serially, as 4 concurrent jobs under one
//       shared budget, and in-core.
//
// Parity (bitwise and CSV) and the shared budget's zero balance always
// hold. The peak-RSS, logical-peak and speed assertions need a cap, so
// they run only when CESM_MEM_MB is set:
//
//   CESM_MEM_MB=88 ctest --test-dir build -R '^FullGrid\.'
//
// ctest runs each test in its own process, so a peak-RSS reading covers
// one leg of one test from a fresh high-water mark. Where the kernel
// cannot reset the mark the reading can only over-report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/export.h"
#include "core/ooc.h"
#include "core/suite.h"
#include "support/suite_equal.h"
#include "util/memory.h"
#include "util/scheduler.h"
#include "util/stopwatch.h"

namespace cesm::core {
namespace {

constexpr std::size_t kChunkElems = std::size_t{1} << 16;

climate::EnsembleSpec paper_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::paper();
  spec.members = 57;
  return spec;
}

/// Both legs bound themselves to the three PVT tests: the bias sweep
/// round-trips every member through every variant, and its streaming
/// parity is covered bit for bit on a small grid (OocTest).
OocConfig paper_ooc_config() {
  OocConfig cfg;
  cfg.chunk_elems = kChunkElems;
  cfg.spill_dir = ::testing::TempDir();
  cfg.memory_budget_bytes = util::memory_budget_bytes().value_or(0);
  cfg.suite.run_bias = false;
  cfg.suite.test_member_count = 2;
  // The in-core twin must measure through the same chunk partition.
  cfg.suite.chunk_elems = kChunkElems;
  return cfg;
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

TEST(FullGrid, StreamingUMatchesInCoreUnderTheBudget) {
  const climate::EnsembleGenerator ensemble(paper_spec());
  const climate::VariableSpec& var = ensemble.variable("U");
  const OocConfig cfg = paper_ooc_config();

  // Streaming first, so its high-water mark cannot inherit the in-core
  // twin's resident ensemble.
  util::reset_peak_rss();
  SuiteResults streaming;
  streaming.variables.push_back(run_variable_streaming(ensemble, var, cfg));
  derive_variant_names(streaming);
  const std::uint64_t streaming_rss = util::peak_rss_bytes();

  util::reset_peak_rss();
  SuiteResults incore;
  incore.variables.push_back(run_variable(ensemble, var, cfg.suite));
  derive_variant_names(incore);
  const std::uint64_t incore_rss = util::peak_rss_bytes();

  std::printf("full grid U x57: streaming peak RSS %.1f MiB, in-core %.1f MiB, "
              "cap %.1f MiB\n",
              mib(streaming_rss), mib(incore_rss), mib(cfg.memory_budget_bytes));

  testsupport::expect_identical(streaming, incore);
  EXPECT_EQ(suite_results_csv(streaming), suite_results_csv(incore));

  const std::uint64_t cap = cfg.memory_budget_bytes;
  if (cap == 0) return;  // no CESM_MEM_MB: nothing to hold the readings to
  EXPECT_LE(streaming_rss, cap) << "streaming peak RSS exceeds the budget";
  EXPECT_LE(cap * 4, incore_rss) << "the budget is not 4x below the in-core peak";
}

TEST(FullGrid, FourSurfaceJobsMatchSerialAndInCore) {
  const climate::EnsembleGenerator ensemble(paper_spec());
  std::vector<std::string> variables;
  for (const climate::VariableSpec& v : ensemble.catalog()) {
    if (!v.is_3d) variables.push_back(v.name);
    if (variables.size() == 4) break;
  }
  OocConfig cfg = paper_ooc_config();

  util::reset_peak_rss();
  cfg.parallel_variables = 1;
  Stopwatch sw;
  const SuiteResults serial = run_suite_streaming(ensemble, cfg, variables);
  const double serial_seconds = sw.seconds();

  // The 4-job leg runs under a caller-owned shared budget so its
  // admission behaviour (peak, waits, balance afterwards) is observable.
  util::reset_peak_rss();
  util::MemoryBudget shared(cfg.memory_budget_bytes);
  cfg.shared_budget = &shared;
  cfg.parallel_variables = 4;
  sw.restart();
  const SuiteResults parallel = run_suite_streaming(ensemble, cfg, variables);
  const double parallel_seconds = sw.seconds();
  const std::uint64_t parallel_rss = util::peak_rss_bytes();

  // In-core last: its resident ensembles must not inflate the streaming
  // readings through allocator retention.
  const SuiteResults incore = run_suite(ensemble, cfg.suite, variables);

  std::printf("4 surface variables x57: serial %.3f s, 4 jobs %.3f s, 4-job peak "
              "RSS %.1f MiB, logical peak %.1f MiB, %llu admission waits, cap "
              "%.1f MiB\n",
              serial_seconds, parallel_seconds, mib(parallel_rss),
              mib(shared.peak_logical_bytes()),
              static_cast<unsigned long long>(shared.reserve_waits()),
              mib(cfg.memory_budget_bytes));

  ASSERT_EQ(serial.failed_variable_count(), 0u);
  testsupport::expect_identical(serial, parallel);
  testsupport::expect_identical(serial, incore);
  const std::string csv = suite_results_csv(serial);
  EXPECT_EQ(csv, suite_results_csv(parallel));
  EXPECT_EQ(csv, suite_results_csv(incore));
  EXPECT_EQ(shared.charged_bytes(), 0u) << "the shared budget did not balance";

  const std::uint64_t cap = cfg.memory_budget_bytes;
  if (cap == 0) return;
  EXPECT_LE(parallel_rss, cap) << "4-job peak RSS exceeds the budget";
  EXPECT_LE(shared.peak_logical_bytes(), cap) << "the shared budget overdrew its cap";
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t workers = Scheduler::global().thread_count();
  const std::size_t effective = hw == 0 ? workers : std::min(workers, hw);
  if (effective > 1) {
    EXPECT_LT(parallel_seconds, serial_seconds)
        << "4 jobs are not faster than serial streaming on " << effective
        << " effective workers";
  }
}

}  // namespace
}  // namespace cesm::core
