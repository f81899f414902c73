// Bit-exact pin of the unchunked in-core leg (SuiteConfig::chunk_elems ==
// 0, bias on). SuiteGolden compares at 1e-5 and SuiteDeterminism compares
// the code with itself, so neither would notice a last-bit change in a
// verdict, a CR or a bias fit. This test hashes the wire encoding of every
// VariableResult of the golden quick suite and compares the hashes with
// constants recorded before the verification pipeline was unified.
//
// Only an intended metric change may update the constants; the test prints
// the new values on failure.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "climate/ensemble.h"
#include "core/suite.h"
#include "serve/protocol.h"
#include "util/cache.h"

namespace cesm::core {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(SuitePin, UnchunkedInCoreResultsAreBitExact) {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{12, 18, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  const climate::EnsembleGenerator ensemble(spec);

  SuiteConfig cfg;
  cfg.test_member_count = 2;
  cfg.grib_max_extra_digits = 3;
  cfg.chunk_elems = 0;
  cfg.run_bias = true;
  const SuiteResults results = run_suite(ensemble, cfg, {"U", "FSDSC", "CCN3"});

  const std::vector<std::string> expected = {
      "U:24f583b40f652455",
      "FSDSC:94ad6ee16585ae90",
      "CCN3:498109c6ef54191d",
  };
  std::vector<std::string> actual;
  for (const VariableResult& v : results.variables) {
    const Bytes wire = serve::serialize_variable_result(v);
    actual.push_back(v.variable + ":" + hex64(util::fnv1a64(wire)));
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace cesm::core
