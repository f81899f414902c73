// Bit-exact pins of the in-core leg, unchunked (SuiteConfig::chunk_elems
// == 0) and chunked (chunk_elems == 1024), bias on. SuiteGolden compares
// at 1e-5 and SuiteDeterminism compares the code with itself, so neither
// would notice a last-bit change in a verdict, a CR or a bias fit. These
// tests hash the wire encoding of every VariableResult of the golden quick
// suite and compare the hashes with recorded constants. They were last
// re-recorded when the residual coder's raw bits moved into a side buffer,
// a stream change that moves CRs only: with every CR field zeroed, the
// hashes of both legs were equal before and after it.
//
// Only an intended metric change may update the constants; the test prints
// the new values on failure.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
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

climate::EnsembleSpec pin_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{12, 18, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  return spec;
}

SuiteConfig pin_config(std::size_t chunk_elems) {
  SuiteConfig cfg;
  cfg.test_member_count = 2;
  cfg.grib_max_extra_digits = 3;
  cfg.chunk_elems = chunk_elems;
  cfg.run_bias = true;
  return cfg;
}

void strip_suffix(std::string& name, std::string_view suffix) {
  if (name.ends_with(suffix)) name.resize(name.size() - suffix.size());
}

TEST(SuitePin, UnchunkedInCoreResultsAreBitExact) {
  const climate::EnsembleGenerator ensemble(pin_spec());
  const SuiteResults results = run_suite(ensemble, pin_config(0), {"U", "FSDSC", "CCN3"});

  const std::vector<std::string> expected = {
      "U:aa355652d4292f70",
      "FSDSC:9c74ed71ead1563f",
      "CCN3:3b86393069c61f01",
  };
  std::vector<std::string> actual;
  for (const VariableResult& v : results.variables) {
    const Bytes wire = serve::serialize_variable_result(v);
    actual.push_back(v.variable + ":" + hex64(util::fnv1a64(wire)));
  }
  EXPECT_EQ(actual, expected);
}

// Every chunked CR, verdict and bias fit. Verdict and fallback names are
// compared without a "+chunked" suffix, which older builds appended to
// the names of chunked runs; the hashes were recorded on such a build.
TEST(SuitePin, ChunkedInCoreResultsAreBitExact) {
  const climate::EnsembleGenerator ensemble(pin_spec());
  const SuiteResults results = run_suite(ensemble, pin_config(1024), {"U", "FSDSC", "CCN3"});

  const std::vector<std::string> expected = {
      "U:a14c1920e9519c37",
      "FSDSC:8a4bd4eac6b88e73",
      "CCN3:62899da768d19ef8",
  };
  std::vector<std::string> actual;
  for (VariableResult v : results.variables) {
    for (VariableVerdict& verdict : v.verdicts) {
      strip_suffix(verdict.codec, "+chunked");
      strip_suffix(verdict.fallback_codec, "+chunked");
    }
    const Bytes wire = serve::serialize_variable_result(v);
    actual.push_back(v.variable + ":" + hex64(util::fnv1a64(wire)));
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace cesm::core
