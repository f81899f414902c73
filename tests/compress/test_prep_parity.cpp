// The variant sweep's load-bearing contract (compress/codec.h, core/pvt.h):
// a plan-driven encode is byte-identical to the direct encode — same
// stream bytes, same thrown input-validation errors — for every paper
// variant, over the hostile-field generator zoo. The sweep may share one
// chunk's plan across sibling variants only because this holds; any
// divergence here is a correctness bug, not a tuning matter.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/grib2/grib2.h"
#include "compress/isabela/isabela.h"
#include "compress/variants.h"
#include "support/generators.h"
#include "util/error.h"

namespace cesm {
namespace {

/// Plan sharing as the sweep does it over one chunk: the first codec with
/// a given prep_key() builds the plan, every later one reuses it, and a
/// codec without a key (or without a plan) encodes directly.
struct SharedPlans {
  std::map<std::string, comp::PrepPlanPtr> plans;
  std::size_t built = 0;
  std::size_t reused = 0;

  Bytes encode(const comp::Codec& codec, std::span<const float> data,
               const comp::Shape& shape) {
    const std::string key = codec.prep_key();
    if (key.empty()) return codec.encode(data, shape);
    comp::PrepPlanPtr& plan = plans[key];
    if (plan != nullptr) {
      ++reused;
    } else if ((plan = codec.build_prep(data, shape)) != nullptr) {
      ++built;
    } else {
      return codec.encode(data, shape);
    }
    return codec.encode_with_prep(*plan, data, shape);
  }
};

struct EncodeOutcome {
  Bytes stream;
  bool threw = false;
  bool invalid_argument = false;
};

EncodeOutcome direct_encode(const comp::Codec& codec, std::span<const float> data,
                            const comp::Shape& shape) {
  EncodeOutcome out;
  try {
    out.stream = codec.encode(data, shape);
  } catch (const InvalidArgument&) {
    out.threw = out.invalid_argument = true;
  } catch (const Error&) {
    out.threw = true;
  }
  return out;
}

EncodeOutcome planned_encode(SharedPlans& plans, const comp::Codec& codec,
                             std::span<const float> data, const comp::Shape& shape) {
  EncodeOutcome out;
  try {
    out.stream = plans.encode(codec, data, shape);
  } catch (const InvalidArgument&) {
    out.threw = out.invalid_argument = true;
  } catch (const Error&) {
    out.threw = true;
  }
  return out;
}

/// Plan path == direct path: same success/throw outcome, same error class,
/// same bytes — both on the build encode and on a reusing encode.
void expect_parity(SharedPlans& plans, const comp::Codec& codec, std::span<const float> data,
                   const comp::Shape& shape) {
  SCOPED_TRACE("codec=" + codec.name());
  const EncodeOutcome direct = direct_encode(codec, data, shape);
  const EncodeOutcome first = planned_encode(plans, codec, data, shape);
  ASSERT_EQ(direct.threw, first.threw);
  EXPECT_EQ(direct.invalid_argument, first.invalid_argument);
  if (direct.threw) return;
  ASSERT_EQ(direct.stream.size(), first.stream.size());
  EXPECT_TRUE(direct.stream == first.stream);
  // Second pass reuses the plan the first one built or found.
  const EncodeOutcome again = planned_encode(plans, codec, data, shape);
  ASSERT_FALSE(again.threw);
  EXPECT_TRUE(direct.stream == again.stream);
}

struct NamedField {
  std::string label;
  std::vector<float> data;
};

std::vector<NamedField> hostile_fields(std::size_t n, std::uint64_t seed) {
  std::vector<NamedField> fields;
  fields.push_back({"smooth", testgen::smooth_field(n, seed)});
  fields.push_back({"noisy", testgen::noisy_field(n, hash_combine(seed, 1))});
  fields.push_back({"lognormal", testgen::lognormal_field(n, hash_combine(seed, 2))});
  fields.push_back({"constant", testgen::constant_field(n)});
  fields.push_back({"tiny", testgen::tiny_field(n, hash_combine(seed, 3))});
  fields.push_back({"denormal", testgen::denormal_field(n, hash_combine(seed, 4))});
  return fields;
}

constexpr float kFill = 1.0e20f;
constexpr std::uint64_t kSeed = 0x9e37c0deull;

TEST(PrepParity, EveryPaperVariantOverHostileFieldsAndShapes) {
  SCOPED_TRACE(testgen::seed_banner(kSeed));
  constexpr std::size_t n = 6144;
  const comp::Shape shapes[] = {comp::Shape::d1(n), comp::Shape::d2(48, 128),
                                comp::Shape::d3(4, 24, 64)};
  for (const std::optional<float> fill :
       {std::optional<float>{}, std::optional<float>{kFill}}) {
    const std::vector<comp::CodecPtr> variants = comp::paper_variants(3, fill);
    for (const NamedField& field : hostile_fields(n, kSeed)) {
      std::vector<float> data = field.data;
      if (fill.has_value()) {
        testgen::apply_fill(data, testgen::fill_mask(n, hash_combine(kSeed, 9)), *fill);
      }
      for (const comp::Shape& shape : shapes) {
        SCOPED_TRACE(field.label + " rank=" + std::to_string(shape.rank()) +
                     (fill ? " fill" : ""));
        // Fresh plans per (field, shape): parity must hold on the very
        // first (plan-building) encode, not only on reuse.
        SharedPlans plans;
        for (const comp::CodecPtr& codec : variants) {
          expect_parity(plans, *codec, data, shape);
        }
      }
    }
  }
}

TEST(PrepParity, NonFiniteInputThrowParityForGrib2AndIsabela) {
  // GRIB2 rejects NaN/inf at the range scan, ISABELA before its window
  // sort: the planned path must reject with the same error class and
  // leave the shared plans usable.
  SCOPED_TRACE(testgen::seed_banner(kSeed));
  std::vector<float> data = testgen::smooth_field(4096, kSeed);
  testgen::salt_specials(data, hash_combine(kSeed, 5));
  const comp::Grib2Codec grib(4);
  const comp::IsabelaCodec isabela(0.5);
  for (const comp::Codec* codec : {static_cast<const comp::Codec*>(&grib),
                                   static_cast<const comp::Codec*>(&isabela)}) {
    SCOPED_TRACE(codec->name());
    SharedPlans plans;
    const EncodeOutcome direct = direct_encode(*codec, data, comp::Shape::d2(32, 128));
    const EncodeOutcome planned = planned_encode(plans, *codec, data, comp::Shape::d2(32, 128));
    ASSERT_TRUE(direct.threw);
    EXPECT_TRUE(direct.invalid_argument);
    EXPECT_EQ(direct.threw, planned.threw);
    EXPECT_EQ(direct.invalid_argument, planned.invalid_argument);
    // The plans stay healthy for clean inputs afterwards.
    const std::vector<float> clean = testgen::smooth_field(4096, kSeed);
    expect_parity(plans, *codec, clean, comp::Shape::d2(32, 128));
  }
}

TEST(PrepParity, PlanBuiltByOneVariantIsReusedByItsSiblings) {
  SCOPED_TRACE(testgen::seed_banner(kSeed));
  std::vector<float> data = testgen::smooth_field(8192, kSeed);
  const comp::Shape shape = comp::Shape::d2(64, 128);
  {
    // ISABELA: the 0.1% variant builds the sort + spline plan, the 0.5%
    // and 1.0% variants reuse it — their eps only enters the correction
    // stage.
    SharedPlans plans;
    expect_parity(plans, comp::IsabelaCodec(0.1), data, shape);
    const std::size_t built = plans.built;
    expect_parity(plans, comp::IsabelaCodec(0.5), data, shape);
    expect_parity(plans, comp::IsabelaCodec(1.0), data, shape);
    EXPECT_EQ(plans.built, built);
    EXPECT_GE(plans.reused, 4u);
  }
  {
    // With a fill value, the special-value wrapper's patch plan serves
    // APAX-2/4/5 and fpzip-24/16 (catalog rows 1-5), whose inner codecs
    // have no plan stage of their own.
    testgen::apply_fill(data, testgen::fill_mask(data.size(), hash_combine(kSeed, 9)), kFill);
    const std::vector<comp::CodecPtr> variants = comp::paper_variants(3, kFill);
    SharedPlans plans;
    expect_parity(plans, *variants[1], data, shape);
    const std::size_t built = plans.built;
    for (std::size_t v = 2; v <= 5; ++v) expect_parity(plans, *variants[v], data, shape);
    EXPECT_EQ(plans.built, built);
    EXPECT_GE(plans.reused, 8u);
  }
}

TEST(PrepParity, TracedAndBareCodecsShareOnePlan) {
  // The catalog wraps every variant in TracedCodec; a traced variant and
  // its bare codec must land on the same plan key.
  const std::vector<float> data = testgen::smooth_field(4096, kSeed);
  const comp::Shape shape = comp::Shape::d2(32, 128);
  SharedPlans plans;
  const comp::IsabelaCodec bare(0.5);
  const comp::CodecPtr traced = comp::traced(std::make_shared<comp::IsabelaCodec>(0.5));
  EXPECT_EQ(bare.prep_key(), traced->prep_key());
  expect_parity(plans, bare, data, shape);
  const std::size_t built = plans.built;
  expect_parity(plans, *traced, data, shape);
  EXPECT_EQ(plans.built, built);
  EXPECT_GE(plans.reused, 2u);
}

TEST(PrepParity, UnplannableCodecsEncodeDirectly) {
  // Only ISABELA and the special-value wrapper have a plan stage: GRIB2,
  // fpzip, APAX and deflate encode directly, and a plan-driven encode of
  // them is the direct encode.
  const std::vector<float> data = testgen::noisy_field(2048, kSeed);
  const comp::Shape shape = comp::Shape::d1(2048);
  for (const char* name : {"GRIB2:3", "fpzip-24", "fpzip-16", "APAX-4", "NetCDF-4"}) {
    SCOPED_TRACE(name);
    const comp::CodecPtr codec = comp::make_variant(name);
    EXPECT_TRUE(codec->prep_key().empty());
    EXPECT_EQ(codec->build_prep(data, shape), nullptr);
    SharedPlans plans;
    expect_parity(plans, *codec, data, shape);
    EXPECT_EQ(plans.built, 0u);
  }
}

}  // namespace
}  // namespace cesm
