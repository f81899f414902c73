// Codec-backed variable storage: lossy compression integrated into the
// I/O layer — the paper's stated end goal for CESM.

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.h"
#include "ncio/dataset.h"
#include "util/rng.h"

namespace cesm::ncio {
namespace {

Dataset with_codec_variable(const std::string& codec_spec,
                            std::optional<double> fill = std::nullopt) {
  Dataset ds;
  const auto lev = ds.add_dimension("lev", 4);
  const auto ncol = ds.add_dimension("ncol", 600);
  Variable v;
  v.name = "T";
  v.dim_ids = {lev, ncol};
  v.storage = Storage::kCodec;
  v.codec_spec = codec_spec;
  v.fill_value = fill;
  v.f32.resize(2400);
  Pcg32 rng(71);
  for (std::size_t i = 0; i < v.f32.size(); ++i) {
    v.f32[i] = static_cast<float>(250.0 + 20.0 * std::sin(i * 0.01) + rng.uniform(-0.5, 0.5));
  }
  if (fill) {
    for (std::size_t i = 0; i < v.f32.size(); i += 13) {
      v.f32[i] = static_cast<float>(*fill);
    }
  }
  ds.add_variable(std::move(v));
  return ds;
}

TEST(CodecStorage, LossyCodecRoundTripsWithinQuality) {
  const Dataset ds = with_codec_variable("fpzip-24");
  const std::vector<float> original = ds.find_variable("T")->f32;
  const Dataset back = Dataset::deserialize(ds.serialize());
  const Variable* t = back.find_variable("T");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->storage, Storage::kCodec);
  EXPECT_EQ(t->codec_spec, "fpzip-24");
  const core::ErrorMetrics m = core::compare_fields(original, t->f32);
  EXPECT_GT(m.pearson, 0.999999);
  EXPECT_LT(m.nrmse, 1e-4);
}

TEST(CodecStorage, LosslessCodecIsExact) {
  const Dataset ds = with_codec_variable("fpzip-32");
  const std::vector<float> original = ds.find_variable("T")->f32;
  const Dataset back = Dataset::deserialize(ds.serialize());
  EXPECT_EQ(back.find_variable("T")->f32, original);
}

TEST(CodecStorage, CompressionActuallyShrinksPayload) {
  const Dataset ds = with_codec_variable("APAX-4");
  EXPECT_NEAR(static_cast<double>(ds.stored_payload_bytes("T")) / (2400.0 * 4.0), 0.25,
              0.05);
}

TEST(CodecStorage, FillValuesSurviveLossyStorage) {
  const Dataset ds = with_codec_variable("fpzip-16", 1.0e35);
  const Dataset back = Dataset::deserialize(ds.serialize());
  const Variable* t = back.find_variable("T");
  for (std::size_t i = 0; i < t->f32.size(); i += 13) {
    ASSERT_EQ(t->f32[i], 1.0e35f);
  }
}

TEST(CodecStorage, EveryPaperVariantWorksAsStorage) {
  for (const char* spec : {"fpzip-16", "fpzip-24", "APAX-2", "APAX-5", "ISA-0.5",
                           "GRIB2:2", "NetCDF-4"}) {
    const Dataset ds = with_codec_variable(spec);
    const Dataset back = Dataset::deserialize(ds.serialize());
    EXPECT_EQ(back.find_variable("T")->f32.size(), 2400u) << spec;
  }
}

TEST(CodecStorage, MissingSpecIsRejected) {
  Dataset ds;
  const auto ncol = ds.add_dimension("ncol", 10);
  Variable v;
  v.name = "X";
  v.dim_ids = {ncol};
  v.storage = Storage::kCodec;  // codec_spec left empty
  v.f32.assign(10, 1.0f);
  ds.add_variable(std::move(v));
  EXPECT_THROW(ds.serialize(), InvalidArgument);
}

TEST(CodecStorage, UnknownSpecThrowsOnSerialize) {
  Dataset ds = with_codec_variable("fpzip-24");
  ds.find_variable("T")->codec_spec = "no-such-codec";
  EXPECT_THROW(ds.serialize(), InvalidArgument);
}

}  // namespace
}  // namespace cesm::ncio
