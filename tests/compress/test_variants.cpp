#include "compress/variants.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace cesm::comp {
namespace {

TEST(Variants, PaperVariantsInTableOrder) {
  const auto v = paper_variants(4);
  ASSERT_EQ(v.size(), 9u);
  EXPECT_EQ(v[0]->name(), "GRIB2");
  EXPECT_EQ(v[1]->name(), "APAX-2");
  EXPECT_EQ(v[2]->name(), "APAX-4");
  EXPECT_EQ(v[3]->name(), "APAX-5");
  EXPECT_EQ(v[4]->name(), "fpzip-24");
  EXPECT_EQ(v[5]->name(), "fpzip-16");
  EXPECT_EQ(v[6]->name(), "ISA-0.1");
  EXPECT_EQ(v[7]->name(), "ISA-0.5");
  EXPECT_EQ(v[8]->name(), "ISA-1.0");
}

TEST(Variants, Table1CapabilityMatrix) {
  // Reproduces paper Table 1 row by row.
  const auto v = paper_variants(4);
  const Capabilities grib = v[0]->capabilities();
  EXPECT_FALSE(grib.lossless_mode);
  EXPECT_TRUE(grib.special_values);
  EXPECT_TRUE(grib.freely_available);
  EXPECT_FALSE(grib.fixed_quality);
  EXPECT_FALSE(grib.fixed_rate);
  EXPECT_FALSE(grib.handles_64bit);

  const Capabilities apax = v[1]->capabilities();
  EXPECT_TRUE(apax.lossless_mode);
  EXPECT_FALSE(apax.freely_available);
  EXPECT_TRUE(apax.fixed_quality);
  EXPECT_TRUE(apax.fixed_rate);
  EXPECT_TRUE(apax.handles_64bit);

  const Capabilities fpz = v[4]->capabilities();
  EXPECT_TRUE(fpz.lossless_mode);
  EXPECT_FALSE(fpz.special_values);
  EXPECT_TRUE(fpz.freely_available);
  EXPECT_FALSE(fpz.fixed_quality);
  EXPECT_FALSE(fpz.fixed_rate);
  EXPECT_TRUE(fpz.handles_64bit);

  const Capabilities isa = v[6]->capabilities();
  EXPECT_FALSE(isa.lossless_mode);
  EXPECT_FALSE(isa.special_values);
  EXPECT_TRUE(isa.freely_available);
  EXPECT_TRUE(isa.handles_64bit);
}

TEST(Variants, FillHandlingWrapsOnlyWhereNeeded) {
  // GRIB2 has native support: no wrapper; fpzip does not: wrapper adds it.
  const auto with_fill = paper_variants(4, 1.0e35f);
  for (const auto& codec : with_fill) {
    EXPECT_TRUE(codec->capabilities().special_values) << codec->name();
  }
}

TEST(MakeVariant, ResolvesAllTableNames) {
  for (const char* name :
       {"NetCDF-4", "fpzip-16", "fpzip-24", "fpzip-32", "ISA-0.1", "ISA-0.5", "ISA-1.0",
        "APAX-2", "APAX-4", "APAX-5", "APAX-q12", "GRIB2:4"}) {
    const CodecPtr codec = make_variant(name);
    ASSERT_NE(codec, nullptr) << name;
  }
  EXPECT_EQ(make_variant("GRIB2:4")->name(), "GRIB2");
  EXPECT_EQ(make_variant("NC")->name(), "NetCDF-4");
}

TEST(MakeVariant, RejectsUnknownNames) {
  EXPECT_THROW(make_variant("zfp"), InvalidArgument);
  EXPECT_THROW(make_variant("GRIB2"), InvalidArgument);  // needs "GRIB2:D"
  for (const char* deleted : {"FPC", "FPC-12", "ISOBAR", "MAFISC"}) {
    EXPECT_THROW(make_variant(deleted), InvalidArgument) << deleted;
  }
  EXPECT_THROW(make_variant("GRIB2:x"), InvalidArgument);
  EXPECT_THROW(make_variant(""), InvalidArgument);
}

TEST(VariantCatalog, EveryRowMatchesItsCodec) {
  const std::optional<float> fill = 1.0e35f;
  for (const VariantRow& row : variant_catalog()) {
    SCOPED_TRACE(std::string(row.name));
    const CodecPtr codec = row.build(4, std::nullopt);
    EXPECT_EQ(codec->name(), row.name);
    EXPECT_EQ(codec->family(), row.family);
    EXPECT_EQ(codec->is_lossless(), row.lossless);

    // GRIB2 is looked up with its decimal scale; every other row by name.
    const std::string spec = row.name == "GRIB2" ? "GRIB2:4" : std::string(row.name);
    EXPECT_EQ(make_variant(spec)->name(), row.name);

    EXPECT_TRUE(row.build(4, fill)->capabilities().special_values);
    EXPECT_TRUE(make_variant(spec, fill)->capabilities().special_values);

    const VariantRow& stand_in = lossless_stand_in(row.family);
    EXPECT_TRUE(stand_in.lossless);
    EXPECT_TRUE(stand_in.family == row.family || stand_in.name == "NetCDF-4");
  }
  EXPECT_THROW(lossless_stand_in("zstd"), InvalidArgument);
}

TEST(VariantCatalog, HybridCandidatesMostCompressiveFirst) {
  const auto names = [](std::string_view family) {
    std::vector<std::string_view> out;
    for (const VariantRow* row : hybrid_candidates(family)) out.push_back(row->name);
    return out;
  };
  using Names = std::vector<std::string_view>;
  EXPECT_EQ(names("GRIB2"), (Names{"GRIB2"}));
  EXPECT_EQ(names("APAX"), (Names{"APAX-5", "APAX-4", "APAX-2"}));
  EXPECT_EQ(names("fpzip"), (Names{"fpzip-16", "fpzip-24"}));
  EXPECT_EQ(names("ISABELA"), (Names{"ISA-1.0", "ISA-0.5", "ISA-0.1"}));
  EXPECT_TRUE(names("NetCDF-4").empty());

  EXPECT_EQ(lossless_stand_in("fpzip").name, "fpzip-32");
  for (const char* family : {"GRIB2", "APAX", "ISABELA", "NetCDF-4"}) {
    EXPECT_EQ(lossless_stand_in(family).name, "NetCDF-4") << family;
  }
}

}  // namespace
}  // namespace cesm::comp
