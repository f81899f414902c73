#include "compress/variants.h"

#include <charconv>
#include <iterator>

#include "compress/apax/apax.h"
#include "compress/deflate/deflate.h"
#include "compress/fpz/fpz.h"
#include "compress/grib2/grib2.h"
#include "compress/isabela/isabela.h"
#include "compress/special.h"

namespace cesm::comp {

namespace {

CodecPtr grib2(int decimal_scale, std::optional<float> fill) {
  return std::make_shared<Grib2Codec>(decimal_scale, fill);
}
template <int Rate>
CodecPtr apax(int, std::optional<float>) {
  return std::make_shared<ApaxCodec>(ApaxCodec::fixed_rate(Rate));
}
template <unsigned Bits>
CodecPtr fpzip(int, std::optional<float>) {
  return std::make_shared<FpzCodec>(Bits);
}
template <double Percent>
CodecPtr isabela(int, std::optional<float>) {
  return std::make_shared<IsabelaCodec>(Percent);
}
CodecPtr deflate(int, std::optional<float>) { return std::make_shared<DeflateCodec>(); }

constexpr VariantRow kCatalog[] = {
    {"GRIB2", "GRIB2", false, grib2},
    {"APAX-2", "APAX", false, apax<2>},
    {"APAX-4", "APAX", false, apax<4>},
    {"APAX-5", "APAX", false, apax<5>},
    {"fpzip-24", "fpzip", false, fpzip<24>},
    {"fpzip-16", "fpzip", false, fpzip<16>},
    {"ISA-0.1", "ISABELA", false, isabela<0.1>},
    {"ISA-0.5", "ISABELA", false, isabela<0.5>},
    {"ISA-1.0", "ISABELA", false, isabela<1.0>},
    {"fpzip-32", "fpzip", true, fpzip<32>},
    {"NetCDF-4", "NetCDF-4", true, deflate},
};

/// Wrap `codec` so fill values survive the round trip when the codec has
/// no native special-value support; returns `codec` unchanged otherwise.
CodecPtr with_fill_handling(CodecPtr codec, std::optional<float> fill_value) {
  if (!fill_value || codec->capabilities().special_values) return codec;
  return std::make_shared<SpecialValueCodec>(std::move(codec), *fill_value);
}

const VariantRow* find_row(std::string_view name) {
  for (const VariantRow& row : kCatalog) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

}  // namespace

CodecPtr VariantRow::build(int grib_decimal_scale, std::optional<float> fill) const {
  return traced(with_fill_handling(make(grib_decimal_scale, fill), fill));
}

std::span<const VariantRow> variant_catalog() { return kCatalog; }

const VariantRow& variant_row(std::string_view name) {
  const VariantRow* row = find_row(name);
  if (row == nullptr) throw InvalidArgument("unknown codec variant: " + std::string(name));
  return *row;
}

std::vector<CodecPtr> paper_variants(int grib_decimal_scale,
                                     std::optional<float> fill_value) {
  std::vector<CodecPtr> v;
  for (const VariantRow& row : kCatalog) {
    if (!row.lossless) v.push_back(row.build(grib_decimal_scale, fill_value));
  }
  return v;
}

std::vector<std::string> paper_variant_names() {
  std::vector<std::string> names;
  for (const VariantRow& row : kCatalog) {
    if (!row.lossless) names.emplace_back(row.name);
  }
  return names;
}

std::vector<const VariantRow*> hybrid_candidates(std::string_view family) {
  std::vector<const VariantRow*> rows;
  for (auto it = std::rbegin(kCatalog); it != std::rend(kCatalog); ++it) {
    if (it->family == family && !it->lossless) rows.push_back(&*it);
  }
  return rows;
}

const VariantRow& lossless_stand_in(std::string_view family) {
  bool known = false;
  for (const VariantRow& row : kCatalog) {
    if (row.family != family) continue;
    if (row.lossless) return row;
    known = true;
  }
  if (!known) throw InvalidArgument("unknown codec family: " + std::string(family));
  return variant_row("NetCDF-4");
}

CodecPtr make_variant(const std::string& name, std::optional<float> fill_value) {
  if (name == "GRIB2") {
    throw InvalidArgument("GRIB2 needs a decimal scale: GRIB2:D");
  }
  if (const VariantRow* row = find_row(name == "NC" ? "NetCDF-4" : name)) {
    return row->build(0, fill_value);
  }
  const char* end = name.data() + name.size();
  if (name.rfind("GRIB2:", 0) == 0) {
    int d = 0;
    auto [p, ec] = std::from_chars(name.data() + 6, end, d);
    if (ec != std::errc{} || p != end) throw InvalidArgument("bad GRIB2 variant: " + name);
    return variant_row("GRIB2").build(d, fill_value);
  }
  if (name.rfind("APAX-q", 0) == 0) {
    unsigned bits = 0;
    auto [p, ec] = std::from_chars(name.data() + 6, end, bits);
    if (ec == std::errc{} && p == end) {
      return traced(with_fill_handling(
          std::make_shared<ApaxCodec>(ApaxCodec::fixed_quality(bits)), fill_value));
    }
  }
  if (name.rfind("APAX-", 0) == 0) {
    double ratio = 0.0;
    try {
      ratio = std::stod(name.substr(5));
    } catch (...) {
      throw InvalidArgument("bad APAX variant: " + name);
    }
    return traced(with_fill_handling(
        std::make_shared<ApaxCodec>(ApaxCodec::fixed_rate(ratio)), fill_value));
  }
  throw InvalidArgument("unknown codec variant: " + name);
}

}  // namespace cesm::comp
