#pragma once
// The variant catalog: one table row per codec variant the suite, the §5.4
// hybrids and the benches name. Rows, in table order:
//
//   GRIB2            — per-variable decimal scale (see Grib2Codec)
//   APAX-2/4/5       — fixed compression rates
//   fpzip-24/16      — bits of precision
//   ISA-0.1/0.5/1.0  — per-point relative error (%), window 1024
//   fpzip-32         — fpzip's lossless mode
//   NetCDF-4         — lossless deflate baseline
//
// The first nine rows are the paper's lossy variants in the order of
// Figure 1 and Tables 3-6. Every list the library needs is a view of the
// table's four columns:
//   * paper_variants(): the lossy rows, in table order;
//   * hybrid_candidates(family): a family's lossy rows, most compressive
//     first, which is the reverse of table order (§5.4);
//   * lossless_stand_in(family): the family's own lossless row, or
//     NetCDF-4 when it has none (paper: "because ISABELA and GRIB2 cannot
//     be lossless, we use NetCDF4 compression for any variable that
//     requires lossless treatment"; Table 8 does the same for APAX).

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compress/codec.h"

namespace cesm::comp {

struct VariantRow {
  std::string_view name;    ///< table name, equal to the codec's name()
  std::string_view family;  ///< equal to the codec's family()
  bool lossless = false;    ///< equal to the codec's is_lossless()
  /// The bare codec. Only GRIB2 reads the decimal scale or takes the fill
  /// value natively; build() wraps every codec without native
  /// special-value support in a SpecialValueCodec when a fill is given.
  CodecPtr (*make)(int grib_decimal_scale, std::optional<float> fill) = nullptr;

  /// make(), with fill handling where needed, traced.
  [[nodiscard]] CodecPtr build(int grib_decimal_scale, std::optional<float> fill) const;
};

/// The whole table, in table order.
std::span<const VariantRow> variant_catalog();

/// The row named `name` (a table name, e.g. "GRIB2"); throws
/// InvalidArgument for a name no row has.
const VariantRow& variant_row(std::string_view name);

/// The nine lossy variants of Figure 1 / Tables 3-6, in table order.
std::vector<CodecPtr> paper_variants(int grib_decimal_scale,
                                     std::optional<float> fill_value = std::nullopt);

/// Table names of paper_variants(), in the same order.
std::vector<std::string> paper_variant_names();

/// A family's lossy rows, most compressive first; empty for a family
/// without any (NetCDF-4).
std::vector<const VariantRow*> hybrid_candidates(std::string_view family);

/// The lossless row standing in for `family`: its own lossless row, else
/// NetCDF-4. Throws InvalidArgument for a family no row has.
const VariantRow& lossless_stand_in(std::string_view family);

/// Look up a variant by table name (e.g. "fpzip-24", "ISA-0.5",
/// "NetCDF-4", or its alias "NC"). GRIB2 requires the decimal scale:
/// "GRIB2:D" with D an integer (e.g. "GRIB2:4"). APAX also takes any rate
/// ("APAX-<ratio>") or mantissa quality ("APAX-q<bits>"). Throws
/// InvalidArgument on unknown names.
CodecPtr make_variant(const std::string& name,
                      std::optional<float> fill_value = std::nullopt);

}  // namespace cesm::comp
