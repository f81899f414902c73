#pragma once
// Common interface for every compression method in the study.
//
// A Codec turns a float field (with known logical shape) into a
// self-describing byte stream and back. Parameters such as fpzip's bits of
// precision or APAX's target rate are constructor state of the concrete
// codec, so one Codec instance == one "variant" in the paper's tables
// (fpzip-24, APAX-4, ISA-0.5, ...).
//
// Table 1 of the paper is a capability matrix over these methods; the
// Capabilities struct carries exactly those columns.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/error.h"

namespace cesm::comp {

/// Logical array extents, slowest-varying first. CAM 2-D fields are
/// {ncol}; 3-D fields are {nlev, ncol}.
struct Shape {
  std::vector<std::size_t> dims;

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 1;
    for (std::size_t d : dims) n *= d;
    return dims.empty() ? 0 : n;
  }

  [[nodiscard]] std::size_t rank() const { return dims.size(); }

  static Shape d1(std::size_t n) { return Shape{{n}}; }
  static Shape d2(std::size_t rows, std::size_t cols) { return Shape{{rows, cols}}; }
  static Shape d3(std::size_t planes, std::size_t rows, std::size_t cols) {
    return Shape{{planes, rows, cols}};
  }
};

/// Capability matrix columns from paper Table 1.
struct Capabilities {
  bool lossless_mode = false;   ///< has an exact mode
  bool special_values = false;  ///< natively handles missing/fill values
  bool freely_available = false;
  bool fixed_quality = false;   ///< can target a quality level directly
  bool fixed_rate = false;      ///< can target a compression ratio directly
  bool handles_64bit = false;   ///< supports double-precision input
};

/// Compression ratio as defined by paper eq. (1): compressed/original.
/// Smaller is better; 1.0 means no compression.
inline double compression_ratio(std::size_t compressed_bytes, std::size_t value_count,
                                std::size_t bytes_per_value = sizeof(float)) {
  CESM_REQUIRE(value_count > 0);
  return static_cast<double>(compressed_bytes) /
         static_cast<double>(value_count * bytes_per_value);
}

/// Variant-invariant preprocessing shared by the variants of a codec
/// family (Codec::build_prep). The member-major sweep (core/pvt.h) builds
/// one per chunk for each run of sibling variants and drops it when the
/// chunk is done. Immutable once built.
class PrepPlan {
 public:
  virtual ~PrepPlan() = default;
};

using PrepPlanPtr = std::shared_ptr<const PrepPlan>;

/// Abstract compression method.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Variant name as it appears in the paper's tables (e.g. "fpzip-24").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Method family ("fpzip", "ISABELA", "APAX", "GRIB2", "NetCDF-4").
  [[nodiscard]] virtual std::string family() const = 0;

  [[nodiscard]] virtual Capabilities capabilities() const = 0;

  /// True when this variant reconstructs input exactly.
  [[nodiscard]] virtual bool is_lossless() const = 0;

  /// Encode single-precision data. shape.count() must equal data.size().
  [[nodiscard]] virtual Bytes encode(std::span<const float> data,
                                     const Shape& shape) const = 0;

  /// Decode a stream produced by encode(). Throws FormatError on corrupt
  /// or truncated input.
  [[nodiscard]] virtual std::vector<float> decode(
      std::span<const std::uint8_t> stream) const = 0;

  /// Double-precision path; default throws unless capabilities().handles_64bit.
  [[nodiscard]] virtual Bytes encode64(std::span<const double> data,
                                       const Shape& shape) const;
  [[nodiscard]] virtual std::vector<double> decode64(
      std::span<const std::uint8_t> stream) const;

  // --- Shared encode-prep plans (the variant sweep, core/pvt.h) --------
  //
  // A codec family whose variants differ only in a tuning knob (ISABELA's
  // error bound) can expose the knob-invariant stage of encode() as a
  // reusable plan. The contract is pure memoization: for any plan built
  // by build_prep(data, shape) on a codec with the same prep_key(),
  // encode_with_prep(plan, data, shape) must return a stream
  // byte-identical to encode(data, shape).

  /// Key identifying the preprocessing this codec can share. Codecs with
  /// equal keys accept each other's plans for the same data. Empty (the
  /// default) means "no plannable stage": the sweep encodes directly.
  [[nodiscard]] virtual std::string prep_key() const { return {}; }

  /// Compute the variant-invariant stage for `data`. Must throw exactly
  /// the input-validation errors encode() would throw for the same field
  /// (exception parity is part of the bit-identity contract). The default
  /// returns nullptr, which the sweep treats as "encode directly".
  [[nodiscard]] virtual PrepPlanPtr build_prep(std::span<const float> data,
                                               const Shape& shape) const;

  /// Encode using a plan built over the same data by a codec with the
  /// same prep_key(). Byte-identical to encode(data, shape) by contract;
  /// the default ignores the plan and calls encode().
  [[nodiscard]] virtual Bytes encode_with_prep(const PrepPlan& plan,
                                               std::span<const float> data,
                                               const Shape& shape) const;
};

using CodecPtr = std::shared_ptr<const Codec>;

/// Round-trip helper: encode then decode, returning reconstruction and the
/// achieved compression ratio.
struct RoundTrip {
  std::vector<float> reconstructed;
  std::size_t compressed_bytes = 0;
  double cr = 1.0;
};

RoundTrip round_trip(const Codec& codec, std::span<const float> data, const Shape& shape);

/// Wrap `codec` so every encode/decode runs under a trace span
/// ("encode:<name>" / "decode:<name>") with byte/element/call counters
/// (see util/trace.h). Name, family, and stream format are unchanged;
/// the factory functions in variants.cpp wrap every variant with this so
/// all of the paper's methods are profiled uniformly. Returns `codec`
/// unchanged when it is already traced.
CodecPtr traced(CodecPtr codec);

namespace wire {
/// Decode-side safety cap on the total element count a stream header may
/// claim (2^27 floats = 512 MiB). Larger fields are verified on a chunk
/// partition (core::chunk_partition), whose chunks each respect this
/// bound.
inline constexpr std::uint64_t kMaxDecodeElements = 1ull << 27;

/// Shared stream-header helpers so every codec is self-describing: a
/// 4-byte magic, the shape, and the element count.
void write_header(ByteWriter& w, std::uint32_t magic, const Shape& shape);
Shape read_header(ByteReader& r, std::uint32_t magic);
}  // namespace wire

}  // namespace cesm::comp
