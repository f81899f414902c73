#include "compress/codec.h"

#include "util/trace.h"

namespace cesm::comp {

namespace {

void count_encode(std::size_t elements_in, std::size_t bytes_out) {
  trace::add(trace::Counter::kCodecEncodeCalls);
  trace::add(trace::Counter::kCodecElementsIn, elements_in);
  trace::add(trace::Counter::kCodecBytesOut, bytes_out);
}

void count_decode(std::size_t bytes_in, std::size_t elements_out) {
  trace::add(trace::Counter::kCodecDecodeCalls);
  trace::add(trace::Counter::kCodecBytesIn, bytes_in);
  trace::add(trace::Counter::kCodecElementsOut, elements_out);
}

/// Transparent observability wrapper: forwards to `inner` under a trace
/// span and byte/element counters. Disabled tracing costs one relaxed
/// atomic load per call and the counters three relaxed adds (see
/// util/trace.h), keeping codec throughput benchmarks honest.
class TracedCodec final : public Codec {
 public:
  explicit TracedCodec(CodecPtr inner)
      : inner_(std::move(inner)),
        encode_label_("encode:" + inner_->name()),
        decode_label_("decode:" + inner_->name()),
        prep_label_("prep:" + inner_->name()) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string family() const override { return inner_->family(); }
  [[nodiscard]] bool is_lossless() const override { return inner_->is_lossless(); }
  [[nodiscard]] Capabilities capabilities() const override { return inner_->capabilities(); }

  [[nodiscard]] Bytes encode(std::span<const float> data, const Shape& shape) const override {
    trace::Span span(encode_label_);
    Bytes out = inner_->encode(data, shape);
    count_encode(data.size(), out.size());
    return out;
  }

  [[nodiscard]] std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    trace::Span span(decode_label_);
    std::vector<float> out = inner_->decode(stream);
    count_decode(stream.size(), out.size());
    return out;
  }

  [[nodiscard]] Bytes encode64(std::span<const double> data,
                               const Shape& shape) const override {
    trace::Span span(encode_label_);
    Bytes out = inner_->encode64(data, shape);
    count_encode(data.size(), out.size());
    return out;
  }

  [[nodiscard]] std::vector<double> decode64(
      std::span<const std::uint8_t> stream) const override {
    trace::Span span(decode_label_);
    std::vector<double> out = inner_->decode64(stream);
    count_decode(stream.size(), out.size());
    return out;
  }

  // Prep hooks forward transparently so a traced variant shares plans
  // with (and produces the same streams as) its bare codec. A plan-driven
  // encode carries the exact span and counters of a direct encode, so the
  // sweep's profile counts both alike.
  [[nodiscard]] std::string prep_key() const override { return inner_->prep_key(); }

  [[nodiscard]] PrepPlanPtr build_prep(std::span<const float> data,
                                       const Shape& shape) const override {
    trace::Span span(prep_label_);
    return inner_->build_prep(data, shape);
  }

  [[nodiscard]] Bytes encode_with_prep(const PrepPlan& plan, std::span<const float> data,
                                       const Shape& shape) const override {
    trace::Span span(encode_label_);
    Bytes out = inner_->encode_with_prep(plan, data, shape);
    count_encode(data.size(), out.size());
    return out;
  }

 private:
  CodecPtr inner_;
  std::string encode_label_;
  std::string decode_label_;
  std::string prep_label_;
};

}  // namespace

CodecPtr traced(CodecPtr codec) {
  CESM_REQUIRE(codec != nullptr);
  if (dynamic_cast<const TracedCodec*>(codec.get()) != nullptr) return codec;
  return std::make_shared<TracedCodec>(std::move(codec));
}

Bytes Codec::encode64(std::span<const double>, const Shape&) const {
  throw InvalidArgument(name() + " does not support 64-bit data");
}

std::vector<double> Codec::decode64(std::span<const std::uint8_t>) const {
  throw InvalidArgument(name() + " does not support 64-bit data");
}

PrepPlanPtr Codec::build_prep(std::span<const float>, const Shape&) const {
  return nullptr;
}

Bytes Codec::encode_with_prep(const PrepPlan&, std::span<const float> data,
                              const Shape& shape) const {
  return encode(data, shape);
}

RoundTrip round_trip(const Codec& codec, std::span<const float> data, const Shape& shape) {
  RoundTrip rt;
  Bytes stream = codec.encode(data, shape);
  rt.compressed_bytes = stream.size();
  rt.cr = compression_ratio(stream.size(), data.size());
  rt.reconstructed = codec.decode(stream);
  return rt;
}

namespace wire {

void write_header(ByteWriter& w, std::uint32_t magic, const Shape& shape) {
  w.u32(magic);
  w.u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t d : shape.dims) w.u64(d);
}

Shape read_header(ByteReader& r, std::uint32_t magic) {
  const std::uint32_t got = r.u32();
  if (got != magic) throw FormatError("bad stream magic");
  const unsigned rank = r.u8();
  if (rank == 0 || rank > 8) throw FormatError("bad rank");
  Shape s;
  s.dims.resize(rank);
  std::uint64_t count = 1;
  for (unsigned i = 0; i < rank; ++i) {
    s.dims[i] = r.u64();
    if (s.dims[i] == 0 || s.dims[i] > kMaxDecodeElements) {
      throw FormatError("bad dimension");
    }
    count *= s.dims[i];
    // A corrupt header must not drive a multi-gigabyte allocation: cap
    // the total decoded element count (see kMaxDecodeElements).
    if (count > kMaxDecodeElements) throw FormatError("implausible element count");
  }
  return s;
}

}  // namespace wire
}  // namespace cesm::comp
