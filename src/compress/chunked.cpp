#include "compress/chunked.h"

#include <algorithm>

#include "util/failpoint.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::comp {

namespace {
// "CHK2": version 2 appends a per-chunk element-count array to the header
// so the decoder can presize one output buffer and hand each chunk its
// slice without trusting (or recomputing) the encoder's chunking policy.
constexpr std::uint32_t kChunkMagic = 0x324b4843;
}

ChunkedCodec::ChunkedCodec(CodecPtr inner, std::size_t target_chunk_elems)
    : inner_(std::move(inner)), target_chunk_elems_(target_chunk_elems) {
  CESM_REQUIRE(inner_ != nullptr);
  CESM_REQUIRE(target_chunk_elems_ >= 1024);
}

std::vector<std::size_t> ChunkedCodec::chunk_offsets(const Shape& shape) const {
  const std::size_t total = shape.count();
  std::vector<std::size_t> offsets = {0};
  if (total == 0) return offsets;

  // Whole slices of the slowest dimension keep inner-codec geometry sane.
  std::size_t slice = total;
  if (shape.rank() > 1) {
    slice = total / shape.dims[0];
  }
  const std::size_t slices_per_chunk =
      std::max<std::size_t>(1, target_chunk_elems_ / slice);
  const std::size_t step = shape.rank() > 1 ? slices_per_chunk * slice
                                            : std::min(total, target_chunk_elems_);
  for (std::size_t off = step; off < total; off += step) offsets.push_back(off);
  offsets.push_back(total);
  return offsets;
}

Shape ChunkedCodec::chunk_shape(const Shape& shape, std::size_t lo,
                                std::size_t hi) const {
  CESM_REQUIRE(lo < hi && hi <= shape.count());
  if (shape.rank() > 1) {
    const std::size_t slice = shape.count() / shape.dims[0];
    CESM_REQUIRE((hi - lo) % slice == 0 && lo % slice == 0);
    Shape cs = shape;
    cs.dims[0] = (hi - lo) / slice;
    return cs;
  }
  return Shape::d1(hi - lo);
}

std::size_t ChunkedCodec::packed_stream_bytes(
    const Shape& shape, std::span<const std::size_t> chunk_sizes) const {
  // Write the actual header (sans payloads) so the size is tied to the
  // wire format by construction, not by a parallel arithmetic formula.
  Bytes header;
  ByteWriter w(header);
  wire::write_header(w, kChunkMagic, shape);
  w.u32(static_cast<std::uint32_t>(chunk_sizes.size()));
  std::size_t payload = 0;
  for (const std::size_t s : chunk_sizes) {
    w.u64(s);
    payload += s;
  }
  for (std::size_t c = 0; c < chunk_sizes.size(); ++c) w.u64(0);  // element counts
  return header.size() + payload;
}

Bytes ChunkedCodec::encode(std::span<const float> data, const Shape& shape) const {
  CESM_REQUIRE(shape.count() == data.size());
  trace::Span span("chunked.encode");
  const std::vector<std::size_t> offsets = chunk_offsets(shape);
  const std::size_t chunks = offsets.size() - 1;

  std::vector<Bytes> streams(chunks);
  parallel_for(0, chunks, [&](std::size_t c) {
    const std::size_t lo = offsets[c];
    const std::size_t hi = offsets[c + 1];
    streams[c] = inner_->encode(data.subspan(lo, hi - lo), chunk_shape(shape, lo, hi));
  });

  Bytes out;
  ByteWriter w(out);
  wire::write_header(w, kChunkMagic, shape);
  w.u32(static_cast<std::uint32_t>(chunks));
  for (const Bytes& s : streams) w.u64(s.size());
  for (std::size_t c = 0; c < chunks; ++c) w.u64(offsets[c + 1] - offsets[c]);
  for (const Bytes& s : streams) w.raw(s);
  trace::add(trace::Counter::kChunkedChunks, chunks);
  return out;
}

std::vector<float> ChunkedCodec::decode(std::span<const std::uint8_t> stream) const {
  ByteReader r(stream);
  const Shape shape = wire::read_header(r, kChunkMagic);
  std::vector<float> out(shape.count());
  decode_chunks(stream, out);
  return out;
}

void ChunkedCodec::decode_into(std::span<const std::uint8_t> stream,
                               std::span<float> out) const {
  decode_chunks(stream, out);
}

void ChunkedCodec::decode_chunks(std::span<const std::uint8_t> stream,
                                 std::span<float> out) const {
  trace::Span span("chunked.decode");
  CESM_FAILPOINT("chunked.decode");
  ByteReader r(stream);
  const Shape shape = wire::read_header(r, kChunkMagic);
  if (out.size() != shape.count()) {
    throw FormatError("chunked: output buffer does not match stream element count");
  }
  const std::uint32_t chunks = r.u32();
  if (chunks == 0 || chunks > (1u << 24)) throw FormatError("chunked: bad chunk count");
  // Every claim the header makes must be validated against the actual
  // stream before it is allowed to size an allocation or slice the output:
  // each chunk owes an 8-byte size entry and an 8-byte element count, the
  // element counts must tile shape.count() exactly (each chunk at least
  // one element), and the chunk sizes must tile the payload region
  // exactly.
  if (chunks > r.remaining() / 16) {
    throw FormatError("chunked: chunk count exceeds stream length");
  }
  if (chunks > shape.count()) throw FormatError("chunked: more chunks than elements");

  std::vector<std::uint64_t> sizes(chunks);
  std::uint64_t payload_total = 0;
  for (auto& s : sizes) {
    s = r.u64();
    if (s > stream.size()) throw FormatError("chunked: chunk size exceeds stream length");
    payload_total += s;  // no overflow: both operands are bounded by stream.size()
    if (payload_total > stream.size()) {
      throw FormatError("chunked: chunk sizes exceed stream length");
    }
  }

  // Per-chunk element counts -> exclusive prefix sum = each chunk's slice
  // offset in `out`. Counts are bounded by shape.count() (<= the decode
  // element cap), so the running sum cannot overflow.
  std::vector<std::size_t> elem_off(chunks + 1, 0);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    const std::uint64_t elems = r.u64();
    if (elems == 0) throw FormatError("chunked: empty chunk");
    if (elems > shape.count() - elem_off[c]) {
      throw FormatError("chunked: chunk elements exceed stream element count");
    }
    elem_off[c + 1] = elem_off[c] + static_cast<std::size_t>(elems);
  }
  if (elem_off[chunks] != shape.count()) {
    throw FormatError("chunked: chunk elements disagree with stream element count");
  }
  if (payload_total != r.remaining()) {
    throw FormatError("chunked: chunk sizes disagree with stream length");
  }

  std::vector<std::span<const std::uint8_t>> payloads(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) payloads[c] = r.raw(sizes[c]);

  // Each chunk decodes straight into its disjoint slice; the inner
  // decode_into validates that the chunk really holds the element count
  // the header promised.
  parallel_for(0, chunks, [&](std::size_t c) {
    inner_->decode_into(payloads[c],
                        out.subspan(elem_off[c], elem_off[c + 1] - elem_off[c]));
  });
  trace::add(trace::Counter::kChunkedChunks, chunks);
}

}  // namespace cesm::comp
