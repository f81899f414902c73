// The chunk partition the verifier walks (core/pvt.h): chunk_partition,
// chunk_shape and the stored size of a chunked member.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "compress/apax/apax.h"
#include "compress/fpz/fpz.h"
#include "core/pvt.h"
#include "util/error.h"
#include "util/rng.h"

namespace cesm::core {
namespace {

using comp::Shape;

std::vector<float> field(std::size_t n) {
  Pcg32 rng(0xc4a2);
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(std::sin(i * 0.004) * 25.0 + rng.uniform(-1.0, 1.0));
  }
  return data;
}

/// Each chunk's stream size when `codec` encodes `data` chunk by chunk on
/// the partition for `chunk_elems`.
std::vector<std::size_t> chunk_stream_sizes(const comp::Codec& codec,
                                            const std::vector<float>& data,
                                            const Shape& shape, std::size_t chunk_elems) {
  const std::vector<std::size_t> offsets = chunk_partition(shape, chunk_elems);
  std::vector<std::size_t> sizes;
  for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
    const std::span<const float> x =
        std::span(data).subspan(offsets[c], offsets[c + 1] - offsets[c]);
    sizes.push_back(codec.encode(x, chunk_shape(shape, offsets[c], offsets[c + 1])).size());
  }
  return sizes;
}

TEST(ChunkPartition, MultiDimChunksAlongSlowestDim) {
  const Shape shape = Shape::d2(16, 2048);  // slice = 2048 elems
  const auto offsets = chunk_partition(shape, 4096);
  // target 4096 => 2 slices per chunk => 8 chunks.
  ASSERT_EQ(offsets.size(), 9u);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ((offsets[i] - offsets[i - 1]) % 2048, 0u);  // whole slices
    EXPECT_EQ(chunk_shape(shape, offsets[i - 1], offsets[i]).dims,
              (std::vector<std::size_t>{2, 2048}));
  }
}

TEST(ChunkPartition, SingleChunkForSmallInputs) {
  const Shape shape = Shape::d1(100);
  EXPECT_EQ(chunk_partition(shape, 1 << 16), (std::vector<std::size_t>{0, 100}));
  EXPECT_EQ(chunk_partition(shape, 0), (std::vector<std::size_t>{0, 100}));
  EXPECT_EQ(chunk_shape(shape, 0, 100).dims, shape.dims);
}

TEST(ChunkPartition, LosslessRoundTripAcrossChunkBoundaries) {
  // Every chunk's shape is one the codec accepts and reproduces exactly.
  const comp::FpzCodec codec(32);
  const auto data = field(50000);
  const Shape shape = Shape::d1(data.size());
  const std::vector<std::size_t> offsets = chunk_partition(shape, 1 << 12);
  EXPECT_GT(offsets.size(), 3u);  // actually chunked
  std::vector<float> recon;
  for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
    const std::span<const float> x =
        std::span(data).subspan(offsets[c], offsets[c + 1] - offsets[c]);
    const std::vector<float> out =
        codec.decode(codec.encode(x, chunk_shape(shape, offsets[c], offsets[c + 1])));
    recon.insert(recon.end(), out.begin(), out.end());
  }
  EXPECT_EQ(recon, data);
}

TEST(ChunkPartition, FloorRejectsSmallNonzeroChunks) {
  const Shape shape = Shape::d1(4096);
  for (const std::size_t chunk_elems : {std::size_t{1}, std::size_t{512}, std::size_t{1023}}) {
    try {
      (void)chunk_partition(shape, chunk_elems);
      ADD_FAILURE() << "chunk_elems = " << chunk_elems << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("chunk_elems = " + std::to_string(chunk_elems)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(chunk_partition(shape, kMinChunkElems).size(), 5u);
}

TEST(ChunkPartition, StoredBytesCountTheChunkIndex) {
  // Header (magic, rank, one u64 per dimension), chunk count, then a u64
  // byte count and a u64 element count per chunk, then the payloads.
  const std::size_t sizes[] = {10, 20, 30};
  EXPECT_EQ(chunked_stored_bytes(Shape::d1(5000), sizes), 4 + 1 + 8 + 4 + 3 * 16 + 60u);
  EXPECT_EQ(chunked_stored_bytes(Shape::d2(3, 5000), sizes), 4 + 1 + 16 + 4 + 3 * 16 + 60u);
}

TEST(ChunkPartition, LossyFixedRateSurvivesChunking) {
  // The chunk index adds little to a fixed-rate codec's stored size.
  const comp::ApaxCodec codec(comp::ApaxCodec::fixed_rate(4));
  const auto data = field(40000);
  const Shape shape = Shape::d1(data.size());
  const std::vector<std::size_t> sizes = chunk_stream_sizes(codec, data, shape, 8192);
  EXPECT_NEAR(comp::compression_ratio(chunked_stored_bytes(shape, sizes), data.size()), 0.25,
              0.02);
}

TEST(ChunkPartition, CostOfChunkingIsBounded) {
  // Chunking resets predictors: ratio degrades, but only modestly.
  const auto data = field(100000);
  const Shape shape = Shape::d1(data.size());
  const comp::FpzCodec codec(32);
  const std::size_t whole_size = codec.encode(data, shape).size();
  const std::size_t chunked_size =
      chunked_stored_bytes(shape, chunk_stream_sizes(codec, data, shape, 1 << 13));
  EXPECT_GT(chunked_size, whole_size);            // there is a cost...
  EXPECT_LT(chunked_size, whole_size * 12 / 10);  // ...but under 20%
}

}  // namespace
}  // namespace cesm::core
