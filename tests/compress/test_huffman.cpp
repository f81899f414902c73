#include "compress/deflate/huffman.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/rng.h"

namespace cesm::comp {
namespace {

std::uint64_t kraft_sum_scaled(std::span<const std::uint8_t> lengths, unsigned max_len) {
  std::uint64_t k = 0;
  for (auto l : lengths) {
    if (l) k += 1ull << (max_len - l);
  }
  return k;
}

TEST(HuffmanLengths, RespectsKraftInequality) {
  std::vector<std::uint64_t> freqs = {100, 50, 25, 12, 6, 3, 1, 1};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LE(kraft_sum_scaled(lengths, 15), 1ull << 15);
  for (std::size_t i = 0; i < freqs.size(); ++i) EXPECT_GT(lengths[i], 0u);
}

TEST(HuffmanLengths, MoreFrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs = {1000, 1, 1, 1};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LT(lengths[0], lengths[1]);
}

TEST(HuffmanLengths, ZeroFrequencySymbolsGetNoCode) {
  std::vector<std::uint64_t> freqs = {10, 0, 5, 0};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_GT(lengths[0], 0u);
  EXPECT_EQ(lengths[1], 0u);
  EXPECT_EQ(lengths[3], 0u);
}

TEST(HuffmanLengths, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs = {0, 42, 0};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[1], 1u);
}

TEST(HuffmanLengths, EnforcesLengthLimit) {
  // Fibonacci-like frequencies force deep trees; the limiter must clamp
  // to max_len while keeping a decodable (Kraft-valid) code.
  std::vector<std::uint64_t> freqs;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto lengths = huffman_code_lengths(freqs, 15);
  for (auto l : lengths) EXPECT_LE(l, 15u);
  EXPECT_LE(kraft_sum_scaled(lengths, 15), 1ull << 15);
}

TEST(HuffmanCodec, RoundTripsSymbolStream) {
  Pcg32 rng(21);
  constexpr std::size_t kAlphabet = 64;
  std::vector<std::uint64_t> freqs(kAlphabet, 0);
  std::vector<unsigned> symbols;
  for (int i = 0; i < 20000; ++i) {
    // Geometric-ish distribution.
    unsigned s = 0;
    while (s + 1 < kAlphabet && rng.bounded(3) != 0) ++s;
    symbols.push_back(s);
    ++freqs[s];
  }
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder enc(lengths);
  const HuffmanDecoder dec(lengths);

  Bytes buf;
  BitWriter bw(buf);
  for (unsigned s : symbols) enc.put(bw, s);
  bw.align();

  BitReader br(buf);
  for (unsigned s : symbols) ASSERT_EQ(dec.get(br), s);
}

TEST(HuffmanCodec, CompressesSkewedDataNearEntropy) {
  // Two symbols at 87.5% / 12.5%: entropy 0.543 bits. Huffman floor is
  // 1 bit/symbol; check we hit exactly that.
  std::vector<std::uint64_t> freqs = {875, 125};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[0], 1u);
  EXPECT_EQ(lengths[1], 1u);
}

TEST(HuffmanDecoder, ThrowsOnOversubscribedCode) {
  std::vector<std::uint8_t> lengths = {1, 1, 1};  // Kraft sum 1.5 > 1
  EXPECT_THROW(HuffmanDecoder{lengths}, FormatError);
}

TEST(HuffmanDecoder, ThrowsOnInvalidCodeword) {
  // Lengths {1} leaves half the code space unassigned; reading a '1' bit
  // must fail rather than return garbage.
  std::vector<std::uint8_t> lengths = {1};
  const HuffmanDecoder dec(lengths);
  Bytes buf = {0xff};
  BitReader br(buf);
  EXPECT_THROW((void)dec.get(br), FormatError);
}

}  // namespace
}  // namespace cesm::comp
