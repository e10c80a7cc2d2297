#include "common/sha1.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "common/rng.h"

namespace eclipse {
namespace {

TEST(Sha1, EmptyString) {
  EXPECT_EQ(ToHex(Sha1::Hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(ToHex(Sha1::Hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(ToHex(Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(ToHex(Sha1::Hash("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

// Incremental updates must agree with one-shot hashing regardless of how the
// input is chunked.
class Sha1Chunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1Chunking, MatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 500; ++i) msg += "payload-" + std::to_string(i) + "|";
  Sha1Digest expected = Sha1::Hash(msg);

  Sha1 h;
  std::size_t chunk = GetParam();
  for (std::size_t pos = 0; pos < msg.size(); pos += chunk) {
    h.Update(msg.data() + pos, std::min(chunk, msg.size() - pos));
  }
  EXPECT_EQ(h.Finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha1Chunking,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 127, 128, 1000));

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.Update("first message");
  h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(ToHex(h.Finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, BoundaryLengths) {
  // Messages straddling the padding boundary (55/56/63/64 bytes).
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    std::string msg(len, 'x');
    Sha1 a;
    a.Update(msg);
    Sha1 b;
    for (char c : msg) b.Update(&c, 1);
    EXPECT_EQ(a.Finish(), b.Finish()) << "len=" << len;
  }
}

// The block compressors, driven directly: known answers on blocks padded
// here rather than by Sha1::Finish, and the hardware path against the
// portable reference on random states and blocks.
using Words = std::array<std::uint32_t, 5>;
using Compressor = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

constexpr Words kInitialState = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                                 0xC3D2E1F0u};

// FIPS 180-4 §5.1.1: 0x80, zeros up to 56 mod 64, then the bit length as a
// 64-bit big-endian number.
std::vector<std::uint8_t> PadByHand(std::string_view msg) {
  std::vector<std::uint8_t> out(msg.begin(), msg.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  return out;
}

void ExpectKnownAnswers(Compressor compress) {
  struct Vector {
    std::string_view msg;
    std::size_t blocks;
    Words digest;
  };
  const Vector vectors[] = {
      {"abc", 1, {0xa9993e36u, 0x4706816au, 0xba3e2571u, 0x7850c26cu, 0x9cd0d89du}},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", 2,
       {0x84983e44u, 0x1c3bd26eu, 0xbaae4aa1u, 0xf95129e5u, 0xe54670f1u}},
  };
  for (const Vector& v : vectors) {
    std::vector<std::uint8_t> padded = PadByHand(v.msg);
    ASSERT_EQ(padded.size(), 64 * v.blocks) << v.msg;
    Words state = kInitialState;
    compress(state.data(), padded.data(), v.blocks);
    EXPECT_EQ(state, v.digest) << v.msg;
  }
}

TEST(Sha1Compress, PortableKnownAnswers) {
  ExpectKnownAnswers(sha1_internal::CompressPortable);
}

TEST(Sha1Compress, ShaNiKnownAnswers) {
#if defined(__x86_64__)
  if (!sha1_internal::HaveShaNi()) GTEST_SKIP() << "this CPU has no SHA extensions";
  ExpectKnownAnswers(sha1_internal::CompressShaNi);
#else
  GTEST_SKIP() << "the SHA-NI compressor is x86-64 only";
#endif
}

TEST(Sha1Compress, ShaNiMatchesPortable) {
#if defined(__x86_64__)
  if (!sha1_internal::HaveShaNi()) GTEST_SKIP() << "this CPU has no SHA extensions";
  Rng rng(1);
  std::vector<std::uint8_t> data(4 * 64);
  for (int i = 0; i < 10000; ++i) {
    Words state{};
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.Next());
    const std::size_t blocks = 1 + rng.Below(4);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.Next());
    Words portable = state;
    Words hardware = state;
    sha1_internal::CompressPortable(portable.data(), data.data(), blocks);
    sha1_internal::CompressShaNi(hardware.data(), data.data(), blocks);
    ASSERT_EQ(hardware, portable) << "input " << i << ", " << blocks << " blocks";
  }
#else
  GTEST_SKIP() << "the SHA-NI compressor is x86-64 only";
#endif
}

}  // namespace
}  // namespace eclipse
