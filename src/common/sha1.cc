#include "common/sha1.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace eclipse {
namespace {

inline std::uint32_t Rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32 - n));
}

// Chosen on the first digest, so even one taken during static
// initialization goes through a settled choice.
void Compress(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
#if defined(__x86_64__)
  using Compressor = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);
  static const Compressor chosen = sha1_internal::HaveShaNi()
                                       ? sha1_internal::CompressShaNi
                                       : sha1_internal::CompressPortable;
  chosen(state, data, blocks);
#else
  sha1_internal::CompressPortable(state, data, blocks);
#endif
}

}  // namespace

void Sha1::Reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::Update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  // Top up a partial block first.
  if (buffer_len_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      Compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = len / 64; blocks > 0) {
    Compress(state_.data(), p, blocks);
    p += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Sha1Digest Sha1::Finish() {
  // Append 0x80, pad with zeros to 56 mod 64, then the bit length big-endian.
  // Padding is written straight into the block buffer — routing a digest per
  // intermediate record through here made the old byte-at-a-time Update()
  // padding loop the single hottest code in ShuffleWriter::Add.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    Compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

namespace sha1_internal {

void CompressPortable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[80];
    for (int t = 0; t < 16; ++t) {
      w[t] = (std::uint32_t(data[4 * t]) << 24) | (std::uint32_t(data[4 * t + 1]) << 16) |
             (std::uint32_t(data[4 * t + 2]) << 8) | std::uint32_t(data[4 * t + 3]);
    }
    for (int t = 16; t < 80; ++t) w[t] = Rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
    // One loop per round phase: the selector branch was per-round and
    // unpredictable to the optimizer; splitting it lets each phase's f/k fold
    // into straight-line code.
    for (int t = 0; t < 20; ++t) {
      std::uint32_t tmp = Rotl(a, 5) + ((b & c) | (~b & d)) + e + 0x5A827999u + w[t];
      e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
    }
    for (int t = 20; t < 40; ++t) {
      std::uint32_t tmp = Rotl(a, 5) + (b ^ c ^ d) + e + 0x6ED9EBA1u + w[t];
      e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
    }
    for (int t = 40; t < 60; ++t) {
      std::uint32_t tmp = Rotl(a, 5) + ((b & c) | (b & d) | (c & d)) + e + 0x8F1BBCDCu + w[t];
      e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
    }
    for (int t = 60; t < 80; ++t) {
      std::uint32_t tmp = Rotl(a, 5) + (b ^ c ^ d) + e + 0xCA62C1D6u + w[t];
      e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#if defined(__x86_64__)

bool HaveShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool shuffles = (ecx & bit_SSSE3) && (ecx & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return shuffles && (ebx & bit_SHA);
}

// Intel's SHA-NI block schedule. ABCD holds a..d with a in the top lane;
// e rides in the top lane of e0/e1 (sha1nexte adds rol(a, 30) to it). Each
// four-round group g uses message vector m[g % 4] and, while later groups
// still need it, advances the schedule: msg2 finishes m[(g+1) % 4], the xor
// feeds m[(g+2) % 4] and msg1 starts m[(g+3) % 4]. sha1rnds4's last
// argument picks the round function, g / 5.
__attribute__((target("sha,sse4.1")))
void CompressShaNi(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Byte-swaps each word and reverses their order: w0 lands in the top lane.
  const __m128i kBswap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;

    // Rounds 0-15: the message words straight from the block.
    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kBswap);
    e0 = _mm_add_epi32(e0, m0);
    __m128i e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kBswap);
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    m0 = _mm_sha1msg1_epu32(m0, m1);

    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kBswap);
    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kBswap);
    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    // Rounds 16-79: the schedule derived four words at a time.
    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    m0 = _mm_sha1msg1_epu32(m0, m1);
    m3 = _mm_xor_si128(m3, m1);

    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    m0 = _mm_sha1msg1_epu32(m0, m1);
    m3 = _mm_xor_si128(m3, m1);

    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    m0 = _mm_sha1msg1_epu32(m0, m1);
    m3 = _mm_xor_si128(m3, m1);

    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    m3 = _mm_xor_si128(m3, m1);

    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    e0 = _mm_sha1nexte_epu32(e0, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // defined(__x86_64__)

}  // namespace sha1_internal

std::string ToHex(const Sha1Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(40);
  for (std::uint8_t byte : d) {
    s.push_back(kHex[byte >> 4]);
    s.push_back(kHex[byte & 0xF]);
  }
  return s;
}

}  // namespace eclipse
