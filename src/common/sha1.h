// From-scratch SHA-1 (FIPS 180-4).
//
// EclipseMR, like Chord, places every object on the consistent-hash ring by
// SHA-1 of its name (paper Fig. 2: "Filesystem Hash = SHA1"). This is a
// self-contained implementation so the library has no crypto dependency;
// SHA-1's cryptographic weakness is irrelevant here — only uniformity of the
// digest matters for ring placement.
//
// Blocks are compressed by the x86 SHA extensions where the CPU has them
// (chosen once from CPUID) and by a portable compressor everywhere else;
// both produce the same digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace eclipse {

/// 160-bit SHA-1 digest.
using Sha1Digest = std::array<std::uint8_t, 20>;

/// Incremental SHA-1 hasher.
///
///   Sha1 h;
///   h.Update("hello");
///   Sha1Digest d = h.Finish();
class Sha1 {
 public:
  Sha1() { Reset(); }

  /// Re-initialize to the empty-message state.
  void Reset();

  /// Absorb `len` bytes. May be called repeatedly.
  void Update(const void* data, std::size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Finalize and return the digest. The hasher must be Reset() before reuse.
  Sha1Digest Finish();

  /// One-shot convenience.
  static Sha1Digest Hash(std::string_view s) {
    Sha1 h;
    h.Update(s);
    return h.Finish();
  }

 private:
  std::array<std::uint32_t, 5> state_;
  std::uint64_t total_len_ = 0;           // bytes absorbed so far
  std::array<std::uint8_t, 64> buffer_;   // partial block
  std::size_t buffer_len_ = 0;
};

/// Lowercase hex string of a digest (40 chars).
std::string ToHex(const Sha1Digest& d);

// The block compressors behind Sha1, exposed so tests can compare them
// directly. Each folds `blocks` consecutive 64-byte blocks of `data` into
// the five state words.
namespace sha1_internal {

void CompressPortable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);

#if defined(__x86_64__)
/// Whether this CPU has the SHA extensions plus the SSSE3 and SSE4.1
/// shuffles CompressShaNi needs (CPUID leaf 7 EBX bit 29, leaf 1 ECX).
bool HaveShaNi();

/// Call only where HaveShaNi().
void CompressShaNi(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);
#endif

}  // namespace sha1_internal

}  // namespace eclipse
