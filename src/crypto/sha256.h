#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace bamboo::crypto {

/// A 256-bit digest. Blocks, transactions, votes, and simulated signatures
/// are all identified by one of these.
using Digest = std::array<std::uint8_t, 32>;

/// Compression state captured after a whole number of 64-byte blocks.
/// Resuming from a midstate yields exactly the digest the full computation
/// would — it only skips re-compressing the captured prefix. HMAC uses this
/// to cache each key's one-block ipad/opad prefixes (KeyStore).
struct Sha256Midstate {
  std::array<std::uint32_t, 8> state{};
  std::uint64_t processed = 0;  ///< prefix length in bytes; multiple of 64
};

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch and verified
/// against the NIST test vectors in tests/test_crypto.cpp. Compression runs
/// through the kernel chosen once per process for this CPU
/// (sha256_kernels.h).
class Sha256 {
 public:
  Sha256() { reset(); }
  /// Resume hashing after an already-compressed prefix.
  explicit Sha256(const Sha256Midstate& mid)
      : state_(mid.state), total_len_(mid.processed) {}

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }
  /// Append an integer in little-endian byte order (convenience for hashing
  /// structured data deterministically).
  void update_u64(std::uint64_t v);
  void update_u32(std::uint32_t v);

  /// Finalize and return the digest. The object must be reset() before reuse.
  [[nodiscard]] Digest finish();

  /// Capture the state after the bytes hashed so far; only valid on block
  /// boundaries (total length a multiple of 64 bytes).
  [[nodiscard]] Sha256Midstate midstate() const;

  /// One-shot helpers.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view text);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104); backs the simulated signature scheme.
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

/// Per-key HMAC prefix states: .first resumes the inner hash after the
/// ipad block, .second the outer hash after the opad block.
[[nodiscard]] std::pair<Sha256Midstate, Sha256Midstate> hmac_midstates(
    std::span<const std::uint8_t> key);

/// HMAC-SHA256 from precomputed key midstates — bit-identical to
/// hmac_sha256(key, message) at half the compressions (2 instead of 4 for
/// digest-sized messages).
[[nodiscard]] Digest hmac_sha256(const Sha256Midstate& inner,
                                 const Sha256Midstate& outer,
                                 std::span<const std::uint8_t> message);

/// Short human-readable prefix of a digest (for logs and debugging).
[[nodiscard]] std::string short_hex(const Digest& d);

/// Full hex encoding.
[[nodiscard]] std::string to_hex(const Digest& d);

}  // namespace bamboo::crypto

// Hash support so Digest can key unordered containers.
template <>
struct std::hash<bamboo::crypto::Digest> {
  std::size_t operator()(const bamboo::crypto::Digest& d) const noexcept {
    // The digest is already uniform; fold the first 8 bytes.
    std::size_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | d[static_cast<std::size_t>(i)];
    return h;
  }
};
