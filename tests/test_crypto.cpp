// SHA-256 against NIST/FIPS 180-4 test vectors, HMAC-SHA256 against RFC
// 4231, and the simulated signature scheme. These run through the
// compression kernel Sha256 picks for this CPU; the Sha256Kernels cases
// drive each kernel directly and check that they agree.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/signer.h"
#include "util/hex.h"
#include "util/rng.h"

namespace bamboo {
namespace {

std::string hex_of(const crypto::Digest& d) { return crypto::to_hex(d); }

// ---------------------------------------------------------------------------
// SHA-256 vectors
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash("")),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash("abc")),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongerVector) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  crypto::Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(
      hex_of(h.finish()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  crypto::Sha256 h;
  for (char c : msg) {
    h.update(std::string_view(&c, 1));
  }
  EXPECT_EQ(h.finish(), crypto::Sha256::hash(msg));
}

TEST(Sha256, BoundaryLengths) {
  // Padding edge cases around the 55/56/64 byte boundaries: the 0x80 byte
  // and the length fit in the last data block up to 55 bytes, and need a
  // block of their own from 56. Expected digests of 'x' * len come from an
  // independent implementation (Python's hashlib), so a padding bug shared
  // by the one-shot and the split paths cannot pass.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119,
       "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120,
       "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [len, expected] : cases) {
    const std::string msg(len, 'x');
    crypto::Sha256 a;
    a.update(msg);
    crypto::Sha256 b;
    b.update(msg.substr(0, len / 2));
    b.update(msg.substr(len / 2));
    EXPECT_EQ(hex_of(a.finish()), expected) << "length " << len;
    EXPECT_EQ(hex_of(b.finish()), expected) << "split, length " << len;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  crypto::Sha256 h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(
      hex_of(h.finish()),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, IntegerAbsorption) {
  crypto::Sha256 a;
  a.update_u64(0x0807060504030201ULL);
  crypto::Sha256 b;
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  b.update(bytes);
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha256, MidstateResumeMatchesFull) {
  // Capturing the compression state on a block boundary and resuming must
  // reproduce the one-shot digest exactly — the contract behind the
  // KeyStore's cached HMAC ipad/opad prefixes.
  const std::string prefix(64, 'p');
  for (std::size_t suffix_len : {0u, 1u, 32u, 63u, 64u, 200u}) {
    const std::string suffix(suffix_len, 's');
    crypto::Sha256 head;
    head.update(prefix);
    crypto::Sha256 resumed(head.midstate());
    resumed.update(suffix);
    EXPECT_EQ(resumed.finish(), crypto::Sha256::hash(prefix + suffix))
        << suffix_len;
  }
}

// ---------------------------------------------------------------------------
// Compression kernels
// ---------------------------------------------------------------------------

/// Every kernel this build and CPU offer, the portable reference first.
std::vector<crypto::detail::CompressFn> available_kernels() {
  std::vector<crypto::detail::CompressFn> kernels = {
      &crypto::detail::compress_portable};
  if (const auto hardware = crypto::detail::compress_hardware())
    kernels.push_back(hardware);
  return kernels;
}

TEST(Sha256Kernels, EachKernelHashesAbcInOneBlock) {
  // "abc" padded to one block, compressed from the FIPS 180-4 initial
  // state, is the whole computation of SHA-256("abc").
  std::array<std::uint8_t, 64> block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // bit length
  const crypto::detail::Sha256State expected = {
      0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
      0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad};
  for (const crypto::detail::CompressFn kernel : available_kernels()) {
    crypto::detail::Sha256State state = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    kernel(state, block.data());
    EXPECT_EQ(state, expected);
  }
}

TEST(Sha256Kernels, HardwareMatchesPortableOnRandomBlocks) {
  const crypto::detail::CompressFn hardware =
      crypto::detail::compress_hardware();
  if (hardware == nullptr) {
    GTEST_SKIP() << "no SHA-extensions kernel on this CPU or build; "
                    "only the portable kernel runs here";
  }
  util::Rng rng(0x5a256);
  for (int i = 0; i < 10000; ++i) {
    crypto::detail::Sha256State state;
    for (std::uint32_t& word : state)
      word = static_cast<std::uint32_t>(rng.next_u64());
    std::array<std::uint8_t, 64> block;
    for (std::uint8_t& byte : block)
      byte = static_cast<std::uint8_t>(rng.next_u64());
    crypto::detail::Sha256State expected = state;
    crypto::detail::compress_portable(expected, block.data());
    crypto::detail::Sha256State got = state;
    hardware(got, block.data());
    ASSERT_EQ(got, expected) << "pair " << i;
  }
}

TEST(Sha256Kernels, DispatchPrefersTheHardwareKernel) {
  const crypto::detail::CompressFn hardware =
      crypto::detail::compress_hardware();
  EXPECT_EQ(crypto::detail::compress_selected(),
            hardware != nullptr ? hardware
                                : &crypto::detail::compress_portable);
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)
// ---------------------------------------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = crypto::hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(
      hex_of(mac),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = crypto::hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(
      hex_of(mac),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashed) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = crypto::hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(
      hex_of(mac),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---------------------------------------------------------------------------
// Simulated signatures
// ---------------------------------------------------------------------------

TEST(KeyStore, SignVerifyRoundTrip) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("message");
  const auto sig = keys.sign(2, digest);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(keys.verify(sig, digest));
}

TEST(KeyStore, RejectsTamperedMessage) {
  crypto::KeyStore keys(1234, 4);
  const auto sig = keys.sign(1, crypto::Sha256::hash("message"));
  EXPECT_FALSE(keys.verify(sig, crypto::Sha256::hash("other message")));
}

TEST(KeyStore, RejectsForgedSigner) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("message");
  auto sig = keys.sign(1, digest);
  sig.signer = 3;  // claim someone else signed it
  EXPECT_FALSE(keys.verify(sig, digest));
}

TEST(KeyStore, RejectsUnknownSigner) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("m");
  auto sig = keys.sign(0, digest);
  sig.signer = 17;  // out of range
  EXPECT_FALSE(keys.verify(sig, digest));
}

TEST(KeyStore, DistinctNodesDistinctSignatures) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("m");
  EXPECT_NE(keys.sign(0, digest).tag, keys.sign(1, digest).tag);
}

TEST(KeyStore, DistinctClustersDistinctKeys) {
  crypto::KeyStore a(1, 4);
  crypto::KeyStore b(2, 4);
  const auto digest = crypto::Sha256::hash("m");
  EXPECT_NE(a.sign(0, digest).tag, b.sign(0, digest).tag);
  EXPECT_FALSE(b.verify(a.sign(0, digest), digest));
}

TEST(KeyStore, DeterministicAcrossInstances) {
  crypto::KeyStore a(7, 4);
  crypto::KeyStore b(7, 4);
  const auto digest = crypto::Sha256::hash("m");
  EXPECT_EQ(a.sign(3, digest).tag, b.sign(3, digest).tag);
}

}  // namespace
}  // namespace bamboo
