#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace bamboo::crypto {

/// Index of a node (replica or client host) within a cluster.
using SignerId = std::uint32_t;

/// A simulated signature: the signer's id plus an HMAC tag over the signed
/// digest.
///
/// SUBSTITUTION NOTE: the paper's Bamboo uses secp256k1.
/// Inside a deterministic simulation, signatures must only be (a) bound to
/// signer + message and (b) unforgeable by any simulated adversary — HMAC
/// over a per-node secret derived from a cluster seed provides both, and a
/// Byzantine strategy that does fabricate tags (forge-qc) is caught because
/// every received QC/TC is structurally validated and HMAC-verified
/// (quorum/cert_verifier.h). The CPU cost of real ECDSA is modeled
/// separately: flat per-message charges (Config::cpu_sign / cpu_verify)
/// plus the strategy-aware per-signature certificate costs
/// (Config::verify_strategy, cpu_verify_per_sig, cpu_verify_batch_*), so
/// performance results are faithful for certificates too.
struct Signature {
  SignerId signer = 0;
  Digest tag{};

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Wire size of one signature (secp256k1 compact encoding + signer id),
/// used by the network byte accounting.
inline constexpr std::uint64_t kSignatureWireBytes = 69;

/// Holds the per-node signing secrets for one simulated cluster.
class KeyStore {
 public:
  /// Create keys for `num_signers` nodes from a cluster seed.
  KeyStore(std::uint64_t cluster_seed, SignerId num_signers);

  [[nodiscard]] SignerId num_signers() const {
    return static_cast<SignerId>(keys_.size());
  }

  /// Sign a digest as `signer`.
  [[nodiscard]] Signature sign(SignerId signer, const Digest& message) const;

  /// Verify that `sig` is a valid signature by `sig.signer` over `message`.
  [[nodiscard]] bool verify(const Signature& sig, const Digest& message) const;

 private:
  std::vector<Digest> keys_;  // per-node secrets
  // Per-key HMAC prefix states (ipad/opad blocks pre-compressed): halves
  // the SHA-256 compressions of every sign/verify on the hot path.
  std::vector<std::pair<Sha256Midstate, Sha256Midstate>> midstates_;
};

}  // namespace bamboo::crypto
