#pragma once

#include <cstdint>

#include "crypto/sha256.h"
#include "sim/time.h"
#include "types/ids.h"

namespace bamboo::types {

/// Fixed wire overhead of a transaction besides its payload: id, client
/// metadata, timestamp, framing. Approximates Bamboo's JSON/HTTP encoding.
inline constexpr std::uint64_t kTxOverheadBytes = 150;

/// A client transaction. The simulation carries no application payload
/// bytes, only their size (payload content never affects control flow;
/// Bamboo's execution layer is an in-memory KV store). The two 8-byte
/// fields lead, so the struct packs into 32 bytes with no padding; retained
/// blocks and mempools are mostly transactions.
struct Transaction {
  TxId id = 0;
  /// Client-side submission timestamp (for end-to-end latency).
  sim::Time submitted_at = 0;
  /// Workload session that issued the transaction (for closed-loop clients).
  std::uint32_t session = 0;
  /// Replica the client submitted to; the one that will respond.
  NodeId serving_replica = 0;
  /// Network endpoint of the client host that issued the transaction
  /// (where the commit confirmation is sent).
  NodeId client_endpoint = 0;
  /// Payload size in bytes (Table I "psize").
  std::uint32_t payload_size = 0;

  [[nodiscard]] std::uint64_t wire_size() const {
    return kTxOverheadBytes + payload_size;
  }

  /// Digest contribution for block hashing.
  void absorb_into(crypto::Sha256& h) const {
    h.update_u64(id);
    h.update_u32(session);
    h.update_u32(serving_replica);
    h.update_u32(payload_size);
  }

  friend bool operator==(const Transaction&, const Transaction&) = default;
};
static_assert(sizeof(Transaction) == 32);

}  // namespace bamboo::types
