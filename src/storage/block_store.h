#pragma once

// Durable ledger subsystem (ROADMAP item 5): the committed prefix of every
// replica's chain, persisted behind a small BlockStore interface.
//
// Two implementations:
//
//   MemoryBlockStore   the default — an in-process append log. Keeps the
//                      default configuration byte-identical to the pre-
//                      storage engine (no file I/O, no extra simulated
//                      events) while still accounting the bytes a durable
//                      store WOULD have written (write-amplification and
//                      disk-byte columns stay meaningful under "memory").
//
//   FileBlockStore     a real append-only log + in-memory index. Every
//                      committed block is framed as
//
//                        magic u32 | payload_len u32 | fnv1a64 checksum u64
//                        | payload
//
//                      (little-endian throughout; the payload is the full
//                      block encoding of encode_block below, including the
//                      justify QC's signatures — enough to rebuild the
//                      exact BlockPtr, whose constructor re-derives the
//                      hash). On open, the log is scanned record-by-record
//                      and the valid prefix is kept: a torn write (bad
//                      magic, short payload, checksum mismatch, malformed
//                      encoding) truncates recovery at the last good
//                      record instead of poisoning it — the crash-restart
//                      churn scenario rebuilds a replica from this file.
//
// Simulated latency: the store itself performs no simulated waiting. When
// Config::store_append_latency / store_read_latency are nonzero the
// *replica* charges them through its CPU-worker queue (the same machinery
// that models signature verification cost), so storage stalls contend with
// consensus work exactly like every other modeled cost. Real bytes are
// accounted here either way.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.h"
#include "types/block.h"

namespace bamboo::storage {

/// Byte/operation accounting one store accumulates over its lifetime.
/// bytes_written is physical (record framing included for the file store);
/// logical_bytes is the wire-model size of the appended blocks — their
/// ratio is the write amplification RunResult reports.
struct StoreStats {
  std::uint64_t appends = 0;        ///< blocks appended (after hash dedup)
  std::uint64_t reads = 0;          ///< point lookups + replay blocks served
  std::uint64_t bytes_written = 0;  ///< physical bytes written
  std::uint64_t logical_bytes = 0;  ///< wire-model bytes of appended blocks
  std::uint64_t bytes_read = 0;     ///< physical bytes read back
};

/// Append-only committed-block log. Blocks arrive in commit order
/// (ascending height); append is idempotent on the block hash so a
/// restarted replica re-committing its reloaded prefix does not double
/// the log.
class BlockStore {
 public:
  virtual ~BlockStore() = default;

  virtual void append(const types::BlockPtr& block) = 0;

  /// Point lookup by hash; counts a read. nullptr when absent.
  [[nodiscard]] virtual types::BlockPtr read(const crypto::Digest& hash) = 0;

  [[nodiscard]] virtual bool contains(const crypto::Digest& hash) const = 0;

  /// Visit every stored block in append order (ascending height for a log
  /// written by commits). Restart-from-disk recovery replays this into a
  /// fresh BlockForest.
  virtual void replay(
      const std::function<void(const types::BlockPtr&)>& fn) = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const StoreStats& stats() const { return stats_; }

 protected:
  StoreStats stats_;
};

/// The default in-process store; accounts logical bytes as physical.
class MemoryBlockStore final : public BlockStore {
 public:
  void append(const types::BlockPtr& block) override;
  [[nodiscard]] types::BlockPtr read(const crypto::Digest& hash) override;
  [[nodiscard]] bool contains(const crypto::Digest& hash) const override;
  void replay(
      const std::function<void(const types::BlockPtr&)>& fn) override;
  [[nodiscard]] std::size_t size() const override { return log_.size(); }

 private:
  std::vector<types::BlockPtr> log_;
  std::unordered_map<crypto::Digest, std::size_t> index_;
};

/// File-backed append log + index. Construction recovers the valid record
/// prefix of the log at `path`, then opens (or creates) it for appending
/// until the store is destroyed; an unopenable path throws
/// std::runtime_error. Each append hands its whole record to the OS in one
/// write, flushed before it returns. See the header comment for the
/// framing and torn-write policy.
class FileBlockStore final : public BlockStore {
 public:
  explicit FileBlockStore(std::string path);

  void append(const types::BlockPtr& block) override;
  [[nodiscard]] types::BlockPtr read(const crypto::Digest& hash) override;
  [[nodiscard]] bool contains(const crypto::Digest& hash) const override;
  void replay(
      const std::function<void(const types::BlockPtr&)>& fn) override;
  [[nodiscard]] std::size_t size() const override { return log_.size(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  void recover();

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> out_;  ///< the open log; no copies
  std::vector<types::BlockPtr> log_;
  std::unordered_map<crypto::Digest, std::size_t> index_;
  std::vector<std::uint8_t> record_;  ///< append's reusable encode buffer
};

/// Serialize one block into the record payload encoding (little-endian
/// fields, justify QC signatures and transactions included).
[[nodiscard]] std::vector<std::uint8_t> encode_block(const types::Block& b);

/// Rebuild a block from an encode_block payload. Throws
/// std::invalid_argument on any malformed/truncated input.
[[nodiscard]] types::BlockPtr decode_block(const std::uint8_t* data,
                                           std::size_t len);

/// FNV-1a 64-bit checksum (the record integrity check; no new deps).
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data,
                                    std::size_t len);

/// Factory for Config::store: "memory" (default) or "file" (at `path`).
/// Throws std::invalid_argument on an unknown kind.
[[nodiscard]] std::unique_ptr<BlockStore> make_store(const std::string& kind,
                                                     const std::string& path);

}  // namespace bamboo::storage
