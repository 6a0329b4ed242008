#pragma once

// Durable ledger subsystem (ROADMAP item 5): the committed prefix of every
// replica's chain, kept by one BlockStore per replica.
//
// Built without a path (Config::store "memory", the default) a store is an
// in-process append log with a hash index: no file I/O and no extra
// simulated events, while it still accounts the bytes a durable store
// WOULD have written (write-amplification and disk-byte columns stay
// meaningful under "memory"). It keeps every block it was handed.
//
// Built with a path ("file"), a store keeps only the hash index in memory;
// block bodies live in an append-only log at that path and nowhere else in
// the store, so a block the forest pruned is freed. Every committed block
// is framed as
//
//   magic u32 | payload_len u32 | checksum u64 | payload
//
// (little-endian throughout; the payload is the full block encoding of
// encode_block below, including the justify QC's signatures — enough to
// rebuild the exact BlockPtr, whose constructor re-derives the hash). The
// magic is "BLK2", and the checksum slot holds crc32c(payload) with the
// upper half zero.
//
// One scanner reads the log, at construction and on every replay(): it
// streams the file record by record through one reused buffer, checks the
// framing, the checksum and the encoding, skips a record whose hash an
// earlier record had (the first wins), and stops at the first record that
// fails. That record and everything after it (a torn write, bit rot, a
// record of another format) are cut from the file, counted in StoreStats,
// and leave the hash index, so their blocks are appended again when they
// re-commit. The crash-restart churn scenario rebuilds a replica from this
// file.
//
// A RecordFramer builds the records. A cluster's file stores share one, so
// a block that every replica commits is encoded and checksummed once, and
// each store writes the same bytes it would frame alone.
//
// The store performs no simulated waiting; real bytes are accounted here.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/sha256.h"
#include "types/block.h"

namespace bamboo::storage {

/// Byte/operation accounting one store accumulates over its lifetime.
/// bytes_written is physical (record framing included for a file log);
/// logical_bytes is the wire-model size of the appended blocks — their
/// ratio is the write amplification RunResult reports. The dropped counts
/// are what the file log's scanner cut, at construction and on replays:
/// each cut counts the record that failed, and its bytes include
/// everything after it.
struct StoreStats {
  std::uint64_t appends = 0;          ///< blocks appended (after hash dedup)
  std::uint64_t reads = 0;            ///< replayed blocks served
  std::uint64_t bytes_written = 0;    ///< physical bytes written
  std::uint64_t logical_bytes = 0;    ///< wire-model bytes of appended blocks
  std::uint64_t bytes_read = 0;       ///< physical bytes read back
  std::uint64_t records_dropped = 0;  ///< failed records cut from the log
  std::uint64_t bytes_dropped = 0;    ///< bytes cut from the file log
};

/// Frames blocks as file-log records (header and encode_block payload, see
/// the header comment) in one reusable buffer, and remembers the block it
/// framed last: asked for that same object again, it returns the bytes it
/// already has. It matches by object identity, never by hash, because
/// Block::hash() leaves out fields the record carries (the justify QC's
/// height, slot and signatures, each transaction's client_endpoint and
/// submitted_at), so two blocks with one hash can have different records.
/// It holds the block weakly and compares owners (control blocks), which
/// a live weak_ptr keeps from being reused, so it pins no block. A framer
/// belongs to one cluster and so to one thread.
class RecordFramer {
 public:
  /// The record of `block`. The bytes stay valid until the next call.
  [[nodiscard]] std::span<const std::uint8_t> frame(
      const types::BlockPtr& block);

 private:
  std::vector<std::uint8_t> record_;  ///< the last record, then slack
  std::size_t record_len_ = 0;
  /// Whose record record_ holds; set once whole.
  std::weak_ptr<const types::Block> framed_;
};

/// Append-only committed-block log with a hash index: the blocks
/// themselves in memory, or, when built with a path, in a file log. Blocks
/// arrive in commit order (ascending height); append is idempotent on the
/// block hash, so a block the log holds is not written twice.
class BlockStore {
 public:
  /// An in-memory store; it accounts wire-model bytes as physical.
  BlockStore() = default;

  /// A store whose blocks live in the file log at `path`. Construction
  /// scans the log (indexing its valid records and cutting the rest), then
  /// opens (or creates) it for appending until the store is destroyed; an
  /// unopenable path throws std::runtime_error. Each append hands its whole
  /// record to the OS in one write, flushed before it returns. Records are
  /// framed through `framer`, which must outlive the store; a null `framer`
  /// gives the store its own. See the header comment for the format and
  /// the scan.
  explicit BlockStore(std::string path, RecordFramer* framer = nullptr);

  void append(const types::BlockPtr& block);

  /// Visit every stored block in append order (ascending height for a log
  /// written by commits). A file store rescans its log for this, so it
  /// serves what the file holds now, each block decoded afresh.
  /// Restart-from-disk recovery replays this into a fresh BlockForest.
  void replay(const std::function<void(const types::BlockPtr&)>& fn);

  /// Blocks held: the hash index's size.
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }
  [[nodiscard]] const StoreStats& stats() const { return stats_; }
  /// The file log's path; empty for an in-memory store.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  /// The scanner (see the header comment): rebuilds index_ from the file
  /// log and hands `fn`, when set, each indexed block in file order.
  void scan(const std::function<void(const types::BlockPtr&)>& fn);

  std::string path_;
  std::unique_ptr<RecordFramer> own_framer_;  ///< null when shared
  RecordFramer* framer_ = nullptr;            ///< null without a file log
  std::unique_ptr<std::FILE, FileCloser> out_;  ///< the open log; no copies
  std::vector<types::BlockPtr> log_;  ///< the blocks; empty with a file log
  std::unordered_set<crypto::Digest> index_;
  StoreStats stats_;
};

/// Serialize one block into the record payload encoding (little-endian
/// fields, justify QC signatures and transactions included).
[[nodiscard]] std::vector<std::uint8_t> encode_block(const types::Block& b);

/// Rebuild a block from an encode_block payload. Throws
/// std::invalid_argument on any malformed/truncated input.
[[nodiscard]] types::BlockPtr decode_block(const std::uint8_t* data,
                                           std::size_t len);

/// Factory for Config::store: "memory" (default) or "file" (at `path`,
/// framing through `framer` as the path constructor does). Throws
/// std::invalid_argument on an unknown kind.
[[nodiscard]] std::unique_ptr<BlockStore> make_store(
    const std::string& kind, const std::string& path,
    RecordFramer* framer = nullptr);

}  // namespace bamboo::storage
