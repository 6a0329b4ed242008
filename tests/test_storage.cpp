// Tests for the durable ledger subsystem (storage/block_store.h): the
// block codec, the CRC32C kernel, the store with and without a file log
// (append/replay, hash dedup, byte accounting, which of them pins its
// blocks), the exact bytes of the file log's records, torn-write recovery
// of the file log and the drops it counts, stores sharing one record
// framer writing the bytes they write alone, and the end-to-end
// crash-restart path through the harness — a replica rebuilt from the
// store it appended to before it died (also from a log torn while it was
// down), with its forest bounded by retention, the disk accounting columns
// populated and deterministic across thread counts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "client/workload.h"
#include "forest/block_forest.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "storage/block_store.h"
#include "storage/crc32c.h"
#include "types/block.h"
#include "util/hex.h"
#include "util/rng.h"

namespace bamboo {
namespace {

using storage::BlockStore;
using types::BlockPtr;

BlockPtr child_of(const BlockPtr& parent, types::View view,
                  std::uint32_t txns = 0) {
  types::Block::Fields f;
  f.parent_hash = parent->hash();
  f.view = view;
  f.height = parent->height() + 1;
  f.proposer = static_cast<types::NodeId>(view % 4);
  f.justify.view = parent->view();
  f.justify.height = parent->height();
  f.justify.block_hash = parent->hash();
  for (std::uint32_t i = 0; i < txns; ++i) {
    types::Transaction tx;
    tx.id = view * 1000 + i + 1;
    tx.session = i;
    tx.payload_size = 16;
    f.txns.push_back(tx);
  }
  return std::make_shared<const types::Block>(std::move(f));
}

/// Genesis + a chain of `n` blocks (every third carrying transactions);
/// returns the blocks tip-last.
std::vector<BlockPtr> make_chain(std::size_t n) {
  std::vector<BlockPtr> chain;
  BlockPtr cursor = types::Block::genesis();
  for (std::size_t i = 0; i < n; ++i) {
    cursor = child_of(cursor, static_cast<types::View>(i + 1),
                      i % 3 == 0 ? 5 : 0);
    chain.push_back(cursor);
  }
  return chain;
}

/// The hashes of `blocks`, in order.
std::vector<crypto::Digest> hashes_of(const std::vector<BlockPtr>& blocks) {
  std::vector<crypto::Digest> hashes;
  for (const BlockPtr& b : blocks) hashes.push_back(b->hash());
  return hashes;
}

/// The hashes `store` replays, in order.
std::vector<crypto::Digest> replayed_hashes(BlockStore& store) {
  std::vector<crypto::Digest> hashes;
  store.replay([&](const BlockPtr& b) { hashes.push_back(b->hash()); });
  return hashes;
}

/// A unique temp log path per test, removed on scope exit.
struct TempLog {
  explicit TempLog(const char* tag)
      : path((std::filesystem::temp_directory_path() /
              ("bamboo-test-store-" + std::to_string(::getpid()) + "-" +
               tag + ".blk"))
                 .string()) {
    std::filesystem::remove(path);
  }
  ~TempLog() { std::filesystem::remove(path); }
  const std::string path;
};

using Bytes = std::vector<std::uint8_t>;

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Block codec
// ---------------------------------------------------------------------------

TEST(BlockCodec, EncodeDecodeRoundTripsEverything) {
  const auto chain = make_chain(4);
  for (const BlockPtr& b : chain) {
    const auto payload = storage::encode_block(*b);
    const BlockPtr back = storage::decode_block(payload.data(),
                                                payload.size());
    // The Block constructor re-derives the hash, so hash equality covers
    // every hashed field at once.
    EXPECT_EQ(back->hash(), b->hash());
    EXPECT_EQ(back->height(), b->height());
    EXPECT_EQ(back->parent_hash(), b->parent_hash());
    EXPECT_EQ(back->justify().block_hash, b->justify().block_hash);
    EXPECT_EQ(back->txns().size(), b->txns().size());
  }
}

TEST(BlockCodec, RejectsTruncatedAndEmptyPayloads) {
  const auto chain = make_chain(1);
  const auto payload = storage::encode_block(*chain[0]);
  for (std::size_t keep : {std::size_t{0}, std::size_t{3},
                           payload.size() / 2, payload.size() - 1}) {
    EXPECT_THROW(
        static_cast<void>(storage::decode_block(payload.data(), keep)),
        std::invalid_argument)
        << "kept " << keep << " of " << payload.size();
  }
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

/// CRC32C one bit at a time, straight from the definition.
std::uint32_t crc32c_bitwise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xffffffff;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82f63b78 : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32c, MatchesRfc3720AndTheBitwiseDefinition) {
  const std::string_view check = "123456789";
  const std::vector<std::uint8_t> check_bytes(check.begin(), check.end());
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  // RFC 3720 §B.4 and the CRC catalogue's check value.
  const std::vector<std::pair<std::vector<std::uint8_t>, std::uint32_t>>
      vectors = {{check_bytes, 0xe3069283},
                 {std::vector<std::uint8_t>(32, 0x00), 0x8a9136aa},
                 {std::vector<std::uint8_t>(32, 0xff), 0x62a8ab43},
                 {ascending, 0x46dd794e},
                 {{}, 0x00000000}};
  for (const auto& [data, crc] : vectors) {
    EXPECT_EQ(storage::crc32c(data.data(), data.size()), crc);
  }

  // Random lengths (every tail length below 8) at random offsets, so the
  // slicing kernel's 8-byte steps start unaligned too.
  util::Rng rng(3720);
  std::vector<std::uint8_t> buffer(600);
  for (std::uint8_t& byte : buffer) {
    byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const auto offset = static_cast<std::size_t>(rng.uniform_u64(16));
    const auto len = static_cast<std::size_t>(rng.uniform_u64(560));
    EXPECT_EQ(storage::crc32c(buffer.data() + offset, len),
              crc32c_bitwise(buffer.data() + offset, len))
        << "offset " << offset << ", length " << len;
  }
}

// ---------------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------------

TEST(MemoryStore, AppendsDedupeAndAccountLogicalBytes) {
  BlockStore store;
  const auto chain = make_chain(3);
  for (const BlockPtr& b : chain) store.append(b);
  store.append(chain[0]);  // duplicate: idempotent on the hash
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().appends, 3u);
  // The in-memory store accounts the bytes a durable store WOULD have
  // written, with no framing: write amplification is exactly 1.
  EXPECT_GT(store.stats().bytes_written, 0u);
  EXPECT_EQ(store.stats().bytes_written, store.stats().logical_bytes);

  EXPECT_EQ(replayed_hashes(store), hashes_of(chain));
  EXPECT_EQ(store.stats().reads, 3u);
  EXPECT_EQ(store.stats().bytes_read, store.stats().logical_bytes);
}

TEST(FileStore, RoundTripsBlocksAcrossReopen) {
  TempLog log("roundtrip");
  const auto chain = make_chain(8);
  {
    BlockStore store(log.path);
    EXPECT_TRUE(store.empty());
    for (const BlockPtr& b : chain) store.append(b);
    store.append(chain[2]);  // dedup: the log must not grow
    EXPECT_EQ(store.size(), 8u);
    EXPECT_EQ(store.stats().appends, 8u);
    // Physical bytes are the real file size; logical bytes follow the
    // wire model, which also charges the simulated transaction payloads —
    // so the two legitimately diverge (framing up, compact records down).
    EXPECT_GT(store.stats().bytes_written, 0u);
    EXPECT_EQ(store.stats().bytes_written,
              std::filesystem::file_size(log.path));
    EXPECT_NE(store.stats().bytes_written, store.stats().logical_bytes);
  }
  // Reopen: recovery rebuilds the log and index from the file alone.
  BlockStore reopened(log.path);
  EXPECT_EQ(reopened.size(), 8u);
  std::vector<BlockPtr> replayed;
  reopened.replay([&](const BlockPtr& b) { replayed.push_back(b); });
  EXPECT_EQ(hashes_of(replayed), hashes_of(chain));
  ASSERT_EQ(replayed.size(), 8u);
  EXPECT_EQ(replayed[5]->height(), 6u);
  EXPECT_EQ(replayed[5]->txns().size(), chain[5]->txns().size());
}

TEST(FileStore, TornWriteIsTruncatedToTheValidPrefix) {
  TempLog log("torn");
  const auto chain = make_chain(5);
  {
    BlockStore store(log.path);
    for (const BlockPtr& b : chain) store.append(b);
  }
  // Simulate a crash mid-write: chop the tail of the last record.
  const auto full = std::filesystem::file_size(log.path);
  std::filesystem::resize_file(log.path, full - 7);

  BlockStore recovered(log.path);
  EXPECT_EQ(replayed_hashes(recovered),
            hashes_of(std::vector<BlockPtr>(chain.begin(), chain.end() - 1)));
  // The store keeps working after recovery: re-append the lost block and
  // it survives the next reopen.
  recovered.append(chain[4]);
  EXPECT_EQ(recovered.size(), 5u);
  BlockStore again(log.path);
  EXPECT_EQ(replayed_hashes(again), hashes_of(chain));
}

TEST(FileStore, ChecksumMismatchRejectsTheCorruptedSuffix) {
  TempLog log("corrupt");
  const auto chain = make_chain(5);
  {
    BlockStore store(log.path);
    for (const BlockPtr& b : chain) store.append(b);
  }
  // Flip the last payload byte: length and magic still parse, but the
  // checksum catches the rot and recovery stops at record 4.
  {
    std::fstream f(log.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(-1, std::ios::end);
    char byte = 0;
    f.get(byte);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(byte ^ 0x5a));
  }
  BlockStore recovered(log.path);
  EXPECT_EQ(replayed_hashes(recovered),
            hashes_of(std::vector<BlockPtr>(chain.begin(), chain.end() - 1)));
}

TEST(StoreFactory, MakesBothKindsAndRejectsUnknown) {
  TempLog log("factory");
  const auto mem = storage::make_store("memory", "");
  EXPECT_TRUE(mem->path().empty());
  EXPECT_FALSE(std::filesystem::exists(log.path));
  const auto file = storage::make_store("file", log.path);
  EXPECT_EQ(file->path(), log.path);
  EXPECT_TRUE(std::filesystem::exists(log.path));
  EXPECT_THROW(static_cast<void>(storage::make_store("cloud", "")),
               std::invalid_argument);
}

TEST(FileStore, DoesNotPinAppendedBlocks) {
  // A file store's blocks live in its log: once the caller drops a block
  // it appended, the block is freed. The memory store keeps every block.
  TempLog log("pin");
  BlockStore file(log.path);
  BlockStore memory;
  std::weak_ptr<const types::Block> in_file;
  std::weak_ptr<const types::Block> in_memory;
  {
    const auto chain = make_chain(2);
    file.append(chain[0]);
    memory.append(chain[1]);
    in_file = chain[0];
    in_memory = chain[1];
  }
  EXPECT_TRUE(in_file.expired());
  EXPECT_FALSE(in_memory.expired());
  EXPECT_EQ(file.size(), 1u);
  EXPECT_EQ(replayed_hashes(file).size(), 1u);
}

static_assert(!std::is_copy_constructible_v<BlockStore> &&
                  !std::is_copy_assignable_v<BlockStore>,
              "a file store owns its open log");

TEST(FileStore, UnopenablePathThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bamboo-test-no-such-dir-" + std::to_string(::getpid())) / "x.blk")
          .string();
  const auto chain = make_chain(1);
  try {
    BlockStore store(path);
    store.append(chain[0]);
    FAIL() << "no error for " << path;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "block store: cannot open " + path);
  }
}

TEST(FileStore, ReadsCountTheRecordBytesOnDisk) {
  TempLog log("bytes-read");
  const auto chain = make_chain(9);
  BlockStore store(log.path);
  for (const BlockPtr& b : chain) store.append(b);
  const std::uint64_t file_size = std::filesystem::file_size(log.path);
  store.replay([](const BlockPtr&) {});
  EXPECT_EQ(store.stats().bytes_read, file_size);
  EXPECT_EQ(store.stats().reads, chain.size());

  // A reopened store counts the same bytes for the records it recovered.
  BlockStore reopened(log.path);
  reopened.replay([](const BlockPtr&) {});
  EXPECT_EQ(reopened.stats().bytes_read, file_size);
}

// ---------------------------------------------------------------------------
// On-disk record format
// ---------------------------------------------------------------------------

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// A child of `parent` whose transactions differ in every encoded field
/// and whose justify QC carries `sigs` signatures.
BlockPtr varied_child(const BlockPtr& parent, types::View view,
                      std::uint32_t txns, std::uint32_t sigs) {
  types::Block::Fields f;
  f.parent_hash = parent->hash();
  f.view = view;
  f.height = parent->height() + 1;
  f.slot = view % 2;
  f.proposer = static_cast<types::NodeId>(view % 4);
  f.justify.view = parent->view();
  f.justify.height = parent->height();
  f.justify.slot = parent->slot();
  f.justify.block_hash = parent->hash();
  for (std::uint32_t s = 0; s < sigs; ++s) {
    crypto::Signature sig;
    sig.signer = 2 * s + 1;
    sig.tag = crypto::Sha256::hash("tag " + std::to_string(view * 10 + s));
    f.justify.sigs.push_back(sig);
  }
  for (std::uint32_t i = 0; i < txns; ++i) {
    types::Transaction tx;
    tx.id = (std::uint64_t{view} << 40) | (i * 7919 + 1);
    tx.session = 1000 * static_cast<std::uint32_t>(view) + i;
    tx.serving_replica = i % 4;
    tx.client_endpoint = 4 + i % 3;
    tx.submitted_at = sim::milliseconds(static_cast<std::int64_t>(view)) +
                      static_cast<sim::Time>(i) * 1237;
    tx.payload_size = 16 * (i + 1) + static_cast<std::uint32_t>(view);
    f.txns.push_back(tx);
  }
  return std::make_shared<const types::Block>(std::move(f));
}

TEST(RecordFormat, FileHoldsExactlyTheFramedRecords) {
  TempLog log("format");
  const BlockPtr b1 = varied_child(types::Block::genesis(), 1, 0, 0);
  const BlockPtr b2 = varied_child(b1, 2, 3, 3);
  const BlockPtr b3 = varied_child(b2, 4, 11, 5);
  {
    BlockStore store(log.path);
    for (const BlockPtr& b : {b1, b2, b3}) store.append(b);
  }
  // Per record: magic "BLK2" (u32), payload length (u32),
  // crc32c(payload) zero-extended (u64), payload = encode_block(b);
  // little-endian.
  std::vector<std::uint8_t> expected;
  for (const BlockPtr& b : {b1, b2, b3}) {
    const std::vector<std::uint8_t> payload = storage::encode_block(*b);
    put_le(expected, 0x324b4c42, 4);
    put_le(expected, payload.size(), 4);
    put_le(expected, storage::crc32c(payload.data(), payload.size()), 8);
    expected.insert(expected.end(), payload.begin(), payload.end());
  }
  EXPECT_EQ(expected[0], 'B');
  EXPECT_EQ(expected[3], '2');
  std::ifstream in(log.path, std::ios::binary);
  const std::vector<std::uint8_t> on_disk(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, expected);
}

TEST(RecordFormat, BlockEncodingIsPinned) {
  types::Block::Fields f;
  for (std::size_t i = 0; i < 32; ++i) {
    f.parent_hash[i] = static_cast<std::uint8_t>(i);
    f.justify.block_hash[i] = static_cast<std::uint8_t>(0xe0 + i);
  }
  f.view = 0x0102;
  f.height = 0x0a0b0c;
  f.slot = 2;
  f.proposer = 3;
  f.justify.view = 0x0101;
  f.justify.height = 0x0a0b0b;
  f.justify.slot = 1;
  for (const crypto::SignerId signer : {0u, 2u, 5u}) {
    crypto::Signature sig;
    sig.signer = signer;
    for (std::size_t i = 0; i < 32; ++i)
      sig.tag[i] = static_cast<std::uint8_t>(0x10 * signer + i);
    f.justify.sigs.push_back(sig);
  }
  types::Transaction tx;
  tx.id = 0x1122334455667788;
  tx.session = 7;
  tx.serving_replica = 1;
  tx.client_endpoint = 9;
  tx.submitted_at = 1500000000;
  tx.payload_size = 512;
  f.txns.push_back(tx);
  tx.id = 2;
  tx.session = 8;
  tx.serving_replica = 3;
  tx.client_endpoint = 10;
  tx.submitted_at = 42;
  tx.payload_size = 0;
  f.txns.push_back(tx);
  const types::Block block(std::move(f));
  EXPECT_EQ(
      util::to_hex(storage::encode_block(block)),
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
      "02010000000000000c0b0a000000000002000000030000000101000000000000"
      "0b0b0a000000000001000000e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3"
      "f4f5f6f7f8f9fafbfcfdfeff0300000000000000000102030405060708090a0b"
      "0c0d0e0f101112131415161718191a1b1c1d1e1f020000002021222324252627"
      "28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f0500000050515253"
      "5455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f02000000"
      "8877665544332211070000000100000009000000002f68590000000000020000"
      "020000000000000008000000030000000a0000002a0000000000000000000000");
}

// ---------------------------------------------------------------------------
// Byte-level mutation of the file log
// ---------------------------------------------------------------------------

/// A chain of 1..12 blocks with random signature and transaction counts.
std::vector<BlockPtr> random_chain(util::Rng& rng) {
  std::vector<BlockPtr> chain;
  BlockPtr cursor = types::Block::genesis();
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  for (std::size_t i = 0; i < n; ++i) {
    cursor = varied_child(cursor, static_cast<types::View>(i + 1),
                          static_cast<std::uint32_t>(rng.uniform_int(0, 6)),
                          static_cast<std::uint32_t>(rng.uniform_int(0, 4)));
    chain.push_back(cursor);
  }
  return chain;
}

/// Offset just past each record of a log holding `chain`.
std::vector<std::size_t> record_ends(const std::vector<BlockPtr>& chain) {
  std::vector<std::size_t> ends;
  std::size_t at = 0;
  for (const BlockPtr& b : chain) {
    at += 16 + storage::encode_block(*b).size();
    ends.push_back(at);
  }
  return ends;
}

/// Reopen the mutated log at `path`: recovery must not throw, must keep
/// exactly `kept` in order, and must truncate the file to `size`. The store
/// then takes one more append, which survives another reopen.
void expect_recovers(const std::string& path,
                     const std::vector<BlockPtr>& kept, std::size_t size,
                     const BlockPtr& next, const std::string& what) {
  SCOPED_TRACE(what);
  std::unique_ptr<BlockStore> store;
  ASSERT_NO_THROW(store = std::make_unique<BlockStore>(path));
  std::vector<crypto::Digest> replayed;
  store->replay([&](const BlockPtr& b) { replayed.push_back(b->hash()); });
  ASSERT_EQ(replayed.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(replayed[i], kept[i]->hash()) << "record " << i;
  }
  EXPECT_EQ(std::filesystem::file_size(path), size);

  store->append(next);
  store.reset();
  BlockStore again(path);
  replayed.clear();
  again.replay([&](const BlockPtr& b) { replayed.push_back(b->hash()); });
  ASSERT_EQ(replayed.size(), kept.size() + 1);
  EXPECT_EQ(replayed.back(), next->hash());
}

TEST(FileStoreMutation, RecoveryCountsWhatItDrops) {
  // A torn tail drops the torn record; a flipped payload byte drops its
  // record and every intact record after it. Each cut counts as one
  // record, and its bytes run to the end of the file. The dropped blocks
  // leave the hash index, so appending them again writes them again.
  TempLog log("drops");
  const auto chain = make_chain(5);
  {
    BlockStore store(log.path);
    for (const BlockPtr& b : chain) store.append(b);
  }
  const std::vector<std::size_t> ends = record_ends(chain);
  ASSERT_EQ(std::filesystem::file_size(log.path), ends[4]);

  std::filesystem::resize_file(log.path, ends[4] - 7);
  {
    BlockStore torn(log.path);
    EXPECT_EQ(torn.stats().records_dropped, 1u);
    EXPECT_EQ(torn.stats().bytes_dropped, ends[4] - 7 - ends[3]);
    EXPECT_EQ(torn.size(), 4u);
    EXPECT_EQ(std::filesystem::file_size(log.path), ends[3]);
  }

  Bytes bytes = read_bytes(log.path);
  bytes[ends[1] + 16 + 40] ^= 0x10;  // in record 2's payload
  write_bytes(log.path, bytes);
  BlockStore flipped(log.path);
  EXPECT_EQ(flipped.stats().records_dropped, 1u);
  EXPECT_EQ(flipped.stats().bytes_dropped, ends[3] - ends[1]);
  EXPECT_EQ(flipped.size(), 2u);
  EXPECT_EQ(std::filesystem::file_size(log.path), ends[1]);
  for (std::size_t i = 2; i < chain.size(); ++i) flipped.append(chain[i]);
  EXPECT_EQ(flipped.stats().appends, 3u);
  EXPECT_EQ(replayed_hashes(flipped), hashes_of(chain));
}

TEST(FileStoreMutation, LogOfTheFirstFormatIsCutAndCounted) {
  // Only "BLK2" records are read. A log whose records carry the first
  // format's magic ("BLK1") fails at its first record, so the scan cuts
  // the whole file and counts it as one dropped record.
  TempLog log("first-format");
  const auto chain = make_chain(3);
  {
    BlockStore store(log.path);
    for (const BlockPtr& b : chain) store.append(b);
  }
  Bytes bytes = read_bytes(log.path);
  const std::uint64_t size = bytes.size();
  bytes[3] = '1';
  write_bytes(log.path, bytes);
  BlockStore store(log.path);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.stats().records_dropped, 1u);
  EXPECT_EQ(store.stats().bytes_dropped, size);
  EXPECT_EQ(std::filesystem::file_size(log.path), 0u);
}

TEST(FileStoreMutation, ReplayRescansTheFileAndCountsWhatItDrops) {
  // An open store's log is damaged behind its back (a flipped byte in
  // record 3, record 5 torn): replay serves the records before the damage,
  // counts and cuts the rest, and the store appends the lost blocks again.
  TempLog log("replay-drops");
  const auto chain = make_chain(6);
  BlockStore store(log.path);
  for (const BlockPtr& b : chain) store.append(b);
  const std::vector<std::size_t> ends = record_ends(chain);
  Bytes bytes = read_bytes(log.path);
  bytes[ends[2] + 16 + 9] ^= 0x01;
  bytes.resize(ends[5] - 5);
  write_bytes(log.path, bytes);

  EXPECT_EQ(replayed_hashes(store),
            hashes_of(std::vector<BlockPtr>(chain.begin(), chain.begin() + 3)));
  EXPECT_EQ(store.stats().reads, 3u);
  EXPECT_EQ(store.stats().bytes_read, ends[2]);
  EXPECT_EQ(store.stats().records_dropped, 1u);  // the cut at record 3
  EXPECT_EQ(store.stats().bytes_dropped, ends[5] - 5 - ends[2]);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(std::filesystem::file_size(log.path), ends[2]);

  for (const BlockPtr& b : chain) store.append(b);
  EXPECT_EQ(store.stats().appends, chain.size() + 3);
  BlockStore reopened(log.path);
  EXPECT_EQ(replayed_hashes(reopened), hashes_of(chain));
  EXPECT_EQ(reopened.stats().records_dropped, 0u);
}

TEST(FileStoreMutation, RecoveryKeepsTheValidPrefixOfAnyCorruptedLog) {
  // Flip, overwrite or cut random bytes anywhere in a log. The first
  // changed byte breaks its record: the magic, the length or the CRC32C
  // checksum no longer match. Recovery keeps exactly the records before it.
  TempLog log("mutate-bytes");
  util::Rng rng(1801);
  for (int trial = 0; trial < 300; ++trial) {
    std::filesystem::remove(log.path);
    const auto chain = random_chain(rng);
    {
      BlockStore store(log.path);
      for (const BlockPtr& b : chain) store.append(b);
    }
    const Bytes original = read_bytes(log.path);
    const std::vector<std::size_t> ends = record_ends(chain);
    ASSERT_EQ(ends.back(), original.size());

    Bytes mutated = original;
    std::string what;
    switch (rng.uniform_int(0, 2)) {
      case 0: {  // flip a few bits
        const auto flips = rng.uniform_int(1, 4);
        for (std::int64_t f = 0; f < flips; ++f) {
          const auto at = rng.uniform_u64(mutated.size());
          mutated[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        what = "flip";
        break;
      }
      case 1: {  // overwrite a short run with random bytes
        const auto at = rng.uniform_u64(mutated.size());
        const auto len = std::min<std::size_t>(
            static_cast<std::size_t>(rng.uniform_int(1, 8)),
            mutated.size() - at);
        for (std::size_t i = 0; i < len; ++i) {
          mutated[at + i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        what = "overwrite";
        break;
      }
      default:  // cut the log short
        mutated.resize(rng.uniform_u64(mutated.size()));
        what = "truncate";
        break;
    }
    write_bytes(log.path, mutated);

    // The first byte that differs (or the cut) decides the valid prefix.
    std::size_t first = 0;
    while (first < mutated.size() && mutated[first] == original[first]) {
      ++first;
    }
    const auto intact = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), first) - ends.begin());
    const std::vector<BlockPtr> kept(chain.begin(),
                                     chain.begin() + static_cast<long>(intact));
    expect_recovers(log.path, kept, intact == 0 ? 0 : ends[intact - 1],
                    varied_child(chain.back(), 1000, 1, 1),
                    what + " trial " + std::to_string(trial));
  }
}

TEST(FileStoreMutation, EditedPayloadsWithValidChecksumsReachTheDecoder) {
  // Edit one record's payload and recompute its checksum, so the record
  // framing holds and decode_block's own bounds checks must refuse it:
  // signature and transaction counts the payload cannot hold, a short
  // payload, trailing bytes. An edit that still decodes is a valid record
  // and is kept; recovery stops at the first refused one.
  TempLog log("mutate-payload");
  util::Rng rng(1802);
  std::map<std::string, int> refusals;
  for (int trial = 0; trial < 300; ++trial) {
    std::filesystem::remove(log.path);
    const auto chain = random_chain(rng);
    {
      BlockStore store(log.path);
      for (const BlockPtr& b : chain) store.append(b);
    }
    const Bytes original = read_bytes(log.path);
    const std::vector<std::size_t> ends = record_ends(chain);
    const auto k = static_cast<std::size_t>(rng.uniform_u64(chain.size()));
    const std::size_t begin = k == 0 ? 0 : ends[k - 1];
    Bytes payload(original.begin() + static_cast<long>(begin + 16),
                  original.begin() + static_cast<long>(ends[k]));

    const auto put_u32 = [&](std::size_t at, std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        payload[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
      }
    };
    const auto random_count = [&] {
      return static_cast<std::uint32_t>(
          rng.uniform_int(0, 1) == 0 ? rng.uniform_int(0, 16)
                                     : rng.uniform_int(0, 0xffffffff));
    };
    // Payload layout: 56 bytes of block fields, then the justify QC's 52
    // fixed bytes and its signature count, 36 bytes per signature, then
    // the transaction count.
    const std::size_t nsigs_at = 56 + 52;
    const std::size_t ntx_at =
        nsigs_at + 4 + 36 * chain[k]->justify().sigs.size();
    switch (rng.uniform_int(0, 4)) {
      case 0:
        put_u32(nsigs_at, random_count());
        break;
      case 1:
        put_u32(ntx_at, random_count());
        break;
      case 2:  // a short payload
        payload.resize(rng.uniform_u64(payload.size()));
        break;
      case 3:  // trailing bytes
        payload.resize(payload.size() + rng.uniform_u64(40) + 1, 0x5a);
        break;
      default:  // random bytes anywhere in the payload
        for (std::int64_t i = rng.uniform_int(1, 4); i > 0; --i) {
          payload[rng.uniform_u64(payload.size())] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        break;
    }

    Bytes mutated(original.begin(),
                  original.begin() + static_cast<long>(begin));
    put_le(mutated, 0x324b4c42, 4);
    put_le(mutated, payload.size(), 4);
    put_le(mutated, storage::crc32c(payload.data(), payload.size()), 8);
    mutated.insert(mutated.end(), payload.begin(), payload.end());
    mutated.insert(mutated.end(), original.begin() + static_cast<long>(ends[k]),
                   original.end());
    write_bytes(log.path, mutated);

    std::vector<BlockPtr> kept(chain.begin(),
                               chain.begin() + static_cast<long>(k));
    std::size_t size = begin;
    try {
      kept.push_back(storage::decode_block(payload.data(), payload.size()));
      kept.insert(kept.end(), chain.begin() + static_cast<long>(k + 1),
                  chain.end());
      size = mutated.size();
    } catch (const std::invalid_argument& e) {
      ++refusals[e.what()];
    }
    expect_recovers(log.path, kept, size,
                    varied_child(chain.back(), 1000, 1, 1),
                    "trial " + std::to_string(trial) + ", record " +
                        std::to_string(k));
  }
  // Every bounds check of the decoder refused at least one edit.
  EXPECT_GT(refusals["block record truncated"], 0);
  EXPECT_GT(refusals["block record truncated (qc sigs)"], 0);
  EXPECT_GT(refusals["block record truncated (txns)"], 0);
  EXPECT_GT(refusals["block record has trailing bytes"], 0);
}

// ---------------------------------------------------------------------------
// Stores sharing one record framer
// ---------------------------------------------------------------------------

/// A unique temp directory per test, removed on scope exit.
struct TempDir {
  explicit TempDir(const char* tag)
      : path((std::filesystem::temp_directory_path() /
              ("bamboo-test-store-" + std::to_string(::getpid()) + "-" +
               tag))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (std::filesystem::path(path) / name).string();
  }
  const std::string path;
};

/// `b` with `first_signer`'s justify signatures in place of b's. The hash
/// leaves the QC's signatures out, so the twin has b's hash and another
/// record.
BlockPtr resigned(const BlockPtr& b, crypto::SignerId first_signer) {
  types::Block::Fields f;
  f.parent_hash = b->parent_hash();
  f.view = b->view();
  f.height = b->height();
  f.slot = b->slot();
  f.proposer = b->proposer();
  f.justify = b->justify();
  for (crypto::Signature& sig : f.justify.sigs) {
    sig.signer += first_signer;
    sig.tag = crypto::Sha256::hash("resigned " + std::to_string(sig.signer));
  }
  f.txns = b->txns();
  return std::make_shared<const types::Block>(std::move(f));
}

TEST(SharedFramer, StoresWriteTheBytesTheyWriteAlone) {
  // Seven stores that share one framer and seven lone stores take the same
  // appends; each shared store's log must equal its lone twin's.
  constexpr std::size_t kStores = 7;
  std::vector<BlockPtr> chain;
  BlockPtr cursor = types::Block::genesis();
  for (types::View v = 1; v <= 6; ++v) {
    cursor = varied_child(cursor, v, 2 + v, 3);
    chain.push_back(cursor);
  }
  // An equal block rebuilt by the decoder: another object, the same record.
  const BlockPtr built = varied_child(chain.back(), 7, 4, 3);
  const std::vector<std::uint8_t> payload = storage::encode_block(*built);
  const BlockPtr rebuilt = storage::decode_block(payload.data(),
                                                 payload.size());
  ASSERT_NE(rebuilt, built);
  ASSERT_EQ(rebuilt->hash(), built->hash());
  // Two blocks with one hash and different records.
  const BlockPtr twin_a = varied_child(built, 8, 5, 3);
  const BlockPtr twin_b = resigned(twin_a, 10);
  ASSERT_EQ(twin_a->hash(), twin_b->hash());
  ASSERT_NE(storage::encode_block(*twin_a), storage::encode_block(*twin_b));
  const BlockPtr last = varied_child(twin_a, 9, 2, 3);

  std::vector<std::pair<std::size_t, BlockPtr>> appends;
  const auto by_all = [&](const BlockPtr& b) {
    for (std::size_t s = 0; s < kStores; ++s) appends.emplace_back(s, b);
  };
  by_all(chain[0]);
  by_all(chain[1]);
  for (std::size_t h = 2; h < 5; ++h) {  // store 6 falls behind
    for (std::size_t s = 0; s < 6; ++s) appends.emplace_back(s, chain[h]);
  }
  // ...and catches up between the others' appends of the next block.
  for (std::size_t s = 0; s < 6; ++s) {
    appends.emplace_back(s, chain[5]);
    if (s < 3) appends.emplace_back(6, chain[2 + s]);
  }
  appends.emplace_back(6, chain[5]);
  for (std::size_t s = 0; s < kStores; ++s) {
    appends.emplace_back(s, s % 2 == 0 ? built : rebuilt);
  }
  for (std::size_t s = 0; s < kStores; ++s) {
    appends.emplace_back(s, s == 0 || s == 2 || s == 5 ? twin_a : twin_b);
  }
  by_all(last);

  TempDir dir("shared-framer");
  const auto path = [&](const char* kind, std::size_t s) {
    return dir.file(kind + std::to_string(s) + ".blk");
  };
  {
    storage::RecordFramer framer;
    std::vector<std::unique_ptr<BlockStore>> shared;
    std::vector<std::unique_ptr<BlockStore>> lone;
    for (std::size_t s = 0; s < kStores; ++s) {
      shared.push_back(
          std::make_unique<BlockStore>(path("shared", s), &framer));
      lone.push_back(std::make_unique<BlockStore>(path("lone", s)));
    }
    for (const auto& [s, b] : appends) shared[s]->append(b);
    for (const auto& [s, b] : appends) lone[s]->append(b);
    for (std::size_t s = 0; s < kStores; ++s) {
      EXPECT_EQ(shared[s]->size(), 9u) << "store " << s;
      EXPECT_EQ(shared[s]->stats().bytes_written,
                lone[s]->stats().bytes_written)
          << "store " << s;
    }
  }
  for (std::size_t s = 0; s < kStores; ++s) {
    EXPECT_EQ(read_bytes(path("shared", s)), read_bytes(path("lone", s)))
        << "store " << s;
  }
  // The twins reach the logs: stores 0 and 1 hold different bytes.
  EXPECT_NE(read_bytes(path("lone", 0)), read_bytes(path("lone", 1)));
}

TEST(SharedFramer, ClusterLogsEqualLoneStoresFedTheirBlocks) {
  // A file-store cluster through a crash-restart, a partition whose heal
  // ends in a snapshot install, and a loss burst. A lone store fed each
  // replica's blocks in replay order must write that replica's log byte
  // for byte.
  TempDir dir("cluster");
  core::Config cfg;
  cfg.protocol = "2chs";
  cfg.n_replicas = 7;
  cfg.bsize = 100;
  cfg.memsize = 200000;
  cfg.seed = 23;
  cfg.store = "file";
  cfg.store_path = dir.path;
  cfg.timeout = sim::milliseconds(30);
  cfg.sync_batch = 4;
  cfg.snapshot_gap = 8;
  cfg.churn =
      "partition@0.2s:groups=0-1-2-3-4-5|6;heal@0.5s;"
      "burst@0.6s:replica=3:loss=0.9:for=0.1s;"
      "crash-restart@0.7s:replica=5:for=0.15s";
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kClosedLoop;
  wl.concurrency = 64;

  harness::Cluster cluster(cfg);
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  harness::install_churn(cluster, harness::effective_churn({}, cfg));
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1.2));

  EXPECT_EQ(cluster.restarts(), 1u);
  EXPECT_GT(cluster.replica(6).sync_stats().snapshots_installed, 0u);
  EXPECT_TRUE(cluster.check_consistency().consistent);
  for (types::NodeId id = 0; id < cfg.n_replicas; ++id) {
    std::vector<BlockPtr> blocks;
    cluster.store(id).replay(
        [&](const BlockPtr& b) { blocks.push_back(b); });
    EXPECT_GT(blocks.size(), 8u) << "replica " << id;
    const std::string lone_path = dir.file("lone" + std::to_string(id));
    {
      BlockStore lone(lone_path);
      for (const BlockPtr& b : blocks) lone.append(b);
    }
    EXPECT_EQ(read_bytes(lone_path),
              read_bytes(dir.file("replica" + std::to_string(id) + ".blk")))
        << "replica " << id;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: crash-restart recovery from the durable store
// ---------------------------------------------------------------------------

/// A file-store cluster with a closed-loop client workload, built but not
/// started: `cfg` fills in everything else.
struct FileStoreCluster {
  explicit FileStoreCluster(core::Config cfg)
      : cluster(std::move(cfg)),
        driver(cluster.simulator(), cluster.network(), cluster.config(),
               workload()) {
    driver.install();
    harness::install_churn(cluster,
                           harness::effective_churn({}, cluster.config()));
  }
  static client::WorkloadConfig workload() {
    client::WorkloadConfig wl;
    wl.mode = client::LoadMode::kClosedLoop;
    wl.concurrency = 64;
    return wl;
  }
  void start() {
    cluster.start();
    driver.start();
  }
  void run_for(double seconds) {
    cluster.simulator().run_for(sim::from_seconds(seconds));
  }
  harness::Cluster cluster;
  client::WorkloadDriver driver;
};

core::Config file_store_config(const std::string& protocol,
                               std::uint32_t n) {
  core::Config cfg;
  cfg.protocol = protocol;
  cfg.n_replicas = n;
  cfg.bsize = 100;
  cfg.memsize = 200000;
  cfg.seed = 47;
  cfg.store = "file";
  cfg.sync_batch = 8;
  cfg.sync_timeout = sim::milliseconds(80);
  cfg.sync_retries = 4;
  return cfg;
}

/// Offset just past each whole record of a file log's bytes.
std::vector<std::size_t> file_record_ends(const Bytes& bytes) {
  std::vector<std::size_t> ends;
  std::size_t at = 0;
  while (bytes.size() - at >= 16) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(
                 bytes[at + 4 + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    if (len > bytes.size() - at - 16) break;
    at += 16 + len;
    ends.push_back(at);
  }
  return ends;
}

TEST(StorageRecovery, LogTornWhileDownRecoversItsValidPrefix) {
  // A replica's log is cut in the middle of a record while the replica is
  // down. The restart must rebuild exactly the records before the cut and
  // count the torn one as dropped; then the replica catches up through
  // chain sync, re-appends what the cut lost, and stays consistent.
  TempDir dir("torn-while-down");
  core::Config cfg = file_store_config("2chs", 4);
  cfg.store_path = dir.path;
  FileStoreCluster run(cfg);
  run.start();
  run.run_for(0.3);
  run.cluster.crash_replica(3);
  const types::Height crashed_at =
      run.cluster.replica(3).forest().committed_height();
  run.run_for(0.1);

  const std::string path = dir.file("replica3.blk");
  const Bytes bytes = read_bytes(path);
  const std::vector<std::size_t> ends = file_record_ends(bytes);
  ASSERT_EQ(ends.size(), crashed_at);  // the log is the chain from height 1
  ASSERT_EQ(ends.back(), bytes.size());
  ASSERT_GT(ends.size(), 10u);
  const std::size_t kept = ends.size() / 2;
  const std::size_t cut = ends[kept - 1] + (ends[kept] - ends[kept - 1]) / 2;
  write_bytes(path, Bytes(bytes.begin(), bytes.begin() + static_cast<long>(cut)));
  std::vector<crypto::Digest> expected;
  for (std::size_t i = 0; i < kept; ++i) {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    expected.push_back(storage::decode_block(bytes.data() + begin + 16,
                                             ends[i] - begin - 16)
                           ->hash());
  }

  run.cluster.restart_replica(3);
  const forest::BlockForest& rebuilt = run.cluster.replica(3).forest();
  ASSERT_EQ(rebuilt.committed_height(), kept);
  for (std::size_t h = 1; h <= kept; ++h) {
    EXPECT_EQ(rebuilt.committed_hash_at(h), expected[h - 1]) << h;
  }
  const storage::StoreStats& stats = run.cluster.store(3).stats();
  EXPECT_EQ(stats.records_dropped, 1u);
  EXPECT_EQ(stats.bytes_dropped, cut - ends[kept - 1]);
  EXPECT_EQ(stats.reads, kept);
  EXPECT_EQ(run.cluster.store(3).size(), kept);
  EXPECT_EQ(std::filesystem::file_size(path), ends[kept - 1]);

  run.run_for(0.6);
  const core::Replica& back = run.cluster.replica(3);
  EXPECT_GT(back.sync_stats().blocks_applied, 0u);
  EXPECT_GT(back.forest().committed_height(), crashed_at);
  EXPECT_TRUE(run.cluster.check_consistency().consistent);
  // The log holds the chain again: the lost blocks re-committed through
  // sync and were appended after the valid prefix.
  const std::vector<crypto::Digest> logged =
      replayed_hashes(run.cluster.store(3));
  ASSERT_GT(logged.size(), crashed_at);
  for (std::size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(back.forest().committed_hash_at(i + 1), logged[i]) << i;
  }
}

/// Weak references to every block any replica committed.
class CommitTracker : public core::ReplicaObserver {
 public:
  void on_commit(const core::Replica&, const BlockPtr& block) override {
    committed_.push_back(block);
  }
  /// Committed blocks still alive.
  [[nodiscard]] std::size_t alive() const {
    std::set<const types::Block*> live;
    for (const std::weak_ptr<const types::Block>& block : committed_) {
      if (const BlockPtr b = block.lock()) live.insert(b.get());
    }
    return live.size();
  }
  [[nodiscard]] std::size_t commits() const { return committed_.size(); }

 private:
  std::vector<std::weak_ptr<const types::Block>> committed_;
};

TEST(StorageRecovery, RetainedBlocksDoNotGrowWithRunLength) {
  // With retention 16 a replica's forest keeps 16 committed blocks, and a
  // file store keeps none in memory, so the committed blocks alive at run
  // end do not grow with the run's length, a crash-restart's reload
  // included.
  const auto alive_after = [](double seconds, std::size_t& commits) {
    CommitTracker tracker;
    core::Config cfg = file_store_config("2chs", 4);
    cfg.retention = 16;
    cfg.churn = "crash-restart@0.4s:replica=2:for=0.2s";
    FileStoreCluster run(cfg);
    run.cluster.attach(tracker);
    run.start();
    run.run_for(seconds);
    EXPECT_EQ(run.cluster.restarts(), 1u);
    EXPECT_TRUE(run.cluster.check_consistency().consistent);
    commits = tracker.commits();
    return tracker.alive();
  };
  std::size_t short_commits = 0;
  std::size_t long_commits = 0;
  const std::size_t short_alive = alive_after(1.0, short_commits);
  const std::size_t long_alive = alive_after(3.0, long_commits);
  ASSERT_GT(long_commits, 2 * short_commits);
  EXPECT_LE(long_alive, short_alive + 4);
  EXPECT_LE(long_alive, 4u * (16 + 4));
}

/// The forest a reload built before it streamed: every block of the store
/// added in log order, each connected block's justify recorded, the
/// deepest connected block committed, and one retention prune.
forest::BlockForest batch_reload(BlockStore& store, std::uint32_t retention) {
  forest::BlockForest forest;
  BlockPtr best;
  store.replay([&](const BlockPtr& block) {
    if (forest.add(block) != forest::AddResult::kAdded) return;
    forest.add_qc(block->justify());
    if (!best || block->height() > best->height()) best = block;
  });
  if (best) forest.commit(best->hash());
  if (retention > 0 && forest.committed_height() > retention) {
    forest.prune_below(forest.committed_height() - retention);
  }
  return forest;
}

void expect_same_forest(const forest::BlockForest& got,
                        const forest::BlockForest& want) {
  EXPECT_EQ(got.committed_hashes(), want.committed_hashes());
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.orphan_count(), want.orphan_count());
  EXPECT_EQ(got.high_qc(), want.high_qc());
  EXPECT_EQ(got.longest_certified_tip()->hash(),
            want.longest_certified_tip()->hash());
  auto got_missing = got.missing_parents();
  auto want_missing = want.missing_parents();
  std::sort(got_missing.begin(), got_missing.end());
  std::sort(want_missing.begin(), want_missing.end());
  EXPECT_EQ(got_missing, want_missing);
  for (const crypto::Digest& hash : want.committed_hashes()) {
    EXPECT_EQ(got.contains(hash), want.contains(hash));
    EXPECT_EQ(got.is_certified(hash), want.is_certified(hash));
  }
}

TEST(StorageRecovery, StreamedReloadEndsWhereTheBatchReloadEnds) {
  // The reload commits and prunes as it streams the log. It must end in
  // the state of adding the whole log, committing the deepest connected
  // block and pruning once: also for a log with a snapshot hole (replica 6
  // is partitioned off and installs a snapshot), and for the log a
  // restarted replica extends.
  for (const char* protocol : {"2chs", "hotstuff", "streamlet"}) {
    for (const std::uint32_t retention : {0u, 8u}) {
      SCOPED_TRACE(::testing::Message() << protocol << ", retention "
                                        << retention);
      core::Config cfg = file_store_config(protocol, 7);
      cfg.seed = 23;
      cfg.retention = retention;
      cfg.timeout = sim::milliseconds(30);
      cfg.sync_batch = 4;
      cfg.snapshot_gap = 8;
      cfg.churn = "partition@0.2s:groups=0-1-2-3-4-5|6;heal@0.5s";
      FileStoreCluster run(cfg);
      run.start();
      for (const double at : {0.7, 1.0}) {
        run.run_for(at - sim::to_seconds(run.cluster.simulator().now()));
        for (const types::NodeId id : {types::NodeId{5}, types::NodeId{6}}) {
          run.cluster.crash_replica(id);
          const forest::BlockForest want =
              batch_reload(run.cluster.store(id), retention);
          run.cluster.restart_replica(id);
          expect_same_forest(run.cluster.replica(id).forest(), want);
        }
      }
      run.run_for(0.3);
      EXPECT_TRUE(run.cluster.check_consistency().consistent);
    }
  }
}

harness::RunSpec storage_spec(const std::string& store,
                              std::uint32_t retention) {
  harness::RunSpec spec;
  spec.cfg.n_replicas = 4;
  spec.cfg.bsize = 100;
  spec.cfg.memsize = 200000;
  spec.cfg.seed = 47;
  spec.cfg.store = store;  // store_path empty: a fresh dir per cluster
  spec.cfg.retention = retention;
  spec.cfg.sync_batch = 8;
  spec.cfg.sync_timeout = sim::milliseconds(80);
  spec.cfg.sync_retries = 4;
  // Kill replica 3 mid-run and rebuild it from its store after 0.15 s of
  // downtime; it must chain-sync whatever committed while it was dead.
  spec.cfg.churn = "crash-restart@0.25s:replica=3:for=0.15s";
  spec.workload.mode = client::LoadMode::kClosedLoop;
  spec.workload.concurrency = 64;
  spec.opts.warmup_s = 0.1;
  spec.opts.measure_s = 0.6;
  return spec;
}

TEST(StorageRecovery, CrashRestartRebuildsFromTheFileStore) {
  const auto r = harness::execute(storage_spec("file", 0));
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.blocks_committed, 0u);
  // Real bytes hit the log. The compact record encoding undercuts the
  // wire model (which charges simulated transaction payload bytes), so
  // the file store's amplification sits strictly between 0 and 1 here —
  // unlike the memory store's exact 1.0.
  EXPECT_GT(r.disk_bytes_written, 0u);
  EXPECT_GT(r.write_amplification, 0.0);
  EXPECT_LT(r.write_amplification, 1.0);
  // The rebuild replayed the persisted prefix back into the forest.
  EXPECT_GT(r.store_reads, 0u);
}

TEST(StorageRecovery, MemoryStoreModelsTheSameRecovery) {
  // The default store survives a crash-restart too (it outlives the
  // replica instance); accounting shows the no-framing baseline.
  const auto r = harness::execute(storage_spec("memory", 0));
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.disk_bytes_written, 0u);
  EXPECT_DOUBLE_EQ(r.write_amplification, 1.0);
}

TEST(StorageRecovery, RetentionPruningSurvivesCrashRestart) {
  // Aggressive retention (keep 8 committed blocks in memory) with the
  // same crash-restart: the pruned bodies live only in the store, so the
  // rebuild exercises the reload path the pruning relies on.
  const auto r = harness::execute(storage_spec("file", 8));
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.blocks_committed, 0u);
  EXPECT_GT(r.store_reads, 0u);
}

TEST(StorageRecovery, DeterministicAcrossThreadCounts) {
  // The acceptance bar: restart-from-disk runs are bit-identical across
  // --threads values (each cluster owns a private store directory).
  std::vector<harness::RunSpec> grid = {
      storage_spec("file", 0), storage_spec("file", 8),
      storage_spec("memory", 0)};
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  const auto a = one.run(grid);
  const auto b = four.run(grid);
  EXPECT_EQ(a, b);
}

TEST(StorageRecovery, DiskColumnsReachPersistedRecords) {
  const auto spec = storage_spec("file", 16);
  const auto result = harness::execute(spec);
  const auto rec = harness::report::make_run_record("t", "a", "s", 0, spec,
                                                    0, 1, result);
  const std::string row = harness::report::csv_row(rec);
  const auto json = harness::report::to_json(rec);
  const auto back = harness::report::record_from_json(json);
  EXPECT_EQ(back.result.disk_bytes_written, result.disk_bytes_written);
  EXPECT_DOUBLE_EQ(back.result.write_amplification,
                   result.write_amplification);
  EXPECT_EQ(back.result.store_reads, result.store_reads);
  EXPECT_EQ(back.result.restarts, result.restarts);
  EXPECT_EQ(back.prov.cfg.store, "file");
  EXPECT_EQ(back.prov.cfg.retention, 16u);
  // The CSV row has one cell per column.
  std::size_t cells = 1;
  bool quoted = false;
  for (char c : row) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++cells;
  }
  EXPECT_EQ(cells, harness::report::csv_columns().size());
}

}  // namespace
}  // namespace bamboo
