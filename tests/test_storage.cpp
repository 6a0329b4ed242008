// Tests for the durable ledger subsystem (storage/block_store.h): the
// block codec, the in-memory and file-backed stores (append/read/replay,
// hash dedup, byte accounting), the exact bytes of the file log's
// records, torn-write recovery of the file log, stores sharing one record
// framer writing the bytes they write alone, and the end-to-end
// crash-restart path through the harness — a replica rebuilt from the
// store it appended to before it died, with the disk accounting columns
// populated and deterministic across thread counts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "client/workload.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "storage/block_store.h"
#include "types/block.h"
#include "util/hex.h"
#include "util/rng.h"

namespace bamboo {
namespace {

using storage::BlockStore;
using storage::FileBlockStore;
using storage::MemoryBlockStore;
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
// Stores
// ---------------------------------------------------------------------------

TEST(MemoryStore, AppendsDedupeAndAccountLogicalBytes) {
  MemoryBlockStore store;
  const auto chain = make_chain(3);
  for (const BlockPtr& b : chain) store.append(b);
  store.append(chain[0]);  // duplicate: idempotent on the hash
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().appends, 3u);
  // The in-memory store accounts the bytes a durable store WOULD have
  // written, with no framing: write amplification is exactly 1.
  EXPECT_GT(store.stats().bytes_written, 0u);
  EXPECT_EQ(store.stats().bytes_written, store.stats().logical_bytes);

  EXPECT_TRUE(store.contains(chain[1]->hash()));
  const BlockPtr got = store.read(chain[1]->hash());
  ASSERT_TRUE(got);
  EXPECT_EQ(got->hash(), chain[1]->hash());
  EXPECT_FALSE(store.read(crypto::Sha256::hash("nowhere")));

  std::vector<types::Height> heights;
  store.replay([&](const BlockPtr& b) { heights.push_back(b->height()); });
  EXPECT_EQ(heights, (std::vector<types::Height>{1, 2, 3}));
  EXPECT_GT(store.stats().reads, 0u);
}

TEST(FileStore, RoundTripsBlocksAcrossReopen) {
  TempLog log("roundtrip");
  const auto chain = make_chain(8);
  {
    FileBlockStore store(log.path);
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
  // Reopen: recovery rebuilds the index from the log alone.
  FileBlockStore reopened(log.path);
  EXPECT_EQ(reopened.size(), 8u);
  std::vector<crypto::Digest> replayed;
  reopened.replay([&](const BlockPtr& b) { replayed.push_back(b->hash()); });
  ASSERT_EQ(replayed.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(replayed[i], chain[i]->hash()) << "position " << i;
    EXPECT_TRUE(reopened.contains(chain[i]->hash()));
  }
  const BlockPtr got = reopened.read(chain[5]->hash());
  ASSERT_TRUE(got);
  EXPECT_EQ(got->height(), 6u);
  EXPECT_EQ(got->txns().size(), chain[5]->txns().size());
}

TEST(FileStore, TornWriteIsTruncatedToTheValidPrefix) {
  TempLog log("torn");
  const auto chain = make_chain(5);
  {
    FileBlockStore store(log.path);
    for (const BlockPtr& b : chain) store.append(b);
  }
  // Simulate a crash mid-write: chop the tail of the last record.
  const auto full = std::filesystem::file_size(log.path);
  std::filesystem::resize_file(log.path, full - 7);

  FileBlockStore recovered(log.path);
  EXPECT_EQ(recovered.size(), 4u);
  EXPECT_TRUE(recovered.contains(chain[3]->hash()));
  EXPECT_FALSE(recovered.contains(chain[4]->hash()));
  // The store keeps working after recovery: re-append the lost block and
  // it survives the next reopen.
  recovered.append(chain[4]);
  EXPECT_EQ(recovered.size(), 5u);
  FileBlockStore again(log.path);
  EXPECT_EQ(again.size(), 5u);
  EXPECT_TRUE(again.contains(chain[4]->hash()));
}

TEST(FileStore, ChecksumMismatchRejectsTheCorruptedSuffix) {
  TempLog log("corrupt");
  const auto chain = make_chain(5);
  {
    FileBlockStore store(log.path);
    for (const BlockPtr& b : chain) store.append(b);
  }
  // Flip the last payload byte: length and magic still parse, but the
  // FNV-1a checksum catches the rot and recovery stops at record 4.
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
  FileBlockStore recovered(log.path);
  EXPECT_EQ(recovered.size(), 4u);
  EXPECT_FALSE(recovered.contains(chain[4]->hash()));
}

TEST(StoreFactory, MakesBothKindsAndRejectsUnknown) {
  TempLog log("factory");
  const auto mem = storage::make_store("memory", "");
  EXPECT_TRUE(dynamic_cast<MemoryBlockStore*>(mem.get()) != nullptr);
  const auto file = storage::make_store("file", log.path);
  EXPECT_TRUE(dynamic_cast<FileBlockStore*>(file.get()) != nullptr);
  EXPECT_THROW(static_cast<void>(storage::make_store("cloud", "")),
               std::invalid_argument);
}

static_assert(!std::is_copy_constructible_v<FileBlockStore> &&
                  !std::is_copy_assignable_v<FileBlockStore>,
              "a file store owns its open log");

TEST(FileStore, UnopenablePathThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bamboo-test-no-such-dir-" + std::to_string(::getpid())) / "x.blk")
          .string();
  const auto chain = make_chain(1);
  try {
    FileBlockStore store(path);
    store.append(chain[0]);
    FAIL() << "no error for " << path;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "block store: cannot open " + path);
  }
}

TEST(FileStore, ReadsCountTheRecordBytesOnDisk) {
  TempLog log("bytes-read");
  const auto chain = make_chain(9);
  FileBlockStore store(log.path);
  for (const BlockPtr& b : chain) store.append(b);
  const std::uint64_t file_size = std::filesystem::file_size(log.path);
  store.replay([](const BlockPtr&) {});
  EXPECT_EQ(store.stats().bytes_read, file_size);
  EXPECT_EQ(store.stats().reads, chain.size());

  // A reopened store counts the same bytes for the records it recovered,
  // and a point read counts one record: header plus payload.
  FileBlockStore reopened(log.path);
  reopened.replay([](const BlockPtr&) {});
  EXPECT_EQ(reopened.stats().bytes_read, file_size);
  ASSERT_TRUE(reopened.read(chain[3]->hash()));
  EXPECT_EQ(reopened.stats().bytes_read,
            file_size + 16 + storage::encode_block(*chain[3]).size());
}

// ---------------------------------------------------------------------------
// On-disk record format
// ---------------------------------------------------------------------------

std::uint64_t fnv_of(std::string_view text) {
  return storage::fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size());
}

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

TEST(RecordFormat, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(fnv_of(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv_of("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv_of("foobar"), 0x85944171f73967e8ull);
}

TEST(RecordFormat, FileHoldsExactlyTheFramedRecords) {
  TempLog log("format");
  const BlockPtr b1 = varied_child(types::Block::genesis(), 1, 0, 0);
  const BlockPtr b2 = varied_child(b1, 2, 3, 3);
  const BlockPtr b3 = varied_child(b2, 4, 11, 5);
  {
    FileBlockStore store(log.path);
    for (const BlockPtr& b : {b1, b2, b3}) store.append(b);
  }
  // Per record: magic "BLK1" (u32), payload length (u32),
  // fnv1a64(payload) (u64), payload = encode_block(b); little-endian.
  std::vector<std::uint8_t> expected;
  for (const BlockPtr& b : {b1, b2, b3}) {
    const std::vector<std::uint8_t> payload = storage::encode_block(*b);
    put_le(expected, 0x314b4c42, 4);
    put_le(expected, payload.size(), 4);
    put_le(expected, storage::fnv1a64(payload.data(), payload.size()), 8);
    expected.insert(expected.end(), payload.begin(), payload.end());
  }
  EXPECT_EQ(expected[0], 'B');
  EXPECT_EQ(expected[3], '1');
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
  std::unique_ptr<FileBlockStore> store;
  ASSERT_NO_THROW(store = std::make_unique<FileBlockStore>(path));
  std::vector<crypto::Digest> replayed;
  store->replay([&](const BlockPtr& b) { replayed.push_back(b->hash()); });
  ASSERT_EQ(replayed.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(replayed[i], kept[i]->hash()) << "record " << i;
  }
  EXPECT_EQ(std::filesystem::file_size(path), size);

  store->append(next);
  store.reset();
  FileBlockStore again(path);
  replayed.clear();
  again.replay([&](const BlockPtr& b) { replayed.push_back(b->hash()); });
  ASSERT_EQ(replayed.size(), kept.size() + 1);
  EXPECT_EQ(replayed.back(), next->hash());
}

TEST(FileStoreMutation, RecoveryKeepsTheValidPrefixOfAnyCorruptedLog) {
  // Flip, overwrite or cut random bytes anywhere in a log. The first
  // changed byte breaks its record: the magic, the length or the FNV-1a
  // checksum no longer match. Recovery keeps exactly the records before it.
  TempLog log("mutate-bytes");
  util::Rng rng(1801);
  for (int trial = 0; trial < 300; ++trial) {
    std::filesystem::remove(log.path);
    const auto chain = random_chain(rng);
    {
      FileBlockStore store(log.path);
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
      FileBlockStore store(log.path);
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
    put_le(mutated, 0x314b4c42, 4);
    put_le(mutated, payload.size(), 4);
    put_le(mutated, storage::fnv1a64(payload.data(), payload.size()), 8);
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
    std::vector<std::unique_ptr<FileBlockStore>> shared;
    std::vector<std::unique_ptr<FileBlockStore>> lone;
    for (std::size_t s = 0; s < kStores; ++s) {
      shared.push_back(
          std::make_unique<FileBlockStore>(path("shared", s), &framer));
      lone.push_back(std::make_unique<FileBlockStore>(path("lone", s)));
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
      FileBlockStore lone(lone_path);
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
  EXPECT_EQ(back.prov.store, "file");
  EXPECT_EQ(back.prov.retention, 16u);
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
