#include "storage/block_store.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "storage/crc32c.h"

namespace bamboo::storage {
namespace {

constexpr std::uint32_t kRecordMagic = 0x324b4c42;  // "BLK2": crc32c
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8;

// Payload sizes: the block's own fields (56 bytes), its justify QC's (56)
// and the transaction count (4), then 36 bytes per QC signature and 32 per
// transaction.
constexpr std::size_t kBlockFixedBytes = 56 + 56 + 4;
constexpr std::size_t kSigBytes = 4 + 32;
constexpr std::size_t kTxBytes = 8 + 4 + 4 + 4 + 8 + 4;

/// Payload bytes of encode_block(b).
std::size_t encoded_size(const types::Block& b) {
  return kBlockFixedBytes + kSigBytes * b.justify().sigs.size() +
         kTxBytes * b.txns().size();
}

/// Unchecked little-endian writer: callers size the buffer first
/// (encoded_size, kRecordHeaderBytes).
struct Writer {
  std::uint8_t* at;

  template <typename T>
  void put(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(at, &v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i)
        at[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    at += sizeof v;
  }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void digest(const crypto::Digest& d) {
    std::memcpy(at, d.data(), d.size());
    at += d.size();
  }
};

/// Bounds-checked payload reader; every overrun is an invalid_argument so
/// a truncated record is a refusal, never UB.
struct Reader {
  const std::uint8_t* data;
  std::size_t len;
  std::size_t at = 0;

  void need(std::size_t n) const {
    if (at + n > len)
      throw std::invalid_argument("block record truncated");
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data[at + static_cast<std::size_t>(i)])
           << (8 * i);
    at += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data[at + static_cast<std::size_t>(i)])
           << (8 * i);
    at += 8;
    return v;
  }
  crypto::Digest digest() {
    need(32);
    crypto::Digest d{};
    std::memcpy(d.data(), data + at, 32);
    at += 32;
    return d;
  }
};

void encode_qc(Writer& w, const types::QuorumCert& qc) {
  w.u64(qc.view);
  w.u64(qc.height);
  w.u32(qc.slot);
  w.digest(qc.block_hash);
  w.u32(static_cast<std::uint32_t>(qc.sigs.size()));
  for (const crypto::Signature& sig : qc.sigs) {
    w.u32(sig.signer);
    w.digest(sig.tag);
  }
}

/// Writes exactly encoded_size(b) bytes.
void encode_into(Writer& w, const types::Block& b) {
  w.digest(b.parent_hash());
  w.u64(b.view());
  w.u64(b.height());
  w.u32(b.slot());
  w.u32(b.proposer());
  encode_qc(w, b.justify());
  w.u32(static_cast<std::uint32_t>(b.txns().size()));
  for (const types::Transaction& tx : b.txns()) {
    w.u64(tx.id);
    w.u32(tx.session);
    w.u32(tx.serving_replica);
    w.u32(tx.client_endpoint);
    w.u64(static_cast<std::uint64_t>(tx.submitted_at));
    w.u32(tx.payload_size);
  }
}

types::QuorumCert decode_qc(Reader& r) {
  types::QuorumCert qc;
  qc.view = r.u64();
  qc.height = r.u64();
  qc.slot = r.u32();
  qc.block_hash = r.digest();
  const std::uint32_t nsigs = r.u32();
  // Reject counts the buffer cannot hold before reserving (a corrupt count
  // must not balloon the allocation).
  if (static_cast<std::size_t>(nsigs) * kSigBytes > r.len - r.at)
    throw std::invalid_argument("block record truncated (qc sigs)");
  qc.sigs.reserve(nsigs);
  for (std::uint32_t i = 0; i < nsigs; ++i) {
    crypto::Signature sig;
    sig.signer = r.u32();
    sig.tag = r.digest();
    qc.sigs.push_back(sig);
  }
  return qc;
}

}  // namespace

std::vector<std::uint8_t> encode_block(const types::Block& b) {
  std::vector<std::uint8_t> out(encoded_size(b));
  Writer w{out.data()};
  encode_into(w, b);
  return out;
}

types::BlockPtr decode_block(const std::uint8_t* data, std::size_t len) {
  Reader r{data, len};
  types::Block::Fields f;
  f.parent_hash = r.digest();
  f.view = r.u64();
  f.height = r.u64();
  f.slot = r.u32();
  f.proposer = r.u32();
  f.justify = decode_qc(r);
  const std::uint32_t ntx = r.u32();
  if (static_cast<std::size_t>(ntx) * kTxBytes > r.len - r.at)
    throw std::invalid_argument("block record truncated (txns)");
  f.txns.reserve(ntx);
  for (std::uint32_t i = 0; i < ntx; ++i) {
    types::Transaction tx;
    tx.id = r.u64();
    tx.session = r.u32();
    tx.serving_replica = r.u32();
    tx.client_endpoint = r.u32();
    tx.submitted_at = static_cast<sim::Time>(r.u64());
    tx.payload_size = r.u32();
    f.txns.push_back(tx);
  }
  if (r.at != len)
    throw std::invalid_argument("block record has trailing bytes");
  return std::make_shared<const types::Block>(std::move(f));
}

// --- RecordFramer ----------------------------------------------------------

std::span<const std::uint8_t> RecordFramer::frame(
    const types::BlockPtr& block) {
  if (framed_.owner_before(block) || block.owner_before(framed_)) {
    framed_.reset();
    // Header and payload are encoded in place in one reusable buffer; the
    // checksum covers the payload where it lies.
    const std::size_t payload_len = encoded_size(*block);
    record_len_ = kRecordHeaderBytes + payload_len;
    if (record_.size() < record_len_) record_.resize(record_len_);
    std::uint8_t* payload = record_.data() + kRecordHeaderBytes;
    Writer body{payload};
    encode_into(body, *block);
    Writer header{record_.data()};
    header.u32(kRecordMagic);
    header.u32(static_cast<std::uint32_t>(payload_len));
    header.u64(crc32c(payload, payload_len));
    framed_ = block;
  }
  return {record_.data(), record_len_};
}

// --- BlockStore ------------------------------------------------------------

BlockStore::BlockStore(std::string path, RecordFramer* framer)
    : path_(std::move(path)),
      own_framer_(framer ? nullptr : std::make_unique<RecordFramer>()),
      framer_(framer ? framer : own_framer_.get()) {
  scan(nullptr);
  // One descriptor for the store's lifetime. Unbuffered, so each append's
  // record reaches the OS in one write; append mode, so a scan that cuts
  // the file leaves the next write at its new end.
  out_.reset(std::fopen(path_.c_str(), "ab"));
  if (!out_) throw std::runtime_error("block store: cannot open " + path_);
  std::setvbuf(out_.get(), nullptr, _IONBF, 0);
}

void BlockStore::scan(const std::function<void(const types::BlockPtr&)>& fn) {
  index_.clear();
  std::unique_ptr<std::FILE, FileCloser> in(std::fopen(path_.c_str(), "rb"));
  if (!in) return;  // fresh store
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path_, ec);
  if (ec) return;

  std::array<std::uint8_t, kRecordHeaderBytes> bytes{};
  std::vector<std::uint8_t> payload;  // the one record buffer, reused
  std::uint64_t at = 0;
  while (size - at >= kRecordHeaderBytes &&
         std::fread(bytes.data(), 1, bytes.size(), in.get()) == bytes.size()) {
    Reader hdr{bytes.data(), bytes.size()};
    const std::uint32_t magic = hdr.u32();
    const std::uint32_t plen = hdr.u32();
    const std::uint64_t sum = hdr.u64();
    if (magic != kRecordMagic) break;
    if (plen > size - at - kRecordHeaderBytes) break;  // torn tail
    payload.resize(plen);
    // The checksum slot holds the CRC32C zero-extended, so a slot whose
    // upper half is not zero fails too.
    if (std::fread(payload.data(), 1, plen, in.get()) != plen ||
        sum != crc32c(payload.data(), plen)) {
      break;  // bit rot / torn write
    }
    types::BlockPtr block;
    try {
      block = decode_block(payload.data(), plen);
    } catch (const std::invalid_argument&) {
      break;  // checksum collided with garbage; stop at the last good record
    }
    at += kRecordHeaderBytes + plen;
    if (!index_.insert(block->hash()).second) continue;  // the first wins
    if (fn) {
      ++stats_.reads;
      stats_.bytes_read += kRecordHeaderBytes + plen;
      fn(block);
    }
  }
  if (at == size) return;

  // Cut the failed record and everything after it, so future appends
  // extend the valid prefix instead of burying good records behind
  // garbage. Past a failed record the framing means nothing, so the cut
  // counts as one record.
  ++stats_.records_dropped;
  stats_.bytes_dropped += size - at;
  in.reset();
  std::filesystem::resize_file(path_, at, ec);
}

void BlockStore::append(const types::BlockPtr& block) {
  if (index_.contains(block->hash())) return;
  std::uint64_t written = block->wire_size();
  if (out_) {
    const std::span<const std::uint8_t> record = framer_->frame(block);
    if (std::fwrite(record.data(), 1, record.size(), out_.get()) !=
            record.size() ||
        std::fflush(out_.get()) != 0)
      throw std::runtime_error("block store: short write to " + path_);
    written = record.size();
  } else {
    log_.push_back(block);
  }
  index_.insert(block->hash());
  ++stats_.appends;
  stats_.bytes_written += written;
  stats_.logical_bytes += block->wire_size();
}

void BlockStore::replay(
    const std::function<void(const types::BlockPtr&)>& fn) {
  if (out_) {
    scan(fn);
    return;
  }
  for (const types::BlockPtr& block : log_) {
    ++stats_.reads;
    stats_.bytes_read += block->wire_size();
    fn(block);
  }
}

std::unique_ptr<BlockStore> make_store(const std::string& kind,
                                       const std::string& path,
                                       RecordFramer* framer) {
  if (kind.empty() || kind == "memory") return std::make_unique<BlockStore>();
  if (kind == "file") return std::make_unique<BlockStore>(path, framer);
  throw std::invalid_argument("unknown block store kind: " + kind);
}

}  // namespace bamboo::storage
