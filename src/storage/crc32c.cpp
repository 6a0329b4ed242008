#include "storage/crc32c.h"

#include <array>

namespace bamboo::storage {
namespace {

constexpr std::uint32_t kPolynomial = 0x82f63b78;  // reflected Castagnoli

/// Slicing-by-8 tables: kTables[0] advances the CRC by one byte, and
/// kTables[k] by one byte followed by k zero bytes, so eight lookups
/// advance it by eight bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) {
  const auto& t = kTables;
  std::uint32_t crc = 0xffffffff;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = load_le32(data) ^ crc;
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
  return ~crc;
}

}  // namespace bamboo::storage
