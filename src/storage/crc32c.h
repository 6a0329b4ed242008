#pragma once

// CRC32C (Castagnoli), the checksum of the block store's records.

#include <cstddef>
#include <cstdint>

namespace bamboo::storage {

/// CRC32C of `data`: reflected polynomial 0x82F63B78, initial value and
/// final XOR 0xFFFFFFFF (RFC 3720), so crc32c("123456789") == 0xE3069283.
/// A slicing-by-8 table kernel in plain C++ computes it.
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t len);

}  // namespace bamboo::storage
