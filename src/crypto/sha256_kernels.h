#pragma once

// The SHA-256 compression kernels behind crypto::Sha256. Internal to the
// crypto layer: everything else hashes through Sha256, which uses
// compress_selected(). Tests and microbenchmarks include this header to
// drive each kernel directly.

#include <array>
#include <cstdint>

namespace bamboo::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// One compression: absorb the 64-byte `block` into `state`.
using CompressFn = void (*)(Sha256State& state, const std::uint8_t* block);

/// FIPS 180-4 compression in plain C++. It is the reference the hardware
/// kernel is tested against, and the only kernel on CPUs without the SHA
/// extensions and in builds for other architectures.
void compress_portable(Sha256State& state, const std::uint8_t* block);

/// The x86 SHA-extensions kernel (sha256rnds2, sha256msg1, sha256msg2), or
/// nullptr when this build does not target x86 or CPUID reports no SHA,
/// SSSE3 or SSE4.1 support.
[[nodiscard]] CompressFn compress_hardware();

/// The kernel Sha256 uses: compress_hardware() when it exists, else
/// compress_portable. Chosen once per process.
[[nodiscard]] CompressFn compress_selected();

}  // namespace bamboo::crypto::detail
