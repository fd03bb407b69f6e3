// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Protects every stable-storage frame so recovery can distinguish a torn
// final write from a complete checkpoint (DESIGN.md §6, storage invariant).
// update() runs a PCLMULQDQ folding kernel when the CPU reports pclmul and
// sse4.1, and a byte-at-a-time table loop otherwise; both give the same value.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ickpt::io {

class Crc32 {
 public:
  /// Incremental update: feed chunks, then call value().
  void update(const std::uint8_t* data, std::size_t n) noexcept;

  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  void reset() noexcept { state_ = 0xFFFFFFFFu; }

  /// One-shot convenience.
  static std::uint32_t compute(const std::uint8_t* data, std::size_t n) noexcept;

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

// The two kernels behind Crc32::update, exposed so tests can hold one to the
// other. Each maps a running (pre-inverted) state over n bytes to the next.
namespace detail {

/// One table lookup per byte: the portable path and the reference.
std::uint32_t crc32_bytewise(std::uint32_t state, const std::uint8_t* data,
                             std::size_t n) noexcept;

/// Whether the CPU reports pclmul and sse4.1; always false off x86.
bool crc32_clmul_supported() noexcept;

/// Carry-less-multiply folding over the 16-byte blocks of inputs of 64 bytes
/// or more, the bytewise loop for the rest. Requires crc32_clmul_supported().
std::uint32_t crc32_clmul(std::uint32_t state, const std::uint8_t* data,
                          std::size_t n) noexcept;

}  // namespace detail

}  // namespace ickpt::io
