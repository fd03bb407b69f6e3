#include "io/crc32.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ICKPT_CRC32_CLMUL 1
#endif

namespace ickpt::io {

namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_table();

#ifdef ICKPT_CRC32_CLMUL

// Folds the 16-byte lanes of `acc` forward by 128 bits with the constant pair
// in `k` and adds `next`: acc = acc.lo * k.lo ^ acc.hi * k.hi ^ next.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i acc,
                                                             __m128i k,
                                                             __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(
    const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// CRC-32/IEEE by carry-less multiplication: fold 4x128 bits per 64-byte block,
// then 1x128 per 16-byte block, then reduce 128 -> 64 -> 32 bits (Barrett).
// Takes and returns the running (pre-inverted) state; needs n >= 64 and
// n % 16 == 0. The constants are the bit-reflected ones of Intel's "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" for the
// polynomial 0x104C11DB7.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_blocks(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }

  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // ICKPT_CRC32_CLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_bytewise(std::uint32_t state, const std::uint8_t* data,
                             std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    state = kTable[(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  return state;
}

bool crc32_clmul_supported() noexcept {
#ifdef ICKPT_CRC32_CLMUL
  static const bool supported = [] {
    __builtin_cpu_init();  // may run before the runtime's own initializer
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32_clmul(std::uint32_t state, const std::uint8_t* data,
                          std::size_t n) noexcept {
#ifdef ICKPT_CRC32_CLMUL
  if (n >= 64) {
    const std::size_t blocks = n & ~std::size_t{15};
    state = clmul_blocks(state, data, blocks);
    data += blocks;
    n -= blocks;
  }
#endif
  return crc32_bytewise(state, data, n);
}

}  // namespace detail

void Crc32::update(const std::uint8_t* data, std::size_t n) noexcept {
  state_ = detail::crc32_clmul_supported()
               ? detail::crc32_clmul(state_, data, n)
               : detail::crc32_bytewise(state_, data, n);
}

std::uint32_t Crc32::compute(const std::uint8_t* data, std::size_t n) noexcept {
  Crc32 crc;
  crc.update(data, n);
  return crc.value();
}

}  // namespace ickpt::io
