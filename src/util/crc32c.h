#ifndef ODE_UTIL_CRC32C_H_
#define ODE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ode {
namespace crc32c {

/// Returns the CRC32C (Castagnoli) of data[0..n-1], extending `init_crc`
/// (pass 0 for a fresh checksum). On x86-64 CPUs with SSE4.2 this runs the
/// `crc32` instruction; elsewhere it runs ExtendPortable(). The choice is
/// made once, from the CPU, at first use; both give the same value.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The byte-at-a-time table-driven CRC32C. Extend() falls back to it on
/// CPUs without SSE4.2, and tests use it as the reference the hardware path
/// must match.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRCs are stored in files so that a CRC of data that happens to
/// contain embedded CRCs does not collide trivially (same trick as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace ode

#endif  // ODE_UTIL_CRC32C_H_
