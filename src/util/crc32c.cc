#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ODE_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace ode {
namespace crc32c {

namespace {

// Table for CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78),
// generated lazily at first use.
struct Table {
  uint32_t entries[256];
  Table() {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      entries[i] = crc;
    }
  }
};

const Table& GetTable() {
  static const Table* table = new Table();
  return *table;
}

#ifdef ODE_CRC32C_SSE42
// The crc32 instruction computes the same reflected Castagnoli CRC as the
// table, 8 bytes per step. Words are loaded with memcpy because `data` may
// start at any alignment; x86 is little-endian, so the word's low byte is
// the first byte in the buffer, as the byte-wise CRC expects.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                      const char* data,
                                                      size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word = 0;
    memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; n--, data++) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#ifdef ODE_CRC32C_SSE42
  // Needed when the first Extend() runs from a static constructor, before
  // the runtime has probed the CPU.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return ExtendPortable;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Table& table = GetTable();
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    crc = table.entries[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace ode
