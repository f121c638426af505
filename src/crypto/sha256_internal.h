// The SHA-256 compression functions behind Sha256, named so tests can run a
// stream on each of them (Sha256's explicit constructor) and compare.
#ifndef SRC_CRYPTO_SHA256_INTERNAL_H_
#define SRC_CRYPTO_SHA256_INTERNAL_H_

#include <cstdint>

#include "src/crypto/sha256.h"

namespace komodo::crypto::internal {

// Portable FIPS 180-4 compression; the fallback on every host.
void Sha256CompressGeneric(uint32_t state[8], const uint8_t block[kSha256BlockBytes]);

#if defined(__x86_64__)
// The x86 SHA extensions (SHA-NI). Call only where HostHasShaNi() holds.
void Sha256CompressShaNi(uint32_t state[8], const uint8_t block[kSha256BlockBytes]);
#endif

// CPUID reports SHA-NI, SSSE3 and SSE4.1 (always false off x86-64).
bool HostHasShaNi();

}  // namespace komodo::crypto::internal

#endif  // SRC_CRYPTO_SHA256_INTERNAL_H_
