// RSA with PKCS#1 v1.5 signatures over SHA-256 — the signing primitive of the
// Ironclad-derived notary enclave (§8.2). Key generation is deterministic
// from a DRBG so the benchmark workload is reproducible run to run.
#ifndef SRC_CRYPTO_RSA_H_
#define SRC_CRYPTO_RSA_H_

#include <cstddef>
#include <vector>

#include "src/crypto/bignum.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha256.h"

namespace komodo::crypto {

struct RsaPublicKey {
  BigNum n;
  BigNum e;
  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  BigNum d;
  BigNum p;
  BigNum q;
  // CRT parameters (filled by RsaGenerateKey): d mod p-1, d mod q-1, q^-1 mod p.
  BigNum dp;
  BigNum dq;
  BigNum qinv;
  bool has_crt = false;
};

// The raw private-key operation m^d mod n, using the Chinese-remainder
// decomposition when the key carries CRT parameters (~4x fewer limb
// operations; both paths are tested to agree).
BigNum RsaPrivateOp(const RsaKeyPair& key, const BigNum& m);

// Generates an RSA key with modulus of `bits` bits (e = 65537).
RsaKeyPair RsaGenerateKey(HashDrbg* drbg, size_t bits);

// PKCS#1 v1.5 signature of SHA-256(message). Returns ModulusBytes() bytes.
std::vector<uint8_t> RsaSignSha256(const RsaKeyPair& key, const uint8_t* msg, size_t len);
// The same signature from an already computed SHA-256 digest, for callers
// that stream the message through their own Sha256.
std::vector<uint8_t> RsaSignSha256Digest(const RsaKeyPair& key, const Digest& digest);
bool RsaVerifySha256(const RsaPublicKey& key, const uint8_t* msg, size_t len,
                     const std::vector<uint8_t>& signature);

// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest (exposed for tests).
std::vector<uint8_t> Pkcs1V15EncodeSha256(const Digest& digest, size_t em_len);

}  // namespace komodo::crypto

#endif  // SRC_CRYPTO_RSA_H_
