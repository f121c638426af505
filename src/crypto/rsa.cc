#include "src/crypto/rsa.h"

#include <cassert>

namespace komodo::crypto {

namespace {

// DER-encoded DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr uint8_t kSha256DigestInfoPrefix[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60,
                                               0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
                                               0x01, 0x05, 0x00, 0x04, 0x20};

}  // namespace

RsaKeyPair RsaGenerateKey(HashDrbg* drbg, size_t bits) {
  assert(bits >= 128 && bits % 2 == 0);
  const BigNum e(65537);
  for (;;) {
    const BigNum p = BigNum::GeneratePrime(drbg, bits / 2);
    const BigNum q = BigNum::GeneratePrime(drbg, bits / 2);
    if (p == q) {
      continue;
    }
    const BigNum n = BigNum::Mul(p, q);
    if (n.BitLength() != bits) {
      continue;
    }
    const BigNum phi =
        BigNum::Mul(BigNum::Sub(p, BigNum(1)), BigNum::Sub(q, BigNum(1)));
    BigNum d;
    if (!BigNum::ModInverse(e, phi, &d)) {
      continue;
    }
    RsaKeyPair key;
    key.pub.n = n;
    key.pub.e = e;
    key.d = d;
    key.p = p;
    key.q = q;
    key.dp = BigNum::Mod(d, BigNum::Sub(p, BigNum(1)));
    key.dq = BigNum::Mod(d, BigNum::Sub(q, BigNum(1)));
    key.has_crt = BigNum::ModInverse(q, p, &key.qinv);
    return key;
  }
}

BigNum RsaPrivateOp(const RsaKeyPair& key, const BigNum& m) {
  if (!key.has_crt) {
    return BigNum::ModExp(m, key.d, key.pub.n);
  }
  // Garner's recombination: s = m2 + q * ((qinv * (m1 - m2)) mod p).
  const BigNum m1 = BigNum::ModExp(BigNum::Mod(m, key.p), key.dp, key.p);
  const BigNum m2 = BigNum::ModExp(BigNum::Mod(m, key.q), key.dq, key.q);
  const BigNum m2_mod_p = BigNum::Mod(m2, key.p);
  const BigNum diff = (BigNum::Compare(m1, m2_mod_p) >= 0)
                          ? BigNum::Sub(m1, m2_mod_p)
                          : BigNum::Sub(BigNum::Add(m1, key.p), m2_mod_p);
  const BigNum h = BigNum::MulMod(key.qinv, diff, key.p);
  return BigNum::Add(m2, BigNum::Mul(h, key.q));
}

std::vector<uint8_t> Pkcs1V15EncodeSha256(const Digest& digest, size_t em_len) {
  const size_t t_len = sizeof(kSha256DigestInfoPrefix) + digest.size();
  assert(em_len >= t_len + 11);
  std::vector<uint8_t> em(em_len);
  em[0] = 0x00;
  em[1] = 0x01;
  const size_t ps_len = em_len - t_len - 3;
  for (size_t i = 0; i < ps_len; ++i) {
    em[2 + i] = 0xff;
  }
  em[2 + ps_len] = 0x00;
  size_t pos = 3 + ps_len;
  for (uint8_t b : kSha256DigestInfoPrefix) {
    em[pos++] = b;
  }
  for (uint8_t b : digest) {
    em[pos++] = b;
  }
  return em;
}

std::vector<uint8_t> RsaSignSha256(const RsaKeyPair& key, const uint8_t* msg, size_t len) {
  return RsaSignSha256Digest(key, Sha256Hash(msg, len));
}

std::vector<uint8_t> RsaSignSha256Digest(const RsaKeyPair& key, const Digest& digest) {
  const size_t k = key.pub.ModulusBytes();
  const std::vector<uint8_t> em = Pkcs1V15EncodeSha256(digest, k);
  const BigNum m = BigNum::FromBytesBe(em);
  const BigNum s = RsaPrivateOp(key, m);
  return s.ToBytesBe(k);
}

bool RsaVerifySha256(const RsaPublicKey& key, const uint8_t* msg, size_t len,
                     const std::vector<uint8_t>& signature) {
  const size_t k = key.ModulusBytes();
  if (signature.size() != k) {
    return false;
  }
  const BigNum s = BigNum::FromBytesBe(signature);
  if (s >= key.n) {
    return false;
  }
  const BigNum m = BigNum::ModExp(s, key.e, key.n);
  const std::vector<uint8_t> em = m.ToBytesBe(k);
  const Digest digest = Sha256Hash(msg, len);
  const std::vector<uint8_t> expected = Pkcs1V15EncodeSha256(digest, k);
  if (em.size() != expected.size()) {
    return false;
  }
  return ConstantTimeEqual(em.data(), expected.data(), em.size());
}

}  // namespace komodo::crypto
