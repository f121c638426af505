#include "src/crypto/rsa.h"

#include <gtest/gtest.h>

namespace komodo::crypto {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

TEST(RsaTest, KeyGenProducesConsistentKey) {
  HashDrbg drbg(42);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  EXPECT_EQ(key.pub.n.BitLength(), 512u);
  EXPECT_EQ(key.pub.e.ToU64(), 65537u);
  EXPECT_EQ(BigNum::Mul(key.p, key.q), key.pub.n);
  // e*d == 1 mod phi
  const BigNum phi = BigNum::Mul(BigNum::Sub(key.p, BigNum(1)), BigNum::Sub(key.q, BigNum(1)));
  EXPECT_EQ(BigNum::Mod(BigNum::Mul(key.pub.e, key.d), phi), BigNum(1));
}

TEST(RsaTest, KeyGenDeterministicFromSeed) {
  HashDrbg a(7);
  HashDrbg b(7);
  EXPECT_EQ(RsaGenerateKey(&a, 512).pub.n, RsaGenerateKey(&b, 512).pub.n);
  HashDrbg c(8);
  EXPECT_NE(RsaGenerateKey(&a, 512).pub.n, RsaGenerateKey(&c, 512).pub.n);
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  for (uint8_t b : bytes) {
    s += kHex[b >> 4];
    s += kHex[b & 0xf];
  }
  return s;
}

TEST(RsaTest, NotaryKeyKnownAnswer) {
  // The notary's RSA-1024 key (key seed 4242, as the benchmarks use) and one
  // signature, pinned so that any drift in the prime search (Miller-Rabin runs
  // through ModExp), CRT signing or byte encoding shows.
  HashDrbg drbg(4242);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 1024);
  EXPECT_EQ(key.pub.n.ToHex(),
            "d6fdced783cc2866851770db4158e3e7e39f31f9839e68db73f52295f24c0d05"
            "c5e3024c53855523bd3b09164e7b55307d2d281422017c520e387779832a8135"
            "30e786d7ebe8f291847ed5a2b0a477acf2c81a8b8f9a2f117593427d638ff100"
            "304e332bfcfa161a06bcd1926150221d7833a999b6f045def609e07cec9c3621");
  const std::vector<uint8_t> msg = Bytes("Komodo notary known-answer message");
  const std::vector<uint8_t> sig = RsaSignSha256(key, msg.data(), msg.size());
  EXPECT_EQ(Hex(sig),
            "a7ab79bd8b95c0c16a068cae5c5f82bc90bf9f3af4cde52919a78f32a936868a"
            "95c15d85b32e41d4c63c7a5dab6a9eeb36fba035353f32f8b97bd6b312daa5c0"
            "e71dab005b72f4e8930fc52b572a7ddf3261668429e5d9c427f543d33e5fb064"
            "f1ad1400efacdb879216f5f9acda355b531d9d301ed647079189d38f0d710d3c");
  EXPECT_TRUE(RsaVerifySha256(key.pub, msg.data(), msg.size(), sig));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  HashDrbg drbg(1);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  const std::vector<uint8_t> msg = Bytes("attack at dawn");
  const std::vector<uint8_t> sig = RsaSignSha256(key, msg.data(), msg.size());
  EXPECT_EQ(sig.size(), key.pub.ModulusBytes());
  EXPECT_TRUE(RsaVerifySha256(key.pub, msg.data(), msg.size(), sig));
}

TEST(RsaTest, VerifyRejectsTamperedMessage) {
  HashDrbg drbg(2);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  const std::vector<uint8_t> msg = Bytes("attack at dawn");
  const std::vector<uint8_t> sig = RsaSignSha256(key, msg.data(), msg.size());
  const std::vector<uint8_t> other = Bytes("attack at dusk");
  EXPECT_FALSE(RsaVerifySha256(key.pub, other.data(), other.size(), sig));
}

TEST(RsaTest, VerifyRejectsTamperedSignature) {
  HashDrbg drbg(3);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  const std::vector<uint8_t> msg = Bytes("msg");
  std::vector<uint8_t> sig = RsaSignSha256(key, msg.data(), msg.size());
  sig[10] ^= 1;
  EXPECT_FALSE(RsaVerifySha256(key.pub, msg.data(), msg.size(), sig));
  sig[10] ^= 1;
  sig.pop_back();
  EXPECT_FALSE(RsaVerifySha256(key.pub, msg.data(), msg.size(), sig));
}

TEST(RsaTest, VerifyRejectsWrongKey) {
  HashDrbg drbg(4);
  const RsaKeyPair key1 = RsaGenerateKey(&drbg, 512);
  const RsaKeyPair key2 = RsaGenerateKey(&drbg, 512);
  const std::vector<uint8_t> msg = Bytes("msg");
  const std::vector<uint8_t> sig = RsaSignSha256(key1, msg.data(), msg.size());
  EXPECT_FALSE(RsaVerifySha256(key2.pub, msg.data(), msg.size(), sig));
}

TEST(RsaTest, SignaturesDeterministic) {
  // PKCS#1 v1.5 signing is deterministic: same key + message => same bytes.
  HashDrbg drbg(5);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  const std::vector<uint8_t> msg = Bytes("stable");
  EXPECT_EQ(RsaSignSha256(key, msg.data(), msg.size()),
            RsaSignSha256(key, msg.data(), msg.size()));
}

TEST(RsaTest, EmsaEncodingLayout) {
  const Digest digest = Sha256Hash(Bytes("x"));
  const std::vector<uint8_t> em = Pkcs1V15EncodeSha256(digest, 64);
  ASSERT_EQ(em.size(), 64u);
  EXPECT_EQ(em[0], 0x00);
  EXPECT_EQ(em[1], 0x01);
  // PS padding of 0xff up to the 0x00 separator.
  const size_t t_len = 19 + 32;
  for (size_t i = 2; i < 64 - t_len - 1; ++i) {
    EXPECT_EQ(em[i], 0xff) << i;
  }
  EXPECT_EQ(em[64 - t_len - 1], 0x00);
  // Digest is the tail.
  EXPECT_TRUE(std::equal(digest.begin(), digest.end(), em.end() - 32));
}

TEST(RsaTest, CrtAgreesWithPlainModExp) {
  HashDrbg drbg(11);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  ASSERT_TRUE(key.has_crt);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    HashDrbg msg_drbg(seed);
    const BigNum m = BigNum::Mod(BigNum::Random(&msg_drbg, 512, false), key.pub.n);
    const BigNum via_crt = RsaPrivateOp(key, m);
    const BigNum plain = BigNum::ModExp(m, key.d, key.pub.n);
    ASSERT_EQ(via_crt, plain) << "seed " << seed;
  }
}

TEST(RsaTest, CrtParametersConsistent) {
  HashDrbg drbg(12);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  EXPECT_EQ(key.dp, BigNum::Mod(key.d, BigNum::Sub(key.p, BigNum(1))));
  EXPECT_EQ(key.dq, BigNum::Mod(key.d, BigNum::Sub(key.q, BigNum(1))));
  EXPECT_EQ(BigNum::MulMod(key.qinv, key.q, key.p), BigNum(1));
}

TEST(RsaTest, NonCrtKeyStillSigns) {
  HashDrbg drbg(13);
  RsaKeyPair key = RsaGenerateKey(&drbg, 512);
  key.has_crt = false;  // strip the CRT parameters
  const std::vector<uint8_t> msg = Bytes("fallback path");
  const std::vector<uint8_t> sig = RsaSignSha256(key, msg.data(), msg.size());
  EXPECT_TRUE(RsaVerifySha256(key.pub, msg.data(), msg.size(), sig));
}

TEST(RsaTest, Rsa1024EndToEnd) {
  HashDrbg drbg(6);
  const RsaKeyPair key = RsaGenerateKey(&drbg, 1024);
  EXPECT_EQ(key.pub.n.BitLength(), 1024u);
  const std::vector<uint8_t> msg(1000, 0xab);
  const std::vector<uint8_t> sig = RsaSignSha256(key, msg.data(), msg.size());
  EXPECT_TRUE(RsaVerifySha256(key.pub, msg.data(), msg.size(), sig));
}

}  // namespace
}  // namespace komodo::crypto
