#include "src/crypto/bignum.h"

#include <gtest/gtest.h>

namespace komodo::crypto {
namespace {

TEST(BigNumTest, ConstructionAndHex) {
  EXPECT_TRUE(BigNum().IsZero());
  EXPECT_EQ(BigNum(0).ToHex(), "0");
  EXPECT_EQ(BigNum(0x1234).ToHex(), "1234");
  EXPECT_EQ(BigNum(0xdeadbeefcafeull).ToHex(), "deadbeefcafe");
  EXPECT_EQ(BigNum::FromHex("DeadBeef").ToU64(), 0xdeadbeefull);
  EXPECT_EQ(BigNum::FromHex("0").ToHex(), "0");
}

TEST(BigNumTest, BytesBeRoundTrip) {
  const BigNum n = BigNum::FromHex("0102030405060708090a0b0c");
  const std::vector<uint8_t> bytes = n.ToBytesBe();
  ASSERT_EQ(bytes.size(), 12u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[11], 0x0c);
  EXPECT_EQ(BigNum::FromBytesBe(bytes), n);
  // Padding to a minimum length.
  EXPECT_EQ(n.ToBytesBe(16).size(), 16u);
  EXPECT_EQ(n.ToBytesBe(16)[0], 0u);
}

TEST(BigNumTest, ImportsSkipLeadingZeros) {
  EXPECT_EQ(BigNum::FromBytesBe({0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02}), BigNum(0x102));
  EXPECT_EQ(BigNum::FromHex("0000000000000000abc"), BigNum(0xabc));
  EXPECT_TRUE(BigNum::FromBytesBe({}).IsZero());
  EXPECT_TRUE(BigNum::FromBytesBe({0x00, 0x00}).IsZero());
  EXPECT_TRUE(BigNum::FromHex("").IsZero());
  EXPECT_EQ(BigNum::FromHex("12 34:56").ToU64(), 0x123456u);  // non-hex characters skipped
  // Round trips at every byte length across several limbs.
  HashDrbg drbg(9);
  for (size_t bits = 2; bits <= 200; ++bits) {
    const BigNum v = BigNum::Random(&drbg, bits, false);
    EXPECT_EQ(BigNum::FromBytesBe(v.ToBytesBe()), v) << bits;
    EXPECT_EQ(BigNum::FromBytesBe(v.ToBytesBe(40)), v) << bits;
    EXPECT_EQ(BigNum::FromHex(v.ToHex()), v) << bits;
    EXPECT_EQ(BigNum::FromHex("000" + v.ToHex()), v) << bits;
  }
}

TEST(BigNumTest, CompareAndBitLength) {
  EXPECT_EQ(BigNum(0).BitLength(), 0u);
  EXPECT_EQ(BigNum(1).BitLength(), 1u);
  EXPECT_EQ(BigNum(0xffffffffull).BitLength(), 32u);
  EXPECT_EQ(BigNum(0x100000000ull).BitLength(), 33u);
  EXPECT_LT(BigNum(5), BigNum(6));
  EXPECT_GT(BigNum(0x100000000ull), BigNum(0xffffffffull));
}

TEST(BigNumTest, AddSubMatchU64) {
  HashDrbg drbg(1);
  for (int i = 0; i < 500; ++i) {
    const uint64_t a = drbg.NextU64() >> 1;
    const uint64_t b = drbg.NextU64() >> 1;
    EXPECT_EQ(BigNum::Add(BigNum(a), BigNum(b)).ToU64(), a + b);
    const uint64_t hi = std::max(a, b);
    const uint64_t lo = std::min(a, b);
    EXPECT_EQ(BigNum::Sub(BigNum(hi), BigNum(lo)).ToU64(), hi - lo);
  }
}

TEST(BigNumTest, MulMatchU64) {
  HashDrbg drbg(2);
  for (int i = 0; i < 500; ++i) {
    const uint64_t a = drbg.NextWord();
    const uint64_t b = drbg.NextWord();
    EXPECT_EQ(BigNum::Mul(BigNum(a), BigNum(b)).ToU64(), a * b);
  }
}

TEST(BigNumTest, DivModMatchU64) {
  HashDrbg drbg(3);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t a = drbg.NextU64();
    uint64_t b = drbg.NextU64() >> (drbg.Below(48));
    if (b == 0) {
      b = 1;
    }
    BigNum q;
    BigNum r;
    BigNum::DivMod(BigNum(a), BigNum(b), &q, &r);
    EXPECT_EQ(q.ToU64(), a / b) << a << "/" << b;
    EXPECT_EQ(r.ToU64(), a % b) << a << "%" << b;
  }
}

TEST(BigNumTest, DivModIdentityOnLargeNumbers) {
  // a == q*d + r with r < d, exercised on multi-limb values.
  HashDrbg drbg(4);
  for (int i = 0; i < 200; ++i) {
    const BigNum a = BigNum::Random(&drbg, 40 + drbg.Below(400), false);
    const BigNum d = BigNum::Random(&drbg, 33 + drbg.Below(200), false);
    BigNum q;
    BigNum r;
    BigNum::DivMod(a, d, &q, &r);
    EXPECT_LT(BigNum::Compare(r, d), 0);
    EXPECT_EQ(BigNum::Add(BigNum::Mul(q, d), r), a);
  }
}

TEST(BigNumTest, KnuthD6AddBackCase) {
  // Divisors of the form b^n - 1 with dividends just below trigger the rare
  // add-back branch of algorithm D.
  const BigNum d = BigNum::FromHex("ffffffffffffffff");  // 2^64 - 1
  const BigNum a = BigNum::FromHex("fffffffffffffffe00000000000000000000000000000001");
  BigNum q;
  BigNum r;
  BigNum::DivMod(a, d, &q, &r);
  EXPECT_EQ(BigNum::Add(BigNum::Mul(q, d), r), a);
  EXPECT_LT(BigNum::Compare(r, d), 0);
}

TEST(BigNumTest, Shifts) {
  const BigNum one(1);
  EXPECT_EQ(BigNum::ShiftLeft(one, 100).BitLength(), 101u);
  EXPECT_EQ(BigNum::ShiftRight(BigNum::ShiftLeft(one, 100), 100), one);
  EXPECT_TRUE(BigNum::ShiftRight(one, 1).IsZero());
  const BigNum v = BigNum::FromHex("123456789abcdef0");
  EXPECT_EQ(BigNum::ShiftRight(v, 4).ToHex(), "123456789abcdef");
  EXPECT_EQ(BigNum::ShiftLeft(v, 12).ToHex(), "123456789abcdef0000");
}

TEST(BigNumTest, ModExpSmallCases) {
  EXPECT_EQ(BigNum::ModExp(BigNum(2), BigNum(10), BigNum(1000)).ToU64(), 24u);
  EXPECT_EQ(BigNum::ModExp(BigNum(3), BigNum(0), BigNum(7)).ToU64(), 1u);
  EXPECT_EQ(BigNum::ModExp(BigNum(7), BigNum(5), BigNum(13)).ToU64(), 11u);  // 16807 mod 13
  // Fermat: a^(p-1) = 1 mod p.
  const BigNum p(1000003);
  for (uint64_t a : {2ull, 3ull, 999999ull}) {
    EXPECT_EQ(BigNum::ModExp(BigNum(a), BigNum(1000002), p).ToU64(), 1u);
  }
}

TEST(BigNumTest, ModExpLargeKnownValue) {
  // Computed independently (python): pow(0xabcdef1234567890, 65537, (1<<127)-1)
  const BigNum base = BigNum::FromHex("abcdef1234567890");
  const BigNum mod = BigNum::Sub(BigNum::ShiftLeft(BigNum(1), 127), BigNum(1));
  const BigNum result = BigNum::ModExp(base, BigNum(65537), mod);
  // Verify via the multiplicative property instead of a hard-coded constant:
  // result * base^(mod-1-65537... ) is overkill; check result < mod and
  // result^1 consistency with square-and-multiply in a second formulation.
  EXPECT_LT(BigNum::Compare(result, mod), 0);
  // (base^2)^32768 * base = base^65537.
  const BigNum base2 = BigNum::MulMod(base, base, mod);
  const BigNum alt = BigNum::MulMod(BigNum::ModExp(base2, BigNum(32768), mod), base, mod);
  EXPECT_EQ(result, alt);
}

// The Montgomery path of ModExp (odd moduli) must agree bit for bit with the
// DivMod square-and-multiply reference.
void ExpectModExpMatchesReference(const BigNum& base, const BigNum& exp, const BigNum& m) {
  EXPECT_EQ(BigNum::ModExp(base, exp, m), BigNum::ModExpDivMod(base, exp, m))
      << "base=" << base.ToHex() << " exp=" << exp.ToHex() << " m=" << m.ToHex();
}

TEST(BigNumTest, MontgomeryModExpMatchesReference) {
  HashDrbg drbg(10);
  // Single 32-bit limb, one 64-bit limb, and odd 32-bit limb counts (65, 95,
  // 129 and 513 bits) that leave the top 64-bit limb half empty.
  for (size_t bits : {2u, 17u, 32u, 33u, 63u, 64u, 65u, 95u, 127u, 128u, 129u, 511u, 512u,
                      513u, 1024u, 2048u}) {
    const int cases = bits >= 1024 ? 2 : 8;
    for (int i = 0; i < cases; ++i) {
      const BigNum m = BigNum::Random(&drbg, bits, /*odd=*/true);
      const BigNum m_minus_1 = BigNum::Sub(m, BigNum(1));
      const BigNum exp = BigNum::Random(&drbg, 2 + drbg.Below(bits), false);
      ExpectModExpMatchesReference(BigNum::Random(&drbg, bits + 1, false), exp, m);
      ExpectModExpMatchesReference(BigNum::Random(&drbg, 2 + drbg.Below(bits), false), exp, m);
      ExpectModExpMatchesReference(m_minus_1, exp, m);
      ExpectModExpMatchesReference(m_minus_1, m_minus_1, m);  // Fermat-style full exponent
      ExpectModExpMatchesReference(BigNum(), exp, m);
      ExpectModExpMatchesReference(m, exp, m);
      ExpectModExpMatchesReference(BigNum::Add(m, BigNum(5)), exp, m);
      ExpectModExpMatchesReference(BigNum::Mul(m, m), exp, m);
      ExpectModExpMatchesReference(m_minus_1, BigNum(), m);
      ExpectModExpMatchesReference(m_minus_1, BigNum(1), m);
      ExpectModExpMatchesReference(BigNum(), BigNum(), m);
    }
  }
  // Moduli of all-ones limbs keep intermediate products near R.
  for (size_t bits : {64u, 128u, 512u}) {
    const BigNum m = BigNum::Sub(BigNum::ShiftLeft(BigNum(1), bits), BigNum(1));
    const BigNum m_minus_1 = BigNum::Sub(m, BigNum(1));
    ExpectModExpMatchesReference(m_minus_1, m_minus_1, m);
    ExpectModExpMatchesReference(BigNum::Random(&drbg, bits, false), BigNum(65537), m);
  }
  // m = 1: every power is 0.
  EXPECT_TRUE(BigNum::ModExp(BigNum(5), BigNum(0), BigNum(1)).IsZero());
  EXPECT_TRUE(BigNum::ModExp(BigNum(5), BigNum(3), BigNum(1)).IsZero());
  ExpectModExpMatchesReference(BigNum(5), BigNum(0), BigNum(1));
  ExpectModExpMatchesReference(BigNum(5), BigNum(7), BigNum(1));
}

TEST(BigNumTest, GcdAndModInverse) {
  EXPECT_EQ(BigNum::Gcd(BigNum(12), BigNum(18)).ToU64(), 6u);
  EXPECT_EQ(BigNum::Gcd(BigNum(17), BigNum(31)).ToU64(), 1u);
  BigNum inv;
  ASSERT_TRUE(BigNum::ModInverse(BigNum(3), BigNum(7), &inv));
  EXPECT_EQ(inv.ToU64(), 5u);  // 3*5 = 15 = 1 mod 7
  EXPECT_FALSE(BigNum::ModInverse(BigNum(4), BigNum(8), &inv));
  // Property: a * inv(a) == 1 mod m for random coprime pairs.
  HashDrbg drbg(5);
  for (int i = 0; i < 100; ++i) {
    const BigNum m = BigNum::Random(&drbg, 128, true);
    const BigNum a = BigNum::Random(&drbg, 100, false);
    if (!(BigNum::Gcd(a, m) == BigNum(1))) {
      continue;
    }
    ASSERT_TRUE(BigNum::ModInverse(a, m, &inv));
    EXPECT_EQ(BigNum::MulMod(a, inv, m), BigNum(1));
  }
}

TEST(BigNumTest, PrimalitySmallKnowns) {
  HashDrbg drbg(6);
  for (uint64_t p : {2ull, 3ull, 5ull, 7ull, 97ull, 65537ull, 1000003ull, 2147483647ull}) {
    EXPECT_TRUE(BigNum::IsProbablePrime(BigNum(p), &drbg)) << p;
  }
  for (uint64_t c : {1ull, 4ull, 100ull, 65535ull, 1000001ull, 2147483647ull * 3}) {
    EXPECT_FALSE(BigNum::IsProbablePrime(BigNum(c), &drbg)) << c;
  }
  // Carmichael number 561 = 3 * 11 * 17 must be rejected.
  EXPECT_FALSE(BigNum::IsProbablePrime(BigNum(561), &drbg));
}

TEST(BigNumTest, GeneratePrimeHasRequestedSize) {
  HashDrbg drbg(7);
  const BigNum p = BigNum::GeneratePrime(&drbg, 96);
  EXPECT_EQ(p.BitLength(), 96u);
  EXPECT_TRUE(p.IsOdd());
  EXPECT_TRUE(BigNum::IsProbablePrime(p, &drbg));
}

TEST(BigNumTest, RandomHasExactBitLength) {
  HashDrbg drbg(8);
  for (size_t bits : {2u, 31u, 32u, 33u, 100u, 512u}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(BigNum::Random(&drbg, bits, false).BitLength(), bits);
      EXPECT_TRUE(BigNum::Random(&drbg, bits, true).IsOdd());
    }
  }
}

}  // namespace
}  // namespace komodo::crypto
