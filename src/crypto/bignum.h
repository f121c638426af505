// Arbitrary-precision unsigned integers, sized for RSA-1024 (the notary
// workload of §8.2). 32-bit limbs, little-endian limb order; ModExp repacks
// odd moduli into 64-bit limbs for Montgomery multiplication. Only the
// operations RSA needs are provided; everything is deterministic and
// allocation-light but not constant-time (the notary is an example
// application, not part of the monitor's TCB).
#ifndef SRC_CRYPTO_BIGNUM_H_
#define SRC_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/crypto/drbg.h"

namespace komodo::crypto {

class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(uint64_t value);
  // Big-endian byte import/export (network order, as PKCS#1 uses).
  static BigNum FromBytesBe(const std::vector<uint8_t>& bytes);
  std::vector<uint8_t> ToBytesBe(size_t min_len = 0) const;
  static BigNum FromHex(const std::string& hex);
  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t BitLength() const;
  bool Bit(size_t i) const;

  static int Compare(const BigNum& a, const BigNum& b);
  bool operator==(const BigNum& o) const { return Compare(*this, o) == 0; }
  bool operator<(const BigNum& o) const { return Compare(*this, o) < 0; }
  bool operator<=(const BigNum& o) const { return Compare(*this, o) <= 0; }
  bool operator>(const BigNum& o) const { return Compare(*this, o) > 0; }
  bool operator>=(const BigNum& o) const { return Compare(*this, o) >= 0; }

  static BigNum Add(const BigNum& a, const BigNum& b);
  // Requires a >= b.
  static BigNum Sub(const BigNum& a, const BigNum& b);
  static BigNum Mul(const BigNum& a, const BigNum& b);
  // Requires divisor != 0.
  static void DivMod(const BigNum& a, const BigNum& d, BigNum* quotient, BigNum* remainder);
  static BigNum Mod(const BigNum& a, const BigNum& m);

  static BigNum ShiftLeft(const BigNum& a, size_t bits);
  static BigNum ShiftRight(const BigNum& a, size_t bits);

  // (a * b) mod m.
  static BigNum MulMod(const BigNum& a, const BigNum& b, const BigNum& m);
  // base^exp mod m. Odd moduli (every RSA and Miller-Rabin modulus) use
  // Montgomery products over fixed 4-bit exponent windows; even moduli fall
  // back to ModExpDivMod.
  static BigNum ModExp(const BigNum& base, const BigNum& exp, const BigNum& m);
  // base^exp mod m by right-to-left square-and-multiply with a Knuth-D
  // reduction after every product: the even-modulus path of ModExp, and the
  // reference its Montgomery path is tested against.
  static BigNum ModExpDivMod(const BigNum& base, const BigNum& exp, const BigNum& m);

  static BigNum Gcd(BigNum a, BigNum b);
  // Modular inverse of a mod m; returns false if gcd(a, m) != 1.
  static bool ModInverse(const BigNum& a, const BigNum& m, BigNum* inverse);

  // Uniform value with exactly `bits` bits (top bit set), low bit forced odd
  // when `odd` — the prime-candidate generator.
  static BigNum Random(HashDrbg* drbg, size_t bits, bool odd);
  // Miller-Rabin with `rounds` random bases.
  static bool IsProbablePrime(const BigNum& n, HashDrbg* drbg, int rounds = 24);
  // Next prime with exactly `bits` bits from the DRBG stream.
  static BigNum GeneratePrime(HashDrbg* drbg, size_t bits);

  uint64_t ToU64() const;  // low 64 bits

 private:
  void Trim();
  static BigNum FromLimbs(std::vector<uint32_t> limbs);

  std::vector<uint32_t> limbs_;  // little-endian, no trailing zero limbs
};

}  // namespace komodo::crypto

#endif  // SRC_CRYPTO_BIGNUM_H_
