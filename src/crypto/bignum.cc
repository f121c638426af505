#include "src/crypto/bignum.h"

#include <algorithm>
#include <cassert>

namespace komodo::crypto {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

using u128 = unsigned __int128;

// Montgomery arithmetic modulo an odd m of n 64-bit limbs, with R = 2^(64n).
// Values in Montgomery form are x*R mod m, held in n little-endian limbs.
struct Montgomery {
  const uint64_t* m;
  size_t n;
  uint64_t m_inv;  // -m^-1 mod 2^64
  uint64_t* t;     // n + 2 limbs of scratch

  // out = a * b * R^-1 mod m for a, b < m (CIOS: Koç, Acar and Kaliski,
  // "Analyzing and comparing Montgomery multiplication algorithms", 1996).
  // `out` may alias `a` or `b`: it is written only after both are read.
  void Mul(const uint64_t* a, const uint64_t* b, uint64_t* out) const {
    std::fill(t, t + n + 2, 0);
    for (size_t i = 0; i < n; ++i) {
      // t += a[i] * b
      uint64_t carry = 0;
      for (size_t j = 0; j < n; ++j) {
        const u128 p = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(p);
        carry = static_cast<uint64_t>(p >> 64);
      }
      u128 s = static_cast<u128>(t[n]) + carry;
      t[n] = static_cast<uint64_t>(s);
      t[n + 1] = static_cast<uint64_t>(s >> 64);
      // t = (t + u*m) / 2^64, where u makes the low limb vanish.
      const uint64_t u = t[0] * m_inv;
      u128 p = static_cast<u128>(u) * m[0] + t[0];
      carry = static_cast<uint64_t>(p >> 64);
      for (size_t j = 1; j < n; ++j) {
        p = static_cast<u128>(u) * m[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(p);
        carry = static_cast<uint64_t>(p >> 64);
      }
      s = static_cast<u128>(t[n]) + carry;
      t[n - 1] = static_cast<uint64_t>(s);
      t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
    }
    // Now t < 2m; subtract m once unless t < m.
    uint64_t borrow = 0;
    for (size_t j = 0; j < n; ++j) {
      const u128 d = static_cast<u128>(t[j]) - m[j] - borrow;
      out[j] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
    if (t[n] == 0 && borrow != 0) {
      std::copy(t, t + n, out);
    }
  }
};

// -m0^-1 mod 2^64 for odd m0. Newton's step x' = x(2 - m0 x) doubles the
// number of correct low bits, and x = m0 is already correct to three.
uint64_t NegInverse64(uint64_t m0) {
  uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - m0 * inv;
  }
  return 0 - inv;
}

// Packs 32-bit little-endian limbs into n 64-bit limbs, zero-padding the top.
void Pack64(const std::vector<uint32_t>& in, uint64_t* out, size_t n) {
  std::fill(out, out + n, 0);
  for (size_t i = 0; i < in.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(in[i]) << (32 * (i % 2));
  }
}

}  // namespace

void BigNum::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigNum BigNum::FromLimbs(std::vector<uint32_t> limbs) {
  BigNum n;
  n.limbs_ = std::move(limbs);
  n.Trim();
  return n;
}

BigNum::BigNum(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value));
    if (value >> 32) {
      limbs_.push_back(static_cast<uint32_t>(value >> 32));
    }
  }
}

BigNum BigNum::FromBytesBe(const std::vector<uint8_t>& bytes) {
  std::vector<uint32_t> limbs((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    const size_t pos = bytes.size() - 1 - i;  // byte index from the least significant end
    limbs[pos / 4] |= static_cast<uint32_t>(bytes[i]) << (8 * (pos % 4));
  }
  return FromLimbs(std::move(limbs));
}

std::vector<uint8_t> BigNum::ToBytesBe(size_t min_len) const {
  std::vector<uint8_t> out;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint32_t limb = limbs_[i];
    out.push_back(static_cast<uint8_t>(limb));
    out.push_back(static_cast<uint8_t>(limb >> 8));
    out.push_back(static_cast<uint8_t>(limb >> 16));
    out.push_back(static_cast<uint8_t>(limb >> 24));
  }
  while (!out.empty() && out.back() == 0) {
    out.pop_back();
  }
  while (out.size() < min_len) {
    out.push_back(0);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

BigNum BigNum::FromHex(const std::string& hex) {
  // Non-hex characters are skipped, so count the digits before packing.
  size_t ndigits = 0;
  for (char c : hex) {
    if (HexDigit(c) >= 0) {
      ++ndigits;
    }
  }
  std::vector<uint32_t> limbs((ndigits + 7) / 8, 0);
  size_t pos = ndigits;  // digit index from the least significant end, plus one
  for (char c : hex) {
    const int digit = HexDigit(c);
    if (digit >= 0) {
      --pos;
      limbs[pos / 8] |= static_cast<uint32_t>(digit) << (4 * (pos % 8));
    }
  }
  return FromLimbs(std::move(limbs));
}

std::string BigNum::ToHex() const {
  if (limbs_.empty()) {
    return "0";
  }
  static const char* kHex = "0123456789abcdef";
  std::string s;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      s += kHex[(limbs_[i] >> shift) & 0xf];
    }
  }
  const size_t nonzero = s.find_first_not_of('0');
  return s.substr(nonzero);
}

size_t BigNum::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  size_t bits = (limbs_.size() - 1) * 32;
  uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::Bit(size_t i) const {
  const size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigNum::Compare(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigNum BigNum::Add(const BigNum& a, const BigNum& b) {
  std::vector<uint32_t> out(std::max(a.limbs_.size(), b.limbs_.size()) + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) {
      sum += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      sum += b.limbs_[i];
    }
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  return FromLimbs(std::move(out));
}

BigNum BigNum::Sub(const BigNum& a, const BigNum& b) {
  assert(Compare(a, b) >= 0);
  std::vector<uint32_t> out(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    if (diff < 0) {
      diff += int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<uint32_t>(diff);
  }
  assert(borrow == 0);
  return FromLimbs(std::move(out));
}

BigNum BigNum::Mul(const BigNum& a, const BigNum& b) {
  if (a.IsZero() || b.IsZero()) {
    return BigNum();
  }
  std::vector<uint32_t> out(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      const uint64_t cur = static_cast<uint64_t>(a.limbs_[i]) * b.limbs_[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      const uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  return FromLimbs(std::move(out));
}

BigNum BigNum::ShiftLeft(const BigNum& a, size_t bits) {
  if (a.IsZero() || bits == 0) {
    return a;
  }
  const size_t limb_shift = bits / 32;
  const size_t bit_shift = bits % 32;
  std::vector<uint32_t> out(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<uint32_t>(v);
    out[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  return FromLimbs(std::move(out));
}

BigNum BigNum::ShiftRight(const BigNum& a, size_t bits) {
  const size_t limb_shift = bits / 32;
  const size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) {
    return BigNum();
  }
  std::vector<uint32_t> out(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out[i] = static_cast<uint32_t>(v);
  }
  return FromLimbs(std::move(out));
}

void BigNum::DivMod(const BigNum& a, const BigNum& d, BigNum* quotient, BigNum* remainder) {
  assert(!d.IsZero());
  if (Compare(a, d) < 0) {
    if (quotient != nullptr) {
      *quotient = BigNum();
    }
    if (remainder != nullptr) {
      *remainder = a;
    }
    return;
  }

  // Single-limb divisor: straightforward long division.
  if (d.limbs_.size() == 1) {
    const uint64_t divisor = d.limbs_[0];
    std::vector<uint32_t> q_limbs(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | a.limbs_[i];
      q_limbs[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    if (quotient != nullptr) {
      *quotient = FromLimbs(std::move(q_limbs));
    }
    if (remainder != nullptr) {
      *remainder = BigNum(rem);
    }
    return;
  }

  // Knuth TAOCP vol. 2, algorithm D (base 2^32).
  const size_t n = d.limbs_.size();
  const size_t m = a.limbs_.size() - n;

  // D1: normalise so the divisor's top limb has its high bit set.
  unsigned shift = 0;
  {
    uint32_t top = d.limbs_.back();
    while ((top & 0x8000'0000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  std::vector<uint32_t> u(a.limbs_.size() + 1, 0);
  std::vector<uint32_t> v(n, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    u[i] = a.limbs_[i] << shift;
    if (shift != 0 && i > 0) {
      u[i] |= static_cast<uint32_t>(static_cast<uint64_t>(a.limbs_[i - 1]) >> (32 - shift));
    }
  }
  if (shift != 0) {
    u[a.limbs_.size()] =
        static_cast<uint32_t>(static_cast<uint64_t>(a.limbs_.back()) >> (32 - shift));
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = d.limbs_[i] << shift;
    if (shift != 0 && i > 0) {
      v[i] |= static_cast<uint32_t>(static_cast<uint64_t>(d.limbs_[i - 1]) >> (32 - shift));
    }
  }

  std::vector<uint32_t> q_limbs(m + 1, 0);
  const uint64_t base = uint64_t{1} << 32;

  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat from the top two limbs.
    const uint64_t top2 = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = top2 / v[n - 1];
    uint64_t rhat = top2 % v[n - 1];
    while (qhat >= base ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= base) {
        break;
      }
    }

    // D4: multiply-subtract u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      const int64_t diff = static_cast<int64_t>(u[i + j]) -
                           static_cast<int64_t>(product & 0xffff'ffffu) - borrow;
      u[i + j] = static_cast<uint32_t>(diff);
      borrow = diff < 0 ? 1 : 0;
    }
    const int64_t diff =
        static_cast<int64_t>(u[j + n]) - static_cast<int64_t>(carry) - borrow;
    u[j + n] = static_cast<uint32_t>(diff);

    // D5/D6: qhat was one too large — add v back.
    if (diff < 0) {
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<uint32_t>(sum);
        add_carry = sum >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + add_carry);
    }
    q_limbs[j] = static_cast<uint32_t>(qhat);
  }

  if (quotient != nullptr) {
    *quotient = FromLimbs(std::move(q_limbs));
  }
  if (remainder != nullptr) {
    // D8: denormalise the first n limbs of u.
    std::vector<uint32_t> r_limbs(n, 0);
    for (size_t i = 0; i < n; ++i) {
      r_limbs[i] = u[i] >> shift;
      if (shift != 0 && i + 1 < n + 1) {
        r_limbs[i] |= static_cast<uint32_t>(static_cast<uint64_t>(u[i + 1]) << (32 - shift));
      }
    }
    *remainder = FromLimbs(std::move(r_limbs));
  }
}

BigNum BigNum::Mod(const BigNum& a, const BigNum& m) {
  BigNum r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigNum BigNum::MulMod(const BigNum& a, const BigNum& b, const BigNum& m) {
  return Mod(Mul(a, b), m);
}

BigNum BigNum::ModExp(const BigNum& base, const BigNum& exp, const BigNum& m) {
  assert(!m.IsZero());
  if (!m.IsOdd()) {
    return ModExpDivMod(base, exp, m);
  }
  constexpr size_t kWindowBits = 4;
  constexpr size_t kTableSize = size_t{1} << kWindowBits;
  const size_t n = (m.limbs_.size() + 1) / 2;

  // One allocation for every buffer: five n-limb values, the window table of
  // base^i in Montgomery form, and n + 2 limbs of product scratch.
  std::vector<uint64_t> buf((5 + kTableSize) * n + (n + 2));
  uint64_t* const mod = buf.data();
  uint64_t* const r2 = mod + n;
  uint64_t* const x = r2 + n;
  uint64_t* const one = x + n;
  uint64_t* const acc = one + n;
  uint64_t* const table = acc + n;
  uint64_t* const t = table + kTableSize * n;
  Pack64(m.limbs_, mod, n);
  Pack64(Mod(ShiftLeft(BigNum(1), 128 * n), m).limbs_, r2, n);
  Pack64(Mod(base, m).limbs_, x, n);
  const Montgomery mont{mod, n, NegInverse64(mod[0]), t};

  // table[i] = base^i * R mod m; table[0] is R mod m, the Montgomery one.
  one[0] = 1;
  mont.Mul(one, r2, table);
  mont.Mul(x, r2, table + n);
  for (size_t i = 2; i < kTableSize; ++i) {
    mont.Mul(table + (i - 1) * n, table + n, table + i * n);
  }

  // Left-to-right over fixed windows; the top window may be short.
  const size_t nbits = exp.BitLength();
  const size_t windows = (nbits + kWindowBits - 1) / kWindowBits;
  std::copy(table, table + n, acc);
  for (size_t w = windows; w-- > 0;) {
    size_t digit = 0;
    for (size_t b = kWindowBits; b-- > 0;) {
      digit = (digit << 1) | (exp.Bit(w * kWindowBits + b) ? 1 : 0);
    }
    if (w + 1 < windows) {
      for (size_t s = 0; s < kWindowBits; ++s) {
        mont.Mul(acc, acc, acc);
      }
    }
    if (digit != 0) {
      mont.Mul(acc, table + digit * n, acc);
    }
  }
  // Leave Montgomery form: acc * 1 * R^-1.
  mont.Mul(acc, one, acc);

  std::vector<uint32_t> limbs(2 * n);
  for (size_t i = 0; i < n; ++i) {
    limbs[2 * i] = static_cast<uint32_t>(acc[i]);
    limbs[2 * i + 1] = static_cast<uint32_t>(acc[i] >> 32);
  }
  return FromLimbs(std::move(limbs));
}

BigNum BigNum::ModExpDivMod(const BigNum& base, const BigNum& exp, const BigNum& m) {
  assert(!m.IsZero());
  BigNum result = Mod(BigNum(1), m);
  BigNum acc = Mod(base, m);
  const size_t nbits = exp.BitLength();
  for (size_t i = 0; i < nbits; ++i) {
    if (exp.Bit(i)) {
      result = MulMod(result, acc, m);
    }
    if (i + 1 < nbits) {
      acc = MulMod(acc, acc, m);
    }
  }
  return result;
}

BigNum BigNum::Gcd(BigNum a, BigNum b) {
  while (!b.IsZero()) {
    BigNum r = Mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

bool BigNum::ModInverse(const BigNum& a, const BigNum& m, BigNum* inverse) {
  // Extended Euclid over non-negative values, tracking signs separately.
  BigNum old_r = Mod(a, m);
  BigNum r = m;
  BigNum old_s(1);
  BigNum s;
  bool old_s_neg = false;
  bool s_neg = false;

  while (!r.IsZero()) {
    BigNum q;
    BigNum rem;
    DivMod(old_r, r, &q, &rem);

    // (old_s, s) = (s, old_s - q*s) with sign tracking.
    BigNum qs = Mul(q, s);
    BigNum new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (Compare(old_s, qs) >= 0) {
        new_s = Sub(old_s, qs);
        new_s_neg = old_s_neg;
      } else {
        new_s = Sub(qs, old_s);
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = Add(old_s, qs);
      new_s_neg = old_s_neg;
    }
    old_s = std::move(s);
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;

    old_r = std::move(r);
    r = std::move(rem);
  }

  if (!(old_r == BigNum(1))) {
    return false;
  }
  if (old_s_neg) {
    *inverse = Sub(m, Mod(old_s, m));
  } else {
    *inverse = Mod(old_s, m);
  }
  return true;
}

BigNum BigNum::Random(HashDrbg* drbg, size_t bits, bool odd) {
  assert(bits >= 2);
  std::vector<uint32_t> limbs((bits + 31) / 32, 0);
  for (uint32_t& limb : limbs) {
    limb = drbg->NextWord();
  }
  // Mask to exactly `bits` bits and force the top bit.
  const size_t top_bit = (bits - 1) % 32;
  limbs.back() &= (top_bit == 31) ? 0xffff'ffffu : ((1u << (top_bit + 1)) - 1);
  limbs.back() |= 1u << top_bit;
  if (odd) {
    limbs[0] |= 1;
  }
  return FromLimbs(std::move(limbs));
}

bool BigNum::IsProbablePrime(const BigNum& n, HashDrbg* drbg, int rounds) {
  if (n < BigNum(2)) {
    return false;
  }
  static const uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37,
                                          41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97};
  for (uint32_t p : kSmallPrimes) {
    const BigNum bp(p);
    if (n == bp) {
      return true;
    }
    if (Mod(n, bp).IsZero()) {
      return false;
    }
  }
  // n - 1 = d * 2^s with d odd.
  const BigNum n_minus_1 = Sub(n, BigNum(1));
  BigNum d = n_minus_1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d = ShiftRight(d, 1);
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    BigNum a = Add(Mod(Random(drbg, n.BitLength(), false), Sub(n, BigNum(3))), BigNum(2));
    BigNum x = ModExp(a, d, n);
    if (x == BigNum(1) || x == n_minus_1) {
      continue;
    }
    bool witness = true;
    for (size_t i = 0; i + 1 < s; ++i) {
      x = MulMod(x, x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

BigNum BigNum::GeneratePrime(HashDrbg* drbg, size_t bits) {
  for (;;) {
    BigNum candidate = Random(drbg, bits, /*odd=*/true);
    if (IsProbablePrime(candidate, drbg)) {
      return candidate;
    }
  }
}

uint64_t BigNum::ToU64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) {
    v = limbs_[0];
  }
  if (limbs_.size() > 1) {
    v |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return v;
}

}  // namespace komodo::crypto
