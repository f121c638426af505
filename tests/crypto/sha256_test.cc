#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <random>

#include "src/crypto/sha256_internal.h"

namespace komodo::crypto {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

// The compression functions the host can run: the generic one everywhere,
// SHA-NI where CPUID reports it. Each FIPS 180 vector runs on both.
enum class Path { kGeneric, kShaNi };

Sha256CompressFn CompressFor(Path p) {
  if (p == Path::kGeneric) {
    return internal::Sha256CompressGeneric;
  }
#if defined(__x86_64__)
  if (internal::HostHasShaNi()) {
    return internal::Sha256CompressShaNi;
  }
#endif
  return nullptr;
}

#define SKIP_IF_UNAVAILABLE(path)                                                     \
  if (CompressFor(path) == nullptr) {                                                 \
    GTEST_SKIP() << "host CPU lacks SHA-NI (CPUID leaf 7 EBX bit 29, SSSE3, SSE4.1)"; \
  }

std::string HexOf(Path p, const std::vector<uint8_t>& data) {
  Sha256 h(CompressFor(p));
  h.Update(data);
  return DigestToHex(h.Finalize());
}

class Sha256PathTest : public ::testing::TestWithParam<Path> {};

TEST_P(Sha256PathTest, Fips180EmptyString) {
  SKIP_IF_UNAVAILABLE(GetParam());
  EXPECT_EQ(HexOf(GetParam(), Bytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256PathTest, Fips180Abc) {
  SKIP_IF_UNAVAILABLE(GetParam());
  EXPECT_EQ(HexOf(GetParam(), Bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256PathTest, Fips180TwoBlocks) {
  SKIP_IF_UNAVAILABLE(GetParam());
  EXPECT_EQ(HexOf(GetParam(), Bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256PathTest, Fips180MillionAs) {
  SKIP_IF_UNAVAILABLE(GetParam());
  Sha256 h(CompressFor(GetParam()));
  const std::vector<uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

INSTANTIATE_TEST_SUITE_P(Compress, Sha256PathTest, ::testing::Values(Path::kGeneric, Path::kShaNi),
                         [](const ::testing::TestParamInfo<Path>& p) {
                           return p.param == Path::kGeneric ? "Generic" : "ShaNi";
                         });

// Random messages (0 to 2 KiB) fed in random pieces: the two paths agree on
// every exported stream state, including the stale buffer tail the monitor
// stores in the address-space page, and on the digest.
TEST(Sha256PathDiffTest, ShaNiMatchesGenericOnRandomSplits) {
  SKIP_IF_UNAVAILABLE(Path::kShaNi);
  std::mt19937_64 rng(20261018);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t len = rng() % 2049;
    std::vector<uint8_t> msg(len);
    for (uint8_t& b : msg) {
      b = static_cast<uint8_t>(rng());
    }
    Sha256 generic(CompressFor(Path::kGeneric));
    Sha256 sha_ni(CompressFor(Path::kShaNi));
    size_t at = 0;
    while (at < len) {
      const size_t take = 1 + rng() % (len - at);
      generic.Update(msg.data() + at, take);
      sha_ni.Update(msg.data() + at, take);
      at += take;
      ASSERT_EQ(generic.Export(), sha_ni.Export()) << "len=" << len << " at=" << at;
    }
    const Digest d = generic.Finalize();
    ASSERT_EQ(d, sha_ni.Finalize()) << "len=" << len;
    ASSERT_EQ(generic.Export(), sha_ni.Export()) << "len=" << len;
    ASSERT_EQ(d, Sha256Hash(msg)) << "len=" << len;
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::vector<uint8_t> data = Bytes("the quick brown fox jumps over the lazy dog etc etc");
  for (size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(data.data(), split);
    h.Update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.Finalize(), Sha256Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, UpdateWordLeMatchesBytes) {
  Sha256 a;
  a.UpdateWordLe(0x04030201);
  const uint8_t bytes[4] = {1, 2, 3, 4};
  Sha256 b;
  b.Update(bytes, 4);
  EXPECT_EQ(a.Finalize(), b.Finalize());
}

TEST(Sha256Test, ExportImportResumesStream) {
  const std::vector<uint8_t> part1 = Bytes("hello, this is part one of a message ");
  const std::vector<uint8_t> part2 = Bytes("and this is part two, crossing block bounds maybe");

  Sha256 original;
  original.Update(part1);

  Sha256 resumed;
  resumed.Import(original.Export());
  resumed.Update(part2);

  Sha256 reference;
  reference.Update(part1);
  reference.Update(part2);
  EXPECT_EQ(resumed.Finalize(), reference.Finalize());
}

TEST(Sha256Test, ExportImportAtEveryOffsetWithinBlock) {
  for (size_t len = 0; len < 130; ++len) {
    std::vector<uint8_t> data(len, static_cast<uint8_t>(len));
    Sha256 a;
    a.Update(data);
    Sha256 b;
    b.Import(a.Export());
    const std::vector<uint8_t> tail = Bytes("tail");
    a.Update(tail);
    b.Update(tail);
    ASSERT_EQ(a.Finalize(), b.Finalize()) << len;
  }
}

TEST(Sha256Test, TotalBytesTracksInput) {
  Sha256 h;
  h.Update(Bytes("12345"));
  EXPECT_EQ(h.total_bytes(), 5u);
  h.UpdateWordLe(0);
  EXPECT_EQ(h.total_bytes(), 9u);
}

TEST(Sha256Test, DigestWordConversionRoundTrip) {
  const Digest d = Sha256Hash(Bytes("roundtrip"));
  EXPECT_EQ(WordsToDigest(DigestToWords(d)), d);
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256Hash(Bytes("a")), Sha256Hash(Bytes("b")));
  EXPECT_NE(Sha256Hash(Bytes("")), Sha256Hash(std::vector<uint8_t>{0}));
}

TEST(ConstantTimeEqualTest, Basics) {
  const uint8_t a[4] = {1, 2, 3, 4};
  const uint8_t b[4] = {1, 2, 3, 4};
  const uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(ConstantTimeEqual(a, b, 4));
  EXPECT_FALSE(ConstantTimeEqual(a, c, 4));
  EXPECT_TRUE(ConstantTimeEqual(a, c, 3));
  EXPECT_TRUE(ConstantTimeEqual(a, c, 0));
}

}  // namespace
}  // namespace komodo::crypto
