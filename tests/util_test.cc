// Tests for src/util: Status/Result, Slice, coding, CRC32C, Random, env.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "test_util.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace ode {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_TRUE(Status::TransactionAborted("x").IsTransactionAborted());
  EXPECT_EQ(Status::NotFound("missing thing").ToString(),
            "NotFound: missing thing");
  EXPECT_FALSE(Status::NotFound("x").ok());
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::Corruption("bad page");
  Status b = a;
  EXPECT_TRUE(b.IsCorruption());
  EXPECT_EQ(b.message(), "bad page");
}

Status FailingHelper() { return Status::IOError("disk"); }

Status PropagationDemo(bool fail, int* reached) {
  if (fail) {
    ODE_RETURN_IF_ERROR(FailingHelper());
  }
  *reached = 1;
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  int reached = 0;
  EXPECT_TRUE(PropagationDemo(false, &reached).ok());
  EXPECT_EQ(reached, 1);
  reached = 0;
  EXPECT_TRUE(PropagationDemo(true, &reached).IsIOError());
  EXPECT_EQ(reached, 0);
}

// Status and Result<T> are [[nodiscard]] with -Werror=unused-result, so a
// dropped return does not build; IgnoreStatus is the one sanctioned discard.
// These tests pin down its contract: OK drops are free and uncounted,
// non-OK drops bump status.ignored plus a per-reason counter in the Global
// registry (deltas, not absolutes — the registry accumulates across tests).
TEST(StatusTest, IgnoreStatusCountsOnlyFailures) {
  MetricsRegistry& m = MetricsRegistry::Global();
  const uint64_t before = m.TakeSnapshot().counter("status.ignored");
  const uint64_t reason_before =
      m.TakeSnapshot().counter("status.ignored.util-test");
  IgnoreStatus(Status::OK(), "util-test-ok");
  EXPECT_EQ(m.TakeSnapshot().counter("status.ignored"), before);
  EXPECT_EQ(m.TakeSnapshot().counter("status.ignored.util-test-ok"), 0u);

  IgnoreStatus(Status::IOError("dropped on purpose"), "util-test");
  IgnoreStatus(Status::NotFound("also dropped"), "util-test");
  const MetricsRegistry::Snapshot snap = m.TakeSnapshot();
  EXPECT_EQ(snap.counter("status.ignored"), before + 2);
  EXPECT_EQ(snap.counter("status.ignored.util-test"), reason_before + 2);
}

TEST(StatusTest, IgnoreStatusKeepsReasonsSeparate) {
  MetricsRegistry& m = MetricsRegistry::Global();
  const uint64_t a = m.TakeSnapshot().counter("status.ignored.util-reason-a");
  const uint64_t b = m.TakeSnapshot().counter("status.ignored.util-reason-b");
  IgnoreStatus(Status::Busy("x"), "util-reason-a");
  IgnoreStatus(Status::Busy("y"), "util-reason-b");
  IgnoreStatus(Status::Busy("z"), "util-reason-b");
  const MetricsRegistry::Snapshot snap = m.TakeSnapshot();
  EXPECT_EQ(snap.counter("status.ignored.util-reason-a"), a + 1);
  EXPECT_EQ(snap.counter("status.ignored.util-reason-b"), b + 2);
}

Result<int> MakeValue(bool ok) {
  if (!ok) return Status::NotFound("no value");
  return 42;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = MakeValue(true);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad = MakeValue(false);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

Status AssignDemo(bool ok, int* out) {
  ODE_ASSIGN_OR_RETURN(int v, MakeValue(ok));
  *out = v;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(AssignDemo(true, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(AssignDemo(false, &out).IsNotFound());
}

// --- Slice -------------------------------------------------------------------

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);   // prefix sorts first
  EXPECT_GT(Slice("abc").compare(Slice("ab")), 0);
}

TEST(SliceTest, EqualityAndPrefix) {
  EXPECT_EQ(Slice("abc"), Slice(std::string("abc")));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
}

TEST(SliceTest, EmbeddedNul) {
  std::string with_nul("a\0b", 3);
  Slice s(with_nul);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToString(), with_nul);
}

// --- Coding ------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, FixedTruncated) {
  std::string buf = "ab";
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetFixed32(&in, &v));
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  const uint64_t value = GetParam();
  std::string buf;
  PutVarint64(&buf, value);
  EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(value));
  Slice in(buf);
  uint64_t decoded;
  ASSERT_TRUE(GetVarint64(&in, &decoded));
  EXPECT_EQ(decoded, value);
  EXPECT_TRUE(in.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                      (1ull << 21) - 1, 1ull << 21, (1ull << 28), (1ull << 35),
                      (1ull << 42), (1ull << 49), (1ull << 56), (1ull << 63),
                      std::numeric_limits<uint64_t>::max()));

TEST(CodingTest, VarintSweep) {
  Random rng(42);
  for (int i = 0; i < 2000; i++) {
    const uint64_t v = rng.Next() >> rng.Uniform(64);
    std::string buf;
    PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&in, &decoded));
    ASSERT_EQ(decoded, v);
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, VarintTruncated) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("hello"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  std::string with_nul("x\0y", 3);
  PutLengthPrefixedSlice(&buf, Slice(with_nul));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), with_nul);
}

TEST(CodingTest, ZigZag) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 2, -2, 1000000, -1000000,
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

// --- CRC32C ------------------------------------------------------------------

std::string RandomBytes(uint64_t seed, size_t n) {
  Random rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next());
  return out;
}

TEST(Crc32cTest, KnownVectors) {
  // Each vector is checked on the dispatched path and on the table
  // reference, so both stay covered whichever one Extend() runs here.
  const auto check = [](const std::string& data, uint32_t expected) {
    EXPECT_EQ(crc32c::Value(data.data(), data.size()), expected);
    EXPECT_EQ(crc32c::ExtendPortable(0, data.data(), data.size()), expected);
  };
  // Standard CRC32C test vector: "123456789" -> 0xE3069283.
  check("123456789", 0xE3069283u);
  // RFC 3720 section B.4 vectors.
  check(std::string(32, '\0'), 0x8A9136AAu);
  check(std::string(32, '\xFF'), 0x62A8AB43u);
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; i++) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  check(ascending, 0x46DD794Eu);
  check(descending, 0x113FDB5Cu);
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryAlignment) {
  // Every length up to 256 from every start offset 0..15: exercises the
  // word loop at each misalignment and each length of the byte tail.
  const std::string buf = RandomBytes(11, 256 + 16);
  for (size_t offset = 0; offset < 16; offset++) {
    for (size_t len = 0; len <= 256; len++) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(crc32c::Extend(0, p, len), crc32c::ExtendPortable(0, p, len))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(crc32c::Extend(0xDEADBEEFu, p, len),
                crc32c::ExtendPortable(0xDEADBEEFu, p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableOnLargeBuffers) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    const std::string buf = RandomBytes(seed, 64 * 1024);
    EXPECT_EQ(crc32c::Value(buf.data(), buf.size()),
              crc32c::ExtendPortable(0, buf.data(), buf.size()))
        << "seed " << seed;
  }
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const std::string data = RandomBytes(5, 100);
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split++) {
    const uint32_t head = crc32c::Value(data.data(), split);
    EXPECT_EQ(crc32c::Extend(head, data.data() + split, data.size() - split),
              whole)
        << "split " << split;
    const uint32_t table_head = crc32c::ExtendPortable(0, data.data(), split);
    EXPECT_EQ(crc32c::ExtendPortable(table_head, data.data() + split,
                                     data.size() - split),
              whole)
        << "split " << split;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = crc32c::Value("payload", 7);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(Crc32cTest, SensitiveToChange) {
  std::string a = "abcdef";
  std::string b = "abcdeg";
  EXPECT_NE(crc32c::Value(a.data(), a.size()),
            crc32c::Value(b.data(), b.size()));
}

// --- Random ------------------------------------------------------------------

TEST(RandomTest, Deterministic) {
  Random a(7), b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, SeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextStringShape) {
  Random rng(9);
  const std::string s = rng.NextString(24);
  EXPECT_EQ(s.size(), 24u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

// --- Logging --------------------------------------------------------------------

TEST(LoggingTest, LevelGate) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Suppressed levels must not crash and must evaluate their stream args.
  int evaluated = 0;
  ODE_LOG(kDebug) << "suppressed " << ++evaluated;
  ODE_LOG(kInfo) << "suppressed " << ++evaluated;
  EXPECT_EQ(evaluated, 2);
  SetLogLevel(old_level);
}

// --- Histogram ------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.5);
  EXPECT_NEAR(h.Percentile(99), 99, 1.0);
  EXPECT_EQ(h.Percentile(0), 1);
  EXPECT_EQ(h.Percentile(100), 100);
}

TEST(HistogramTest, UnorderedInsertsSortCorrectly) {
  Histogram h;
  Random rng(3);
  std::vector<double> values;
  for (int i = 0; i < 500; i++) {
    const double v = rng.NextDouble() * 1000;
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(h.min(), values.front());
  EXPECT_DOUBLE_EQ(h.max(), values.back());
}

TEST(HistogramTest, SummaryAndClear) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  const std::string summary = h.Summary();
  EXPECT_NE(summary.find("n=2"), std::string::npos);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
}

// --- Env ---------------------------------------------------------------------

TEST(EnvTest, FileReadWriteSync) {
  testing::TempDir dir;
  std::unique_ptr<File> file;
  ASSERT_OK(File::Open(dir.file("f"), &file));
  ASSERT_OK(file->Write(0, Slice("hello world")));
  ASSERT_OK(file->Sync());
  char buf[5];
  ASSERT_OK(file->Read(6, 5, buf));
  EXPECT_EQ(std::string(buf, 5), "world");
  auto size = file->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 11u);
}

TEST(EnvTest, ShortReadIsError) {
  testing::TempDir dir;
  std::unique_ptr<File> file;
  ASSERT_OK(File::Open(dir.file("f"), &file));
  ASSERT_OK(file->Write(0, Slice("abc")));
  char buf[10];
  EXPECT_TRUE(file->Read(0, 10, buf).IsIOError());
  size_t n = 0;
  ASSERT_OK(file->ReadAtMost(0, 10, buf, &n));
  EXPECT_EQ(n, 3u);
}

TEST(EnvTest, AppendAndTruncate) {
  testing::TempDir dir;
  std::unique_ptr<File> file;
  ASSERT_OK(File::Open(dir.file("f"), &file));
  ASSERT_OK(file->Append(Slice("aaa")));
  ASSERT_OK(file->Append(Slice("bbb")));
  EXPECT_EQ(file->Size().value(), 6u);
  ASSERT_OK(file->Truncate(2));
  EXPECT_EQ(file->Size().value(), 2u);
}

TEST(EnvTest, OpenReadOnlyMissing) {
  std::unique_ptr<File> file;
  EXPECT_TRUE(File::OpenReadOnly("/tmp/ode_definitely_missing_xyz", &file)
                  .IsNotFound());
}

TEST(EnvTest, FileExistsRemoveRename) {
  testing::TempDir dir;
  const std::string a = dir.file("a"), b = dir.file("b");
  EXPECT_FALSE(env::FileExists(a));
  std::unique_ptr<File> file;
  ASSERT_OK(File::Open(a, &file));
  EXPECT_TRUE(env::FileExists(a));
  ASSERT_OK(env::RenameFile(a, b));
  EXPECT_FALSE(env::FileExists(a));
  EXPECT_TRUE(env::FileExists(b));
  ASSERT_OK(env::RemoveFile(b));
  EXPECT_FALSE(env::FileExists(b));
  ASSERT_OK(env::RemoveFile(b));  // idempotent
}

}  // namespace
}  // namespace ode
