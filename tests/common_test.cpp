// Unit tests for src/common: Status/Result, time types, RNG, histogram,
// blobs, strings.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/breaker.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "common/context.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"
#include "common/units.h"

namespace wiera {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = not_found("key k1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key k1");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: key k1");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  for (const Status& s :
       {not_found("x"), already_exists("x"), invalid_argument("x"),
        failed_precondition("x"), out_of_range("x"), resource_exhausted("x"),
        unavailable("x"), deadline_exceeded("x"), aborted("x"),
        unimplemented("x"), internal_error("x")}) {
    EXPECT_FALSE(s.ok());
    codes.insert(s.code());
  }
  EXPECT_EQ(codes.size(), 11u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = unavailable("node down");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// ---------------------------------------------------------------- Time

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ((msec(5) + msec(7)).us(), 12000);
  EXPECT_EQ((sec(1) - msec(250)).ms(), 750.0);
  EXPECT_EQ((msec(10) * 2.5).us(), 25000);
  EXPECT_LT(msec(1), msec(2));
  EXPECT_EQ(hoursd(120).hours(), 120.0);
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t0 = TimePoint::origin();
  TimePoint t1 = t0 + sec(3);
  EXPECT_EQ((t1 - t0).seconds(), 3.0);
  EXPECT_EQ((t1 - msec(500)).us(), 2500000);
  EXPECT_GT(t1, t0);
}

TEST(TimeTest, ToStringPicksSensibleUnit) {
  EXPECT_EQ(usec(500).to_string(), "500us");
  EXPECT_EQ(msec(12.5).to_string(), "12.5ms");
  EXPECT_EQ(sec(3).to_string(), "3s");
}

// ---------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 100000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.gaussian(10.0, 2.0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.fork();
  // Child stream should not track the parent's subsequent outputs.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean().us(), 0);
  EXPECT_EQ(h.percentile(0.5).us(), 0);
}

TEST(HistogramTest, SingleValue) {
  LatencyHistogram h;
  h.record(msec(10));
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.mean().us(), 10000);
  EXPECT_EQ(h.min().us(), 10000);
  EXPECT_EQ(h.max().us(), 10000);
  EXPECT_EQ(h.p99().us(), 10000);  // clamped to max
}

TEST(HistogramTest, PercentileApproximation) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(usec(i * 100));  // 0.1ms..100ms
  // p50 ~ 50ms; log-bucket approximation error must stay within ~12%.
  EXPECT_NEAR(h.p50().us(), 50000, 6000);
  EXPECT_NEAR(h.p95().us(), 95000, 12000);
  EXPECT_EQ(h.max().us(), 100000);
}

TEST(HistogramTest, MergeCombinesCounts) {
  LatencyHistogram a, b;
  a.record(msec(1));
  a.record(msec(2));
  b.record(msec(100));
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.max().us(), 100000);
  EXPECT_EQ(a.min().us(), 1000);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.record(msec(5));
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max().us(), 0);
}

TEST(HistogramTest, PercentileEdgeCasesEmpty) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.0).us(), 0);
  EXPECT_EQ(h.percentile(1.0).us(), 0);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_EQ(h.percentile(-1.0).us(), 0);
  EXPECT_EQ(h.percentile(2.0).us(), 0);
}

TEST(HistogramTest, PercentileEdgeCasesSingleSample) {
  LatencyHistogram h;
  h.record(msec(50));
  // With one sample every percentile is that sample — including p0, which
  // must not report bucket 0's 1µs upper bound.
  EXPECT_EQ(h.percentile(0.0).us(), 50000);
  EXPECT_EQ(h.percentile(0.5).us(), 50000);
  EXPECT_EQ(h.percentile(1.0).us(), 50000);
}

TEST(HistogramTest, PercentileBoundedByMinAndMax) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(msec(10 + i));  // 11ms..110ms
  EXPECT_GE(h.percentile(0.0).us(), h.min().us());
  EXPECT_EQ(h.percentile(1.0).us(), h.max().us());
  EXPECT_LE(h.p50().us(), h.max().us());
  EXPECT_GE(h.p50().us(), h.min().us());
}

// ---------------------------------------------------------------- Context

TEST(ContextTest, DefaultHasNoDeadlineAndNeverCancels) {
  Context ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired(TimePoint(1) + sec(1000000)));
  EXPECT_EQ(ctx.remaining(TimePoint(0)), Duration::max());
  ctx.cancel();  // no-op without a cancel state
  EXPECT_FALSE(ctx.cancelled());
}

TEST(ContextTest, DeadlineExpiryAndRemaining) {
  Context ctx = Context::with_deadline(TimePoint(0) + msec(100));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired(TimePoint(0) + msec(99)));
  EXPECT_TRUE(ctx.expired(TimePoint(0) + msec(100)));
  EXPECT_EQ(ctx.remaining(TimePoint(0) + msec(40)), msec(60));
  EXPECT_EQ(ctx.remaining(TimePoint(0) + msec(150)), Duration::zero());
}

TEST(ContextTest, CancellationIsSharedAcrossCopies) {
  Context ctx = Context::with_deadline(TimePoint(0) + sec(1));
  Context copy = ctx;
  copy.cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_TRUE(copy.cancelled());
}

// ------------------------------------------------------------ RetryBudget

TEST(RetryBudgetTest, DrainsToDenialAndRefillsOverTime) {
  RetryBudget b(/*tokens_per_sec=*/1.0, /*capacity=*/3.0);
  TimePoint t(0);
  EXPECT_TRUE(b.try_spend(t));
  EXPECT_TRUE(b.try_spend(t));
  EXPECT_TRUE(b.try_spend(t));
  EXPECT_FALSE(b.try_spend(t));  // bucket dry
  EXPECT_EQ(b.denied(), 1);
  // One token refills after one second.
  EXPECT_TRUE(b.try_spend(t + sec(1)));
  EXPECT_FALSE(b.try_spend(t + sec(1)));
  EXPECT_EQ(b.denied(), 2);
}

TEST(RetryBudgetTest, RefillCapsAtCapacity) {
  RetryBudget b(/*tokens_per_sec=*/10.0, /*capacity=*/2.0);
  TimePoint t(0);
  // A long idle stretch must not bank more than `capacity` tokens.
  EXPECT_TRUE(b.try_spend(t + sec(100)));
  EXPECT_TRUE(b.try_spend(t + sec(100)));
  EXPECT_FALSE(b.try_spend(t + sec(100)));
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker brk(CircuitBreaker::Options{.failure_threshold = 3,
                                             .open_for = sec(1)});
  TimePoint t(0);
  EXPECT_TRUE(brk.allow(t));
  brk.record_failure(t);
  brk.record_failure(t);
  EXPECT_EQ(brk.state(), CircuitBreaker::State::kClosed);
  brk.record_failure(t);
  EXPECT_EQ(brk.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(brk.allow(t + msec(500)));  // still open
  EXPECT_EQ(brk.opens(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  CircuitBreaker brk(CircuitBreaker::Options{.failure_threshold = 2,
                                             .open_for = sec(1)});
  TimePoint t(0);
  brk.record_failure(t);
  brk.record_success();
  brk.record_failure(t);
  EXPECT_EQ(brk.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsOneProbe) {
  CircuitBreaker brk(CircuitBreaker::Options{.failure_threshold = 1,
                                             .open_for = sec(1)});
  TimePoint t(0);
  brk.record_failure(t);
  ASSERT_EQ(brk.state(), CircuitBreaker::State::kOpen);
  // After open_for, exactly one probe goes through.
  EXPECT_TRUE(brk.allow(t + sec(1)));
  EXPECT_EQ(brk.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(brk.allow(t + sec(1)));  // second caller keeps failing fast
  brk.record_success();
  EXPECT_EQ(brk.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(brk.allow(t + sec(1)));
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  CircuitBreaker brk(CircuitBreaker::Options{.failure_threshold = 1,
                                             .open_for = sec(1)});
  TimePoint t(0);
  brk.record_failure(t);
  EXPECT_TRUE(brk.allow(t + sec(1)));  // probe
  brk.record_failure(t + sec(1));
  EXPECT_EQ(brk.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(brk.allow(t + sec(1) + msec(500)));
  // The re-open restarts the open_for clock from the probe failure.
  EXPECT_TRUE(brk.allow(t + sec(2)));
  EXPECT_EQ(brk.opens(), 2);
}

TEST(CircuitBreakerTest, TransitionHookSeesEveryStateChange) {
  CircuitBreaker brk(CircuitBreaker::Options{.failure_threshold = 1,
                                             .open_for = sec(1)});
  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>> seen;
  brk.set_transition_hook([&](CircuitBreaker::State from,
                              CircuitBreaker::State to) {
    seen.emplace_back(from, to);
  });
  TimePoint t(0);
  brk.record_failure(t);            // closed -> open
  EXPECT_TRUE(brk.allow(t + sec(1)));  // open -> half-open
  brk.record_success();             // half-open -> closed
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].second, CircuitBreaker::State::kOpen);
  EXPECT_EQ(seen[1].second, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(seen[2].second, CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------- Bytes

TEST(BlobTest, EmptyBlob) {
  Blob b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b, Blob());
}

TEST(BlobTest, FromString) {
  Blob b("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.to_string(), "hello");
}

TEST(BlobTest, ZerosHasRequestedSize) {
  Blob b = Blob::zeros(4096);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(b.data()[0], 0);
  EXPECT_EQ(b.data()[4095], 0);
}

TEST(BlobTest, EqualityByContent) {
  EXPECT_EQ(Blob("abc"), Blob("abc"));
  EXPECT_FALSE(Blob("abc") == Blob("abd"));
  EXPECT_FALSE(Blob("abc") == Blob("ab"));
}

TEST(BlobTest, CopyShares) {
  Blob a("payload");
  Blob b = a;  // shares the buffer
  EXPECT_EQ(a.data(), b.data());
}

TEST(BytesTest, Fnv1aStable) {
  // The published FNV-1a 64 parameters and test vectors.
  EXPECT_EQ(kFnv1aBasis, 0xCBF29CE484222325ull);
  EXPECT_EQ(kFnv1aPrime, 0x100000001B3ull);
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ull);
  EXPECT_NE(fnv1a64("abc"), fnv1a64("acb"));
  // Continuing a hash equals hashing the concatenation.
  EXPECT_EQ(fnv1a64(fnv1a64("foo"), "bar", 3), fnv1a64("foobar"));
  // The u64 fold hashes the eight bytes least significant first.
  EXPECT_EQ(fnv1a64_u64(kFnv1aBasis, 0x6162636465666768ull),
            0xA588FA95F595C3D5ull);
  EXPECT_EQ(fnv1a64_u64(kFnv1aBasis, 0x6162636465666768ull),
            fnv1a64("hgfedcba"));
  // Object checksums are XXH64 of the payload, seeded with FNV-1a over the
  // key, 0xFF and the version's eight bytes: the value every stored and
  // replicated copy carries.
  EXPECT_EQ(object_checksum("k", 1, std::string_view("v")),
            0x6A541396C33576AEull);
}

TEST(ChecksumTest, Xxh64PublishedVectors) {
  // Seed 0. Lengths 0, 1, 3 and 6 take the byte and 4-byte tails; 39 and
  // 43 take one 32-byte stripe, and 43 an 8-byte word after it.
  auto xxh = [](std::string_view s) { return xxh64(s.data(), s.size(), 0); };
  EXPECT_EQ(xxh(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(xxh("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(xxh("xxhash"), 0x32DD38952C4BC720ull);
  EXPECT_EQ(xxh("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
  EXPECT_EQ(xxh("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCull);
}

TEST(ChecksumTest, EveryFlippedBitOfALargePayloadChangesTheChecksum) {
  std::string payload(64 * KiB, '\0');
  Rng rng(7);
  for (char& c : payload) c = static_cast<char>(rng.next_u64());
  const uint64_t clean = object_checksum("key", 3, payload);
  auto flipped_sum = [&](size_t bit) {
    char& byte = payload[bit / 8];
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    const uint64_t sum = object_checksum("key", 3, payload);
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    return sum;
  };
  const size_t bits = payload.size() * 8;
  // Every bit of the first and last 64 bytes, one bit of each 8-byte word
  // between them (a different bit of the word each time).
  for (size_t bit = 0; bit < 64 * 8; ++bit) {
    const size_t mirror = bits - 1 - bit;
    EXPECT_NE(flipped_sum(bit), clean) << "bit " << bit;
    EXPECT_NE(flipped_sum(mirror), clean) << "bit " << mirror;
  }
  for (size_t word = 8; word < payload.size() / 8 - 8; ++word) {
    const size_t bit = word * 64 + word % 64;
    EXPECT_NE(flipped_sum(bit), clean) << "bit " << bit;
  }
  EXPECT_EQ(object_checksum("key", 3, payload), clean);
}

TEST(ChecksumTest, BlobAtAnOddOffsetHashesLikeItsCopy) {
  // Decoded payloads alias message bodies at any offset: the word loads
  // must not assume alignment (the sanitizer build runs this).
  auto storage = std::make_shared<Bytes>(4096 + 3);
  Rng rng(11);
  for (uint8_t& b : *storage) b = static_cast<uint8_t>(rng.next_u64());
  const std::shared_ptr<const Bytes> shared = storage;
  for (size_t offset : {1, 3}) {
    for (size_t len : {0, 1, 3, 4, 7, 8, 31, 32, 33, 63, 100, 4096}) {
      const Blob aliased{Buffer(shared, offset, len)};
      const Blob copy{Bytes(aliased.data(), aliased.data() + len)};
      EXPECT_EQ(object_checksum("k", 9, aliased), object_checksum("k", 9, copy))
          << "offset " << offset << " len " << len;
    }
  }
}

// ---------------------------------------------------------------- Units

TEST(UnitsTest, SizesAndConversions) {
  EXPECT_EQ(KiB, 1024);
  EXPECT_EQ(GiB, 1073741824LL);
  EXPECT_EQ(bytes_to_gb(GB), 1.0);
  EXPECT_NEAR(bytes_to_gb(10 * TiB), 10995.1, 0.1);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringsTest, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("memcached", "mem"));
  EXPECT_FALSE(starts_with("mem", "memcached"));
  EXPECT_EQ(to_lower("EBS-SSD"), "ebs-ssd");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(str_format("%.2f", 3.14159), "3.14");
}

}  // namespace
}  // namespace wiera
