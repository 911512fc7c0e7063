#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "trace/preprocess.hpp"

namespace icgmm::trace {
namespace {

Trace make_trace(std::initializer_list<PhysAddr> addrs) {
  Trace t("test");
  std::uint64_t i = 0;
  for (PhysAddr a : addrs) t.push_back({a, i++, AccessType::kRead});
  return t;
}

TEST(Record, PageComputation) {
  // DESIGN.md: the paper's "PI = PA << 12" is a typo; a 4 KB page index is
  // the address right-shifted by 12.
  Record r{.addr = 0x12345678, .time = 0, .type = AccessType::kRead};
  EXPECT_EQ(r.page(), 0x12345678ull >> 12);
  EXPECT_EQ(page_of(4096), 1u);
  EXPECT_EQ(page_of(4095), 0u);
  EXPECT_EQ(addr_of(3), 3u * 4096);
}

TEST(TraceContainer, BasicAccessors) {
  const Trace t = make_trace({0, 4096, 8192});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t[1].addr, 4096u);
  EXPECT_EQ(t.name(), "test");
}

TEST(TraceContainer, UniquePagesAndFootprint) {
  // Two addresses in page 0, one in page 1.
  const Trace t = make_trace({0, 64, 4096});
  EXPECT_EQ(t.unique_pages(), 2u);
  EXPECT_EQ(t.footprint_bytes(), 2u * 4096);
}

TEST(TraceContainer, WriteFraction) {
  Trace t("w");
  t.push_back({0, 0, AccessType::kWrite});
  t.push_back({0, 1, AccessType::kRead});
  t.push_back({0, 2, AccessType::kRead});
  t.push_back({0, 3, AccessType::kWrite});
  EXPECT_DOUBLE_EQ(t.write_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(Trace("e").write_fraction(), 0.0);
}

TEST(TraceContainer, MaxAddr) {
  const Trace t = make_trace({5, 99, 7});
  EXPECT_EQ(t.max_addr(), 99u);
  EXPECT_EQ(Trace("e").max_addr(), 0u);
}

TEST(TraceContainer, SliceBounds) {
  const Trace t = make_trace({0, 1, 2, 3, 4});
  const Trace mid = t.slice(1, 3);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0].addr, 1u);
  EXPECT_EQ(mid[2].addr, 3u);
  EXPECT_EQ(t.slice(10, 5).size(), 0u);   // past the end
  EXPECT_EQ(t.slice(3, 100).size(), 2u);  // clamped count
}

TEST(TrimWarmup, PaperFractions) {
  Trace t("t");
  for (std::uint64_t i = 0; i < 100; ++i) t.push_back({i * 4096, i, AccessType::kRead});
  const Trace trimmed = trim_warmup(t);  // 20% head, 10% tail
  ASSERT_EQ(trimmed.size(), 70u);
  EXPECT_EQ(trimmed[0].page(), 20u);
  EXPECT_EQ(trimmed[69].page(), 89u);
}

TEST(TrimWarmup, EmptyAndDegenerate) {
  EXPECT_EQ(trim_warmup(Trace("e")).size(), 0u);
  // Over-aggressive fractions still keep one record.
  Trace t = make_trace({0, 4096});
  const Trace trimmed = trim_warmup(t, {.head_fraction = 0.9, .tail_fraction = 0.9});
  EXPECT_EQ(trimmed.size(), 1u);
}

TEST(StrideSubsample, PreservesOrderAndCoverage) {
  std::vector<GmmSample> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back({static_cast<double>(i), 0.0});
  const auto sub = stride_subsample(samples, 100);
  ASSERT_EQ(sub.size(), 100u);
  EXPECT_DOUBLE_EQ(sub.front().page, 0.0);
  EXPECT_GT(sub.back().page, 980.0);  // reaches the tail
  for (std::size_t i = 1; i < sub.size(); ++i) {
    EXPECT_LT(sub[i - 1].page, sub[i].page);
  }
}

TEST(StrideSubsample, OneWalkMatchesSubsamplingEverySample) {
  Trace t("stride");
  for (std::uint64_t i = 0; i < 1237; ++i) {
    t.push_back({(i * 7919 % 613) * 4096, i, AccessType::kRead});
  }
  const TransformConfig cfg{.len_window = 4, .len_access_shot = 50};
  for (const std::size_t max_count :
       {std::size_t{0}, std::size_t{1}, std::size_t{100}, std::size_t{618},
        std::size_t{1236}, std::size_t{1237}, std::size_t{5000}}) {
    EXPECT_EQ(subsampled_gmm_samples(t.records(), cfg, max_count),
              stride_subsample(to_gmm_samples(t, cfg), max_count))
        << max_count;
  }
}

TEST(StrideSubsample, NoOpWhenSmall) {
  std::vector<GmmSample> samples = {{1, 2}, {3, 4}};
  EXPECT_EQ(stride_subsample(samples, 10).size(), 2u);
  EXPECT_EQ(stride_subsample(samples, 0).size(), 2u);
}

}  // namespace
}  // namespace icgmm::trace
