// Property-based round-trip tests for the compression layer: frequency
// dictionaries (multi-partition and single-partition), minus/FOR encoding,
// and whole-page encode/decode — over seeded-random value distributions
// (uniform, Zipf-skewed, all-distinct) plus the degenerate pages that break
// naive encoders: empty, all-NULL, and single-distinct-value. Every
// generator is seeded through common/rng.h so a failure replays exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitutil.h"
#include "common/rng.h"
#include "compression/for_encoding.h"
#include "compression/frequency_dict.h"
#include "compression/stats.h"
#include "storage/column_page.h"

namespace dashdb {
namespace {

struct IntDataset {
  std::string label;
  std::vector<int64_t> values;
  BitVector nulls;  ///< sized values.size(); empty-size when no nulls
  const BitVector* nulls_ptr() const {
    return nulls.size() == 0 ? nullptr : &nulls;
  }
};

/// Seeded distributions covering the encoder decision space: few distinct
/// values (frequency partitions earn their 1-bit codes), Zipf skew (mixed
/// partition occupancy), dense high-cardinality (FOR territory), negatives
/// (FOR base handling), plus the degenerate shapes.
std::vector<IntDataset> MakeIntDatasets(uint64_t seed) {
  std::vector<IntDataset> out;

  {
    IntDataset d;
    d.label = "uniform_low_card";
    Rng rng(seed);
    for (int i = 0; i < 3000; ++i) {
      d.values.push_back(static_cast<int64_t>(rng.Uniform(12)));
    }
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "zipf_skewed";
    ZipfGenerator zipf(500, 1.2, seed + 1);
    for (int i = 0; i < 4000; ++i) {
      d.values.push_back(static_cast<int64_t>(zipf.Next()) * 17 - 3000);
    }
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "all_distinct_with_nulls";
    Rng rng(seed + 2);
    d.nulls.Resize(2500);
    for (int i = 0; i < 2500; ++i) {
      d.values.push_back(i * 7 - 9000);
      if (rng.Bernoulli(0.1)) d.nulls.Set(i);
    }
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "empty_page";
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "all_null_page";
    d.values.assign(kPageRows, 0);
    d.nulls.Resize(kPageRows);
    d.nulls.SetAll();
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "single_distinct_page";
    d.values.assign(1777, 42);
    out.push_back(std::move(d));
  }
  return out;
}

TEST(CompressionPropertyTest, FrequencyDictRoundTripsEveryDistribution) {
  for (const auto& d : MakeIntDatasets(0xD45BDB01)) {
    SCOPED_TRACE(d.label);
    IntColumnStats stats =
        ComputeIntStats(d.values.data(), d.values.size(), d.nulls_ptr());
    ASSERT_TRUE(stats.ndv_exact);
    IntFrequencyDict dict = IntFrequencyDict::Build(stats.freq_desc);
    EXPECT_EQ(dict.total_values(), stats.ndv);

    // Encode->Decode identity for every non-null value.
    for (size_t i = 0; i < d.values.size(); ++i) {
      if (d.nulls_ptr() && d.nulls.Get(i)) continue;
      auto pc = dict.Encode(d.values[i]);
      ASSERT_TRUE(pc.has_value()) << "value " << d.values[i];
      EXPECT_EQ(dict.Decode(pc->partition, pc->code), d.values[i]);
    }
    // Order preservation within each partition: code order == value order.
    for (int p = 0; p < dict.num_partitions(); ++p) {
      for (size_t c = 1; c < dict.partition_size(p); ++c) {
        EXPECT_LT(dict.Decode(static_cast<uint8_t>(p),
                              static_cast<uint32_t>(c - 1)),
                  dict.Decode(static_cast<uint8_t>(p),
                              static_cast<uint32_t>(c)))
            << "partition " << p << " code " << c;
      }
      // Width schedule honored: partition p never exceeds its capacity.
      EXPECT_LE(dict.partition_size(p),
                size_t{1} << kPartitionWidths[p]);
    }
  }
}

TEST(CompressionPropertyTest, SinglePartitionDictIsGloballyOrderPreserving) {
  for (const auto& d : MakeIntDatasets(0xD45BDB02)) {
    SCOPED_TRACE(d.label);
    IntColumnStats stats =
        ComputeIntStats(d.values.data(), d.values.size(), d.nulls_ptr());
    IntFrequencyDict dict =
        IntFrequencyDict::BuildSinglePartition(stats.freq_desc);
    ASSERT_TRUE(dict.is_single_partition());
    int64_t prev = 0;
    bool first = true;
    for (uint32_t c = 0; c < dict.partition_size(0); ++c) {
      int64_t v = dict.Decode(0, c);
      if (!first) {
        EXPECT_LT(prev, v) << "codes must sort like values";
      }
      auto pc = dict.Encode(v);
      ASSERT_TRUE(pc.has_value());
      EXPECT_EQ(pc->code, c);
      prev = v;
      first = false;
    }
    if (dict.partition_size(0) > 0) {
      EXPECT_EQ(dict.single_width(),
                BitWidthFor(dict.partition_size(0) - 1));
    }
  }
}

TEST(CompressionPropertyTest, ForEncodingRoundTrips) {
  for (const auto& d : MakeIntDatasets(0xD45BDB03)) {
    SCOPED_TRACE(d.label);
    if (d.values.empty()) continue;  // ForEncode is per-page, pages nonempty
    ForEncoded e =
        ForEncode(d.values.data(), d.values.size(), d.nulls_ptr());
    ASSERT_EQ(e.size(), d.values.size());
    for (size_t i = 0; i < d.values.size(); ++i) {
      if (d.nulls_ptr() && d.nulls.Get(i)) continue;  // code 0, mask on decode
      EXPECT_EQ(e.Get(i), d.values[i]) << "row " << i;
    }
    // The code domain translation agrees with the value domain on a seeded
    // sample of range predicates.
    Rng rng(0xD45BDB04);
    for (int trial = 0; trial < 20; ++trial) {
      int64_t lo = d.values[rng.Uniform(d.values.size())];
      int64_t hi = d.values[rng.Uniform(d.values.size())];
      if (lo > hi) std::swap(lo, hi);
      auto cr = ForRangeFor(e, &lo, true, &hi, true);
      for (size_t i = 0; i < d.values.size(); ++i) {
        if (d.nulls_ptr() && d.nulls.Get(i)) continue;
        bool in_value_domain = d.values[i] >= lo && d.values[i] <= hi;
        bool in_code_domain =
            cr.has_value() && e.codes.Get(i) >= cr->lo &&
            e.codes.Get(i) <= cr->hi;
        EXPECT_EQ(in_code_domain, in_value_domain)
            << "row " << i << " pred [" << lo << "," << hi << "]";
      }
    }
  }
}

TEST(CompressionPropertyTest, IntPageRoundTripsFrequencyAndForEncodings) {
  for (const auto& d : MakeIntDatasets(0xD45BDB05)) {
    SCOPED_TRACE(d.label);
    IntColumnStats stats =
        ComputeIntStats(d.values.data(), d.values.size(), d.nulls_ptr());
    IntFrequencyDict dict = IntFrequencyDict::Build(stats.freq_desc);
    for (bool use_dict : {true, false}) {
      SCOPED_TRACE(use_dict ? "frequency" : "for");
      auto page = BuildIntPage(d.values.data(), d.values.size(),
                               d.nulls_ptr(), 0, use_dict ? &dict : nullptr);
      ASSERT_NE(page, nullptr);
      ASSERT_EQ(page->num_rows, d.values.size());
      ColumnVector out(TypeId::kInt64);
      DecodeIntPage(*page, use_dict ? &dict : nullptr, nullptr, &out);
      ASSERT_EQ(out.size(), d.values.size());
      for (size_t i = 0; i < d.values.size(); ++i) {
        bool want_null = d.nulls_ptr() && d.nulls.Get(i);
        ASSERT_EQ(out.IsNull(i), want_null) << "row " << i;
        if (!want_null) {
          EXPECT_EQ(out.GetInt(i), d.values[i]) << "row " << i;
        }
      }
    }
  }
}

TEST(CompressionPropertyTest, StringDictAndPageRoundTrip) {
  Rng rng(0xD45BDB06);
  std::vector<std::string> values;
  BitVector nulls(3000);
  for (int i = 0; i < 3000; ++i) {
    // Shared prefixes stress the front-coded dictionary payload.
    values.push_back("key_" + std::to_string(rng.Uniform(40)) + "_" +
                     std::to_string(rng.Uniform(5)));
    if (rng.Bernoulli(0.05)) nulls.Set(i);
  }
  StringColumnStats stats =
      ComputeStringStats(values.data(), values.size(), &nulls);
  ASSERT_TRUE(stats.ndv_exact);
  StringFrequencyDict dict = StringFrequencyDict::Build(stats.freq_desc);
  for (size_t i = 0; i < values.size(); ++i) {
    if (nulls.Get(i)) continue;
    auto pc = dict.Encode(values[i]);
    ASSERT_TRUE(pc.has_value());
    EXPECT_EQ(dict.Decode(pc->partition, pc->code), values[i]);
  }
  auto page = BuildStringPage(values.data(), values.size(), &nulls, 0, &dict);
  ASSERT_NE(page, nullptr);
  ColumnVector out(TypeId::kVarchar);
  DecodeStringPage(*page, &dict, nullptr, &out);
  ASSERT_EQ(out.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(out.IsNull(i), static_cast<bool>(nulls.Get(i))) << "row " << i;
    if (!nulls.Get(i)) {
      EXPECT_EQ(out.GetString(i), values[i]) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace dashdb
