#include "partition/mapper.h"

#include <gtest/gtest.h>

#include "partition/taxonomy.h"
#include "table/datagen.h"

namespace qarm {
namespace {

TEST(MapperTest, PeopleTableFigure3Mapping) {
  // Figure 3: Age partitioned into 4 intervals 20..24, 25..29, 30..34,
  // 35..39; Married mapped to integers; NumCars (values 0,1,2) kept raw.
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const MappedAttribute& age = mapped->attribute(0);
  EXPECT_EQ(age.kind, AttributeKind::kQuantitative);
  EXPECT_TRUE(age.partitioned);
  ASSERT_EQ(age.intervals.size(), 4u);
  // With 5 sorted ages {23,25,29,34,38} equi-depth into 4 intervals:
  // boundaries at distinct values; the exact split groups 23,25 | 29 | 34 |
  // 38 (first partition takes two of five).
  EXPECT_EQ(age.intervals.front().lo, 23);
  EXPECT_EQ(age.intervals.back().hi, 38);

  const MappedAttribute& married = mapped->attribute(1);
  EXPECT_EQ(married.kind, AttributeKind::kCategorical);
  ASSERT_EQ(married.labels.size(), 2u);
  // Sorted labels: No < Yes.
  EXPECT_EQ(married.labels[0], "No");
  EXPECT_EQ(married.labels[1], "Yes");

  const MappedAttribute& cars = mapped->attribute(2);
  EXPECT_FALSE(cars.partitioned);
  ASSERT_EQ(cars.intervals.size(), 3u);  // values 0, 1, 2
  EXPECT_TRUE(cars.intervals[0].IsSingleValue());

  // Row 0: Age 23 -> interval 0, Married No -> 0, NumCars 1 -> 1.
  EXPECT_EQ(mapped->value(0, 0), 0);
  EXPECT_EQ(mapped->value(0, 1), 0);
  EXPECT_EQ(mapped->value(0, 2), 1);
}

TEST(MapperTest, DecodeRoundTrip) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  // Every record's mapped value decodes to an interval containing the raw
  // value.
  for (size_t r = 0; r < people.num_rows(); ++r) {
    for (size_t c = 0; c < people.num_columns(); ++c) {
      const MappedAttribute& attr = mapped->attribute(c);
      int32_t m = mapped->value(r, c);
      if (attr.kind == AttributeKind::kQuantitative) {
        Interval raw = attr.RawInterval(m, m);
        EXPECT_TRUE(raw.Contains(people.column(c).GetNumeric(r)));
      } else {
        EXPECT_EQ(attr.labels[static_cast<size_t>(m)],
                  people.Get(r, c).as_string());
      }
    }
  }
}

TEST(MapperTest, UnpartitionedWhenFewDistinctValues) {
  // NumCars has 3 distinct values; with required intervals = 4 it stays
  // unpartitioned and order-preserving.
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  const MappedAttribute& cars = mapped->attribute(2);
  EXPECT_EQ(cars.intervals[0].lo, 0);
  EXPECT_EQ(cars.intervals[1].lo, 1);
  EXPECT_EQ(cars.intervals[2].lo, 2);
}

TEST(MapperTest, Equation2DrivesIntervalCount) {
  Table data = MakeFinancialDataset(2000, 1);
  MapOptions options;
  options.partial_completeness = 2.0;
  options.minsup = 0.2;
  auto mapped = MapTable(data, options);
  ASSERT_TRUE(mapped.ok());
  // n = 5 quantitative attrs, m = 0.2, K = 2 -> 50 intervals.
  size_t income = 0;  // monthly_income column
  const MappedAttribute& attr = mapped->attribute(income);
  EXPECT_TRUE(attr.partitioned);
  EXPECT_LE(attr.intervals.size(), 50u);
  EXPECT_GE(attr.intervals.size(), 45u);  // duplicates may merge a few
}

TEST(MapperTest, MaxQuantPerRuleReducesIntervals) {
  Table data = MakeFinancialDataset(2000, 1);
  MapOptions options;
  options.partial_completeness = 2.0;
  options.minsup = 0.2;
  options.max_quantitative_per_rule = 2;  // n' = 2 -> 20 intervals
  auto mapped = MapTable(data, options);
  ASSERT_TRUE(mapped.ok());
  EXPECT_LE(mapped->attribute(0).intervals.size(), 20u);
}

TEST(MapperTest, EquiWidthMethod) {
  Table data = MakeFinancialDataset(2000, 1);
  MapOptions options;
  options.num_intervals_override = 10;
  options.method = PartitionMethod::kEquiWidth;
  auto mapped = MapTable(data, options);
  ASSERT_TRUE(mapped.ok());
  const MappedAttribute& attr = mapped->attribute(0);
  ASSERT_EQ(attr.intervals.size(), 10u);
  double w0 = attr.intervals[0].hi - attr.intervals[0].lo;
  double w5 = attr.intervals[5].hi - attr.intervals[5].lo;
  EXPECT_NEAR(w0, w5, 1e-6);
}

TEST(MapperTest, RejectsBadOptions) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.minsup = 0.0;
  EXPECT_FALSE(MapTable(people, options).ok());
  options.minsup = 0.2;
  options.partial_completeness = 1.0;
  options.num_intervals_override = 0;
  EXPECT_FALSE(MapTable(people, options).ok());
}

TEST(MappedTableTest, HeadCopiesPrefix) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  MappedTable head = mapped->Head(2);
  EXPECT_EQ(head.num_rows(), 2u);
  EXPECT_EQ(head.value(1, 0), mapped->value(1, 0));
  EXPECT_EQ(head.num_attributes(), mapped->num_attributes());
}

TEST(MappedTableTest, DecodeRangeFormats) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  const MappedAttribute& age = mapped->attribute(0);
  // A multi-interval range decodes to the union of raw bounds.
  std::string s = age.DecodeRange(0, static_cast<int32_t>(
                                         age.intervals.size() - 1));
  EXPECT_EQ(s, "23..38");
  const MappedAttribute& married = mapped->attribute(1);
  EXPECT_EQ(married.DecodeRange(1, 1), "Yes");
}

// Codes of column `c` for every row of `mapped`.
std::vector<int32_t> Codes(const MappedTable& mapped, size_t c) {
  std::vector<int32_t> out;
  for (size_t r = 0; r < mapped.num_rows(); ++r) {
    out.push_back(mapped.value(r, c));
  }
  return out;
}

Taxonomy DrinksTaxonomy() {
  // drinks -> {hot -> {coffee, tea}, cold -> {soda, juice}}
  return Taxonomy::Make({{"hot", "drinks"},
                         {"cold", "drinks"},
                         {"coffee", "hot"},
                         {"tea", "hot"},
                         {"soda", "cold"},
                         {"juice", "cold"}})
      .value();
}

Schema DrinkSizeSchema() {
  return Schema::Make(
             {{"drink", AttributeKind::kCategorical, ValueType::kString},
              {"size", AttributeKind::kCategorical, ValueType::kString}})
      .value();
}

// A taxonomy column (reachable only through the library, not the CLI)
// takes its labels in DFS leaf order, keeps absent leaves, records the
// interior ranges and maps NULL to kMissingValue; the plain column beside
// it is labelled in byte order.
TEST(MapperTest, TaxonomyColumnPinned) {
  Table table(DrinkSizeSchema());
  table.AppendRowUnchecked({Value("tea"), Value("L")});
  table.AppendRowUnchecked({Value("juice"), Value::Null()});
  table.AppendRowUnchecked({Value::Null(), Value("S")});
  table.AppendRowUnchecked({Value("coffee"), Value("M")});
  table.AppendRowUnchecked({Value("tea"), Value("S")});
  table.AppendRowUnchecked({Value("tea"), Value("L")});
  MapOptions options;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  auto mapped = MapTable(table, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const MappedAttribute& drink = mapped->attribute(0);
  EXPECT_EQ(drink.labels,
            (std::vector<std::string>{"coffee", "tea", "soda", "juice"}));
  ASSERT_EQ(drink.taxonomy_ranges.size(), 3u);
  EXPECT_EQ(drink.taxonomy_ranges[0].name, "drinks");
  EXPECT_EQ(drink.taxonomy_ranges[0].lo, 0);
  EXPECT_EQ(drink.taxonomy_ranges[0].hi, 3);
  EXPECT_EQ(drink.taxonomy_ranges[1].name, "hot");
  EXPECT_EQ(drink.taxonomy_ranges[1].lo, 0);
  EXPECT_EQ(drink.taxonomy_ranges[1].hi, 1);
  EXPECT_EQ(drink.taxonomy_ranges[2].name, "cold");
  EXPECT_EQ(drink.taxonomy_ranges[2].lo, 2);
  EXPECT_EQ(drink.taxonomy_ranges[2].hi, 3);
  EXPECT_EQ(Codes(*mapped, 0), (std::vector<int32_t>{1, 3, -1, 0, 1, 1}));

  const MappedAttribute& size = mapped->attribute(1);
  EXPECT_EQ(size.labels, (std::vector<std::string>{"L", "M", "S"}));
  EXPECT_TRUE(size.taxonomy_ranges.empty());
  EXPECT_EQ(Codes(*mapped, 1), (std::vector<int32_t>{0, -1, 2, 1, 2, 0}));
}

TEST(MapperTest, TaxonomyRejectsInteriorValue) {
  Table table(DrinkSizeSchema());
  table.AppendRowUnchecked({Value("tea"), Value("L")});
  table.AppendRowUnchecked({Value("hot"), Value("L")});
  MapOptions options;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  auto mapped = MapTable(table, options);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().ToString(),
            "InvalidArgument: value 'hot' of attribute 'drink' is not a leaf "
            "of its taxonomy");
}

// Categorical columns of a numeric type are labelled in numeric order.
TEST(MapperTest, NumericCategoricalLabels) {
  Schema schema =
      Schema::Make({{"k", AttributeKind::kCategorical, ValueType::kInt64},
                    {"d", AttributeKind::kCategorical, ValueType::kDouble}})
          .value();
  Table table(schema);
  table.AppendRowUnchecked({Value(int64_t{10}), Value(2.5)});
  table.AppendRowUnchecked({Value(int64_t{-3}), Value(0.25)});
  table.AppendRowUnchecked({Value::Null(), Value(2.5)});
  table.AppendRowUnchecked({Value(int64_t{10}), Value::Null()});
  table.AppendRowUnchecked({Value(int64_t{7}), Value(-1.0)});
  auto mapped = MapTable(table, MapOptions{});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->attribute(0).labels,
            (std::vector<std::string>{"-3", "7", "10"}));
  EXPECT_EQ(Codes(*mapped, 0), (std::vector<int32_t>{2, 0, -1, 2, 1}));
  EXPECT_EQ(mapped->attribute(1).labels,
            (std::vector<std::string>{"-1", "0.25", "2.5"}));
  EXPECT_EQ(Codes(*mapped, 1), (std::vector<int32_t>{2, 1, 2, -1, 0}));

  // The append path looks the cells up by their label text.
  auto again = MapTableWithAttributes(table, mapped->attributes());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Codes(*again, 0), Codes(*mapped, 0));
  EXPECT_EQ(Codes(*again, 1), Codes(*mapped, 1));
}

Schema AgeMarriedCarsSchema() {
  return Schema::Make(
             {{"Age", AttributeKind::kQuantitative, ValueType::kInt64},
              {"Married", AttributeKind::kCategorical, ValueType::kString},
              {"NumCars", AttributeKind::kQuantitative, ValueType::kInt64}})
      .value();
}

// The append path maps new rows under frozen metadata: partitioned values
// clip to the edge intervals, categorical and unpartitioned values must
// already be in the domain, and each miss names the value.
TEST(MapperTest, WithAttributesPinned) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto base = MapTable(people, options);
  ASSERT_TRUE(base.ok());

  Table delta(AgeMarriedCarsSchema());
  delta.AppendRowUnchecked(
      {Value(int64_t{10}), Value("Yes"), Value(int64_t{2})});
  delta.AppendRowUnchecked({Value(int64_t{99}), Value::Null(), Value::Null()});
  delta.AppendRowUnchecked(
      {Value(int64_t{30}), Value("No"), Value(int64_t{0})});
  auto mapped = MapTableWithAttributes(delta, base->attributes());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(Codes(*mapped, 0), (std::vector<int32_t>{0, 3, 2}));
  EXPECT_EQ(Codes(*mapped, 1), (std::vector<int32_t>{1, -1, 0}));
  EXPECT_EQ(Codes(*mapped, 2), (std::vector<int32_t>{2, -1, 0}));

  Table new_label(AgeMarriedCarsSchema());
  new_label.AppendRowUnchecked(
      {Value(int64_t{30}), Value("Maybe"), Value(int64_t{1})});
  auto bad_label = MapTableWithAttributes(new_label, base->attributes());
  ASSERT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().ToString(),
            "InvalidArgument: value 'Maybe' of attribute 'Married' is not in "
            "the existing domain; re-convert the file to admit new "
            "categorical values");

  Table new_value(AgeMarriedCarsSchema());
  new_value.AppendRowUnchecked(
      {Value(int64_t{30}), Value("No"), Value(int64_t{5})});
  auto bad_value = MapTableWithAttributes(new_value, base->attributes());
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().ToString(),
            "InvalidArgument: value 5 of attribute 'NumCars' is not in the "
            "existing domain; re-convert the file to admit new quantitative "
            "values");
}

}  // namespace
}  // namespace qarm
