#include "partition/mapper.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"
#include "partition/partial_completeness.h"
#include "partition/partitioner.h"

namespace qarm {

std::string MappedAttribute::DecodeRange(int32_t lo, int32_t hi) const {
  if (kind == AttributeKind::kCategorical) {
    QARM_CHECK_GE(lo, 0);
    QARM_CHECK_LE(lo, hi);
    QARM_CHECK_LT(static_cast<size_t>(hi), labels.size());
    if (lo == hi) return labels[static_cast<size_t>(lo)];
    // A range over a taxonomy attribute: prefer the interior node's name.
    for (const Taxonomy::NodeRange& node : taxonomy_ranges) {
      if (node.lo == lo && node.hi == hi) return node.name;
    }
    // Not a named node (e.g. a box difference): list the leaves.
    std::string out = labels[static_cast<size_t>(lo)];
    for (int32_t v = lo + 1; v <= hi; ++v) {
      out += "|";
      out += labels[static_cast<size_t>(v)];
    }
    return out;
  }
  return RawInterval(lo, hi).ToString();
}

MappedTable::MappedTable(std::vector<MappedAttribute> attributes,
                         size_t num_rows)
    : attributes_(std::move(attributes)),
      num_rows_(num_rows),
      num_quantitative_(0),
      data_(num_rows * attributes_.size(), 0) {
  for (const MappedAttribute& attr : attributes_) {
    if (attr.kind == AttributeKind::kQuantitative) ++num_quantitative_;
  }
}

MappedTable MappedTable::Head(size_t n) const {
  size_t rows = std::min(n, num_rows_);
  MappedTable out(attributes_, rows);
  std::copy(data_.begin(),
            data_.begin() + static_cast<ptrdiff_t>(rows * attributes_.size()),
            out.data_.begin());
  return out;
}

namespace {

// EncodeColumn result when every cell was in the domain.
constexpr size_t kAllEncoded = static_cast<size_t>(-1);

// A non-null cell as label text: the string itself, or the number as
// Value::ToString renders it.
std::string CellLabel(const Column& column, size_t row) {
  return column.type() == ValueType::kString ? column.GetString(row)
                                             : column.Get(row).ToString();
}

// Writes column `c` of `out`: kMissingValue for NULL cells, `code(row)`
// for the others. Returns the first row `code` finds outside the domain
// (a negative code), or kAllEncoded.
template <typename CodeFn>
size_t EncodeColumn(const Column& column, size_t c, MappedTable* out,
                    CodeFn code) {
  for (size_t r = 0; r < column.size(); ++r) {
    if (column.IsNull(r)) {
      out->set_value(r, c, kMissingValue);
      continue;
    }
    const int32_t id = code(r);
    if (id < 0) return r;
    out->set_value(r, c, id);
  }
  return kAllEncoded;
}

// Codes column `c` by each cell's label in `labels` (the first of equal
// labels wins).
size_t EncodeByLabel(const Column& column,
                     const std::vector<std::string>& labels, size_t c,
                     MappedTable* out) {
  std::unordered_map<std::string_view, int32_t> ids;
  ids.reserve(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    ids.emplace(labels[i], static_cast<int32_t>(i));
  }
  std::string number;
  return EncodeColumn(column, c, out, [&](size_t r) {
    std::string_view label;
    if (column.type() == ValueType::kString) {
      label = column.GetString(r);
    } else {
      number = CellLabel(column, r);
      label = number;
    }
    const auto it = ids.find(label);
    return it == ids.end() ? -1 : it->second;
  });
}

// Codes column `c` by the single-value interval (sorted by value) equal to
// each cell.
size_t EncodeByValue(const Column& column,
                     const std::vector<Interval>& intervals, size_t c,
                     MappedTable* out) {
  return EncodeColumn(column, c, out, [&](size_t r) {
    const double v = column.GetNumeric(r);
    const auto it = std::lower_bound(
        intervals.begin(), intervals.end(), v,
        [](const Interval& interval, double value) {
          return interval.lo < value;
        });
    if (it == intervals.end() || it->lo != v) return -1;
    return static_cast<int32_t>(it - intervals.begin());
  });
}

// Codes column `c` by the interval each cell falls in (AssignToInterval:
// values outside every interval clip to the nearest following or the last
// one); every cell is outside an empty interval list.
size_t EncodeByInterval(const Column& column,
                        const std::vector<Interval>& intervals, size_t c,
                        MappedTable* out) {
  return EncodeColumn(column, c, out, [&](size_t r) {
    return static_cast<int32_t>(
        AssignToInterval(intervals, column.GetNumeric(r)));
  });
}

// A string categorical column: the labels are the distinct strings in byte
// order. Each cell is hashed once and coded by first appearance, then the
// codes are rewritten to the labels' ranks.
void MapStringCategorical(const Column& column, size_t c, MappedTable* out) {
  std::unordered_map<std::string_view, int32_t> first_seen;
  std::vector<std::string_view> distinct;
  EncodeColumn(column, c, out, [&](size_t r) {
    const auto [it, inserted] = first_seen.try_emplace(
        column.GetString(r), static_cast<int32_t>(distinct.size()));
    if (inserted) distinct.push_back(it->first);
    return it->second;
  });
  std::vector<int32_t> order(distinct.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return distinct[static_cast<size_t>(a)] < distinct[static_cast<size_t>(b)];
  });
  std::vector<int32_t> rank(distinct.size());
  MappedAttribute& attr = out->mutable_attribute(c);
  for (size_t i = 0; i < order.size(); ++i) {
    rank[static_cast<size_t>(order[i])] = static_cast<int32_t>(i);
    attr.labels.emplace_back(distinct[static_cast<size_t>(order[i])]);
  }
  for (size_t r = 0; r < column.size(); ++r) {
    if (column.IsNull(r)) continue;
    out->set_value(r, c, rank[static_cast<size_t>(out->value(r, c))]);
  }
}

// A numeric categorical column: the labels are the distinct values in
// ascending order, rendered as Value::ToString does (of equal doubles,
// -0.0 and 0.0, the first in row order names the label).
template <typename T>
void MapNumericCategorical(const Column& column, T (Column::*get)(size_t)
                                                     const,
                           size_t c, MappedTable* out) {
  std::map<T, int32_t> ids;
  for (size_t r = 0; r < column.size(); ++r) {
    if (!column.IsNull(r)) ids.emplace((column.*get)(r), 0);
  }
  MappedAttribute& attr = out->mutable_attribute(c);
  int32_t next = 0;
  for (auto& [value, id] : ids) {
    id = next++;
    attr.labels.push_back(Value(value).ToString());
  }
  EncodeColumn(column, c, out,
               [&](size_t r) { return ids.at((column.*get)(r)); });
}

// Maps one categorical column. With a taxonomy, ids follow the taxonomy's
// DFS leaf order instead of value order (so interior nodes cover
// contiguous id ranges) and every value in the data must be a leaf.
Status MapCategorical(const Column& column, size_t c, const Taxonomy* taxonomy,
                      MappedTable* out) {
  if (taxonomy != nullptr) {
    // Every taxonomy leaf gets an id (absent leaves keep zero support);
    // this keeps interior node ranges exact.
    MappedAttribute& attr = out->mutable_attribute(c);
    attr.labels = taxonomy->leaves_dfs();
    attr.taxonomy_ranges = taxonomy->interior_ranges();
    const size_t miss = EncodeByLabel(column, attr.labels, c, out);
    if (miss != kAllEncoded) {
      return Status::InvalidArgument("value '" + CellLabel(column, miss) +
                                     "' of attribute '" + attr.name +
                                     "' is not a leaf of its taxonomy");
    }
    return Status::OK();
  }
  switch (column.type()) {
    case ValueType::kString:
      MapStringCategorical(column, c, out);
      break;
    case ValueType::kInt64:
      MapNumericCategorical<int64_t>(column, &Column::GetInt64, c, out);
      break;
    case ValueType::kDouble:
      MapNumericCategorical<double>(column, &Column::GetDouble, c, out);
      break;
  }
  return Status::OK();
}

// Maps one quantitative column, partitioning per the options. The column
// is sorted once; the sorted cells give the distinct count, the
// unpartitioned domain and the partitioner's input.
void MapQuantitative(const Column& column, size_t c, size_t required_intervals,
                     PartitionMethod method, MappedTable* out) {
  std::vector<double> sorted;  // non-null cells only
  sorted.reserve(column.size());
  for (size_t r = 0; r < column.size(); ++r) {
    if (!column.IsNull(r)) sorted.push_back(column.GetNumeric(r));
  }
  std::sort(sorted.begin(), sorted.end());
  size_t num_distinct = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) ++num_distinct;
  }

  MappedAttribute& attr = out->mutable_attribute(c);
  if (num_distinct <= required_intervals || num_distinct <= 1) {
    // Few values: no partitioning; each distinct value is its own integer
    // (order preserved), per Section 2.1.
    attr.partitioned = false;
    attr.intervals.reserve(num_distinct);
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i == 0 || sorted[i] != sorted[i - 1]) {
        attr.intervals.push_back(Interval{sorted[i], sorted[i]});
      }
    }
    QARM_CHECK_EQ(EncodeByValue(column, attr.intervals, c, out), kAllEncoded);
    return;
  }

  attr.partitioned = true;
  switch (method) {
    case PartitionMethod::kEquiDepth:
      attr.intervals = EquiDepthPartition(sorted, required_intervals);
      break;
    case PartitionMethod::kEquiWidth:
      // The upper end is the first of the largest equal values.
      attr.intervals = EquiWidthPartition(
          sorted.front(),
          *std::lower_bound(sorted.begin(), sorted.end(), sorted.back()),
          required_intervals);
      break;
    case PartitionMethod::kKMeans:
      attr.intervals = KMeansPartition(sorted, required_intervals);
      break;
  }
  QARM_CHECK_EQ(EncodeByInterval(column, attr.intervals, c, out),
                kAllEncoded);
}

}  // namespace

Result<MappedTable> MapTable(const Table& table, const MapOptions& options) {
  // Finiteness first: NaN compares false against every bound below, so it
  // would otherwise slip through and reach the Equation 2 arithmetic.
  if (!std::isfinite(options.minsup) || options.minsup <= 0.0 ||
      options.minsup > 1.0) {
    return Status::InvalidArgument(
        StrFormat("minsup must be in (0,1], got %g", options.minsup));
  }
  if (!std::isfinite(options.partial_completeness) ||
      (options.num_intervals_override == 0 &&
       options.partial_completeness <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "partial completeness level must be > 1, got %g",
        options.partial_completeness));
  }

  const Schema& schema = table.schema();
  for (const auto& [name, taxonomy] : options.taxonomies) {
    (void)taxonomy;
    QARM_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(name));
    if (schema.attribute(index).kind != AttributeKind::kCategorical) {
      return Status::InvalidArgument("taxonomy on non-categorical attribute '" +
                                     name + "'");
    }
  }
  size_t n_quant = options.max_quantitative_per_rule > 0
                       ? options.max_quantitative_per_rule
                       : schema.num_quantitative();
  size_t required_intervals =
      options.num_intervals_override > 0
          ? options.num_intervals_override
          : IntervalsForPartialCompleteness(options.partial_completeness,
                                            n_quant, options.minsup);

  // Each column writes its codes and fills in its domain in place.
  std::vector<MappedAttribute> attrs(schema.num_attributes());
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    attrs[c].name = schema.attribute(c).name;
    attrs[c].kind = schema.attribute(c).kind;
    attrs[c].source_type = schema.attribute(c).type;
  }
  MappedTable out(std::move(attrs), table.num_rows());
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (schema.attribute(c).kind == AttributeKind::kCategorical) {
      const Taxonomy* taxonomy = nullptr;
      for (const auto& [name, tax] : options.taxonomies) {
        if (name == schema.attribute(c).name) {
          taxonomy = &tax;
          break;
        }
      }
      QARM_RETURN_NOT_OK(MapCategorical(table.column(c), c, taxonomy, &out));
    } else {
      MapQuantitative(table.column(c), c, required_intervals, options.method,
                      &out);
    }
  }
  return out;
}

Result<MappedTable> MapTableWithAttributes(
    const Table& table, const std::vector<MappedAttribute>& attributes) {
  const Schema& schema = table.schema();
  if (schema.num_attributes() != attributes.size()) {
    return Status::InvalidArgument(StrFormat(
        "table has %zu attributes, existing metadata has %zu",
        schema.num_attributes(), attributes.size()));
  }
  for (size_t c = 0; c < attributes.size(); ++c) {
    const AttributeDef& def = schema.attribute(c);
    if (def.name != attributes[c].name || def.kind != attributes[c].kind) {
      return Status::InvalidArgument(
          "attribute " + std::to_string(c) + " ('" + def.name +
          "') does not match the existing metadata ('" + attributes[c].name +
          "')");
    }
  }

  MappedTable out(attributes, table.num_rows());
  for (size_t c = 0; c < attributes.size(); ++c) {
    const MappedAttribute& attr = attributes[c];
    const Column& column = table.column(c);
    if (attr.kind == AttributeKind::kCategorical) {
      const size_t miss = EncodeByLabel(column, attr.labels, c, &out);
      if (miss != kAllEncoded) {
        return Status::InvalidArgument(
            "value '" + CellLabel(column, miss) + "' of attribute '" +
            attr.name + "' is not in the existing domain; re-convert the "
            "file to admit new categorical values");
      }
    } else if (attr.partitioned) {
      if (EncodeByInterval(column, attr.intervals, c, &out) != kAllEncoded) {
        return Status::InvalidArgument("attribute '" + attr.name +
                                       "' has no intervals to assign to");
      }
    } else {
      // Unpartitioned: every existing integer is one exact raw value.
      const size_t miss = EncodeByValue(column, attr.intervals, c, &out);
      if (miss != kAllEncoded) {
        return Status::InvalidArgument(
            "value " + FormatDouble(column.GetNumeric(miss)) +
            " of attribute '" + attr.name +
            "' is not in the existing domain; re-convert the file to admit "
            "new quantitative values");
      }
    }
  }
  return out;
}

}  // namespace qarm
