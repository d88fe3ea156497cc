#include "core/report.h"

#include "common/cpu_dispatch.h"
#include "common/string_util.h"

namespace qarm {

namespace {

// The items of the rules a Write* call prints, each rendered once.
ItemTextTable ItemsOf(const std::vector<QuantRule>& rules,
                      const MappedTable& mapped, bool interesting_only) {
  ItemTextTable items(mapped.attributes());
  for (const QuantRule& rule : rules) {
    if (interesting_only && !rule.interesting) continue;
    items.AddRule(rule);
  }
  return items;
}

void AppendRuleJson(const QuantRule& rule, const ItemTextTable& items,
                    RuleSink* sink) {
  sink->Append("{\"antecedent\":");
  sink->AppendJsonSide(rule.antecedent, items);
  sink->Append(",\"consequent\":");
  sink->AppendJsonSide(rule.consequent, items);
  sink->Append(",\"support\":");
  sink->AppendFixed(rule.support, 6);
  sink->Append(",\"confidence\":");
  sink->AppendFixed(rule.confidence, 6);
  sink->Append(",\"count\":");
  sink->AppendUint(rule.count);
  sink->Append(",\"interesting\":");
  sink->AppendBool(rule.interesting);
  sink->Append('}');
}

}  // namespace

std::string RuleToJson(const QuantRule& rule, const MappedTable& mapped) {
  ItemTextTable items(mapped.attributes());
  items.AddRule(rule);
  RuleSink sink;
  AppendRuleJson(rule, items, &sink);
  return sink.TakeString();
}

std::string StatsToJson(const MiningStats& stats) {
  std::string out = "{";
  out += StrFormat(
      "\"num_records\":%zu,\"num_threads\":%zu,\"num_frequent_items\":%zu,"
      "\"items_pruned_by_interest\":%zu,"
      "\"achieved_partial_completeness\":%.4f,"
      "\"num_rules\":%zu,\"num_interesting_rules\":%zu,"
      "\"total_seconds\":%.6f",
      stats.num_records, stats.num_threads, stats.num_frequent_items,
      stats.items_pruned_by_interest, stats.achieved_partial_completeness,
      stats.num_rules, stats.num_interesting_rules, stats.total_seconds);
  out += StrFormat(
      ",\"map_seconds\":%.6f,\"pass1_seconds\":%.6f,"
      "\"itemset_seconds\":%.6f,\"candgen_seconds\":%.6f,"
      "\"rulegen_seconds\":%.6f,\"interest_seconds\":%.6f",
      stats.map_seconds, stats.pass1_seconds, stats.itemset_seconds,
      stats.candgen_seconds, stats.rulegen_seconds, stats.interest_seconds);
  out += StrFormat(
      ",\"candgen_threads_used\":%zu,\"rulegen_threads_used\":%zu,"
      "\"interest_threads_used\":%zu",
      stats.candgen_threads_used, stats.rulegen_threads_used,
      stats.interest_threads_used);
  out += StrFormat(
      ",\"pass1_io\":{\"blocks_read\":%llu,\"bytes_read\":%llu,"
      "\"checksum_seconds\":%.6f,\"read_retries\":%llu,"
      "\"faults_injected\":%llu}",
      static_cast<unsigned long long>(stats.pass1_io.blocks_read),
      static_cast<unsigned long long>(stats.pass1_io.bytes_read),
      stats.pass1_io.checksum_seconds,
      static_cast<unsigned long long>(stats.pass1_io.read_retries),
      static_cast<unsigned long long>(stats.pass1_io.faults_injected));
  out += StrFormat(
      ",\"checkpoint\":{\"enabled\":%s,\"resumed\":%s,"
      "\"resumed_passes\":%zu,\"checkpoints_written\":%zu,"
      "\"last_checkpoint_bytes\":%llu,\"write_seconds\":%.6f}",
      stats.checkpoint.enabled ? "true" : "false",
      stats.checkpoint.resumed ? "true" : "false",
      stats.checkpoint.resumed_passes, stats.checkpoint.checkpoints_written,
      static_cast<unsigned long long>(stats.checkpoint.last_checkpoint_bytes),
      stats.checkpoint.write_seconds);
  out += ",\"passes\":[";
  for (size_t i = 0; i < stats.passes.size(); ++i) {
    const PassStats& pass = stats.passes[i];
    const CountingStats& counting = pass.counting;
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"k\":%zu,\"candidates\":%zu,\"frequent\":%zu,"
        "\"candgen\":{\"threads_used\":%zu,\"join_candidates\":%zu,"
        "\"peak_materialized\":%zu,"
        "\"join_seconds\":%.6f,\"prune_seconds\":%.6f,\"seconds\":%.6f},"
        "\"super_candidates\":%zu,\"array_counters\":%zu,"
        "\"tree_counters\":%zu,\"direct_counters\":%zu,"
        "\"degraded_counters\":%zu,"
        "\"atomic_shared_counters\":%zu,\"threads_used\":%zu,"
        "\"isa\":\"%s\",\"kernel_groups\":%zu,\"hash_groups\":%zu,"
        "\"counter_bytes\":%llu,\"replicated_bytes\":%llu,"
        "\"group_seconds\":%.6f,\"build_seconds\":%.6f,"
        "\"scan_seconds\":%.6f,\"reduce_seconds\":%.6f,"
        "\"io\":{\"blocks_read\":%llu,\"bytes_read\":%llu,"
        "\"checksum_seconds\":%.6f,\"read_retries\":%llu,"
        "\"faults_injected\":%llu},"
        "\"seconds\":%.6f}",
        pass.k, pass.num_candidates, pass.num_frequent,
        pass.candgen.threads_used, pass.candgen.join_candidates,
        pass.candgen.peak_materialized,
        pass.candgen.join_seconds, pass.candgen.prune_seconds,
        pass.candgen.seconds,
        counting.num_super_candidates, counting.num_array_counters,
        counting.num_tree_counters, counting.num_direct,
        counting.num_degraded,
        counting.num_atomic_shared, counting.threads_used,
        IsaName(counting.isa), counting.num_kernel_groups,
        counting.num_hash_groups,
        static_cast<unsigned long long>(counting.counter_bytes),
        static_cast<unsigned long long>(counting.replicated_bytes),
        counting.group_seconds, counting.build_seconds,
        counting.scan_seconds, counting.reduce_seconds,
        static_cast<unsigned long long>(counting.io.blocks_read),
        static_cast<unsigned long long>(counting.io.bytes_read),
        counting.io.checksum_seconds,
        static_cast<unsigned long long>(counting.io.read_retries),
        static_cast<unsigned long long>(counting.io.faults_injected),
        pass.seconds);
  }
  out += "]";
  if (stats.dist.num_workers > 0) {
    out += StrFormat(
        ",\"distributed\":{\"num_workers\":%zu,\"workers_respawned\":%zu,"
        "\"passes\":[",
        stats.dist.num_workers, stats.dist.workers_respawned);
    for (size_t i = 0; i < stats.dist.passes.size(); ++i) {
      const DistPassStats& pass = stats.dist.passes[i];
      if (i > 0) out += ',';
      out += StrFormat(
          "{\"k\":%zu,\"bytes_sent\":%llu,\"bytes_received\":%llu,"
          "\"exchange_seconds\":%.6f,\"merge_seconds\":%.6f}",
          pass.k, static_cast<unsigned long long>(pass.bytes_sent),
          static_cast<unsigned long long>(pass.bytes_received),
          pass.exchange_seconds, pass.merge_seconds);
    }
    out += "]";
    if (!stats.dist.workers.empty()) {
      out += ",\"workers\":[";
      for (size_t i = 0; i < stats.dist.workers.size(); ++i) {
        const DistWorkerStats& worker = stats.dist.workers[i];
        if (i > 0) out += ',';
        out += StrFormat(
            "{\"worker_id\":%u,\"endpoint\":\"%s\",\"respawns\":%zu,"
            "\"reconnects\":%zu,\"redistributed\":%zu,\"heartbeats\":%zu,"
            "\"heartbeat_timeouts\":%zu,\"frames_retried\":%zu,"
            "\"bytes_sent\":%llu,\"bytes_received\":%llu}",
            worker.worker_id, worker.endpoint.c_str(), worker.respawns,
            worker.reconnects, worker.redistributed, worker.heartbeats,
            worker.heartbeat_timeouts, worker.frames_retried,
            static_cast<unsigned long long>(worker.bytes_sent),
            static_cast<unsigned long long>(worker.bytes_received));
      }
      out += "]";
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string MiningResultToJson(const MiningResult& result,
                               bool interesting_only) {
  RuleSink sink;
  WriteMiningResultJson(result, interesting_only, &sink);
  return sink.TakeString();
}

std::string RulesToCsv(const std::vector<QuantRule>& rules,
                       const MappedTable& mapped) {
  RuleSink sink;
  WriteRulesCsv(rules, mapped, /*interesting_only=*/false, &sink);
  return sink.TakeString();
}

size_t WriteMiningResultJson(const MiningResult& result, bool interesting_only,
                             RuleSink* sink) {
  const ItemTextTable items =
      ItemsOf(result.rules, result.mapped, interesting_only);
  sink->Append("{\"stats\":");
  sink->Append(StatsToJson(result.stats));
  sink->Append(",\"rules\":[");
  size_t written = 0;
  for (const QuantRule& rule : result.rules) {
    if (interesting_only && !rule.interesting) continue;
    if (written++ > 0) sink->Append(',');
    AppendRuleJson(rule, items, sink);
  }
  sink->Append("]}");
  return written;
}

size_t WriteRulesCsv(const std::vector<QuantRule>& rules,
                     const MappedTable& mapped, bool interesting_only,
                     RuleSink* sink) {
  const ItemTextTable items = ItemsOf(rules, mapped, interesting_only);
  sink->Append("antecedent,consequent,support,confidence,count,interesting\n");
  size_t written = 0;
  for (const QuantRule& rule : rules) {
    if (interesting_only && !rule.interesting) continue;
    sink->AppendCsvSide(rule.antecedent, items);
    sink->Append(',');
    sink->AppendCsvSide(rule.consequent, items);
    sink->Append(',');
    sink->AppendFixed(rule.support, 6);
    sink->Append(',');
    sink->AppendFixed(rule.confidence, 6);
    sink->Append(',');
    sink->AppendUint(rule.count);
    sink->Append(',');
    sink->AppendBool(rule.interesting);
    sink->Append('\n');
    ++written;
  }
  return written;
}

size_t WriteRulesText(const std::vector<QuantRule>& rules,
                      const MappedTable& mapped, bool interesting_only,
                      bool mark_interesting, RuleSink* sink) {
  const ItemTextTable items = ItemsOf(rules, mapped, interesting_only);
  size_t written = 0;
  for (const QuantRule& rule : rules) {
    if (interesting_only && !rule.interesting) continue;
    AppendRuleText(rule, items, sink);
    if (mark_interesting && rule.interesting) sink->Append("  [interesting]");
    sink->Append('\n');
    ++written;
  }
  return written;
}

void WriteItemsetsText(const std::vector<FrequentRangeItemset>& itemsets,
                       const MappedTable& mapped, RuleSink* sink) {
  ItemTextTable items(mapped.attributes());
  for (const FrequentRangeItemset& f : itemsets) items.AddItems(f.items);
  sink->Append("# ");
  sink->AppendUint(itemsets.size());
  sink->Append(" frequent itemsets\n");
  for (const FrequentRangeItemset& f : itemsets) {
    sink->AppendTextSide(f.items, items);
    sink->Append("  (support ");
    sink->AppendFixed(f.support * 100, 2);
    sink->Append("%)\n");
  }
  sink->Append('\n');
}

}  // namespace qarm
