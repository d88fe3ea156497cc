// e2e_probe — the in-process half of the end-to-end benchmark (run.py is
// the other half). Two modes:
//
//   e2e_probe pipeline --csv=F.csv --dir=D --workload=NAME --seed=S
//       --convert="<qarm convert flags>" --mine="<qarm mine flags>"
//       [--trace=T.json]
//       Runs the CLI's convert and mine in-process through the same public
//       functions `qarm` calls, in the same order, and writes the same
//       artifacts (D/ref.qbt, D/ref.qrs, D/ref.csv). With --trace it runs
//       the rest of the chain too: a span is recorded around every call and
//       written as Chrome Trace Event JSON, the table is also mined with
//       MineDistributedQbt (2 forked workers) into D/dist.qrs and
//       D/dist.csv, and the rules are loaded into a RuleCatalog and queried
//       through an uncached RuleService. Prints one JSON line of counters
//       and span times.
//
//   e2e_probe load --port=P --qrs=F.qrs --seed=S --server-pid=PID
//       [--warmup=0] [--min-bursts=N] [--burst-seconds=S] [--pick-salt=N]
//       [--traced]
//       HTTP load against a running `qarm serve` over two keep-alive
//       connections: a closed-loop cache warm-up, then timed closed-loop
//       bursts (at least N, and until S seconds are spent on them), each
//       timed by the wall clock and by the server process's CPU-time
//       clock. --traced adds an open-loop search up a fixed rate ladder
//       and the open-loop 200 qps reference rung. Byte-compares a fixed subset
//       of responses with an in-process, uncached RuleService. Prints one
//       JSON line.
//
// Flags it hands to the library go through the CLI's own parser
// (tools/cli_flags.h), so the options match the `qarm` run exactly.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/string_util.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/rules.h"
#include "core/rules_export.h"
#include "core/support_counting.h"
#include "dist/dist_miner.h"
#include "partition/mapper.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/rule_catalog.h"
#include "serve/rule_service.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "storage/rules_format.h"
#include "table/csv.h"
#include "tools/cli_flags.h"

namespace qarm {
namespace {

using Clock = std::chrono::steady_clock;

// The serve load's fixed shape: ~64K distinct targets with Zipf(0.9)
// popularity, whose responses are several times the server's 64 MiB
// cache, so both cache hits and catalog misses occur.
constexpr size_t kPoolSize = 65536;
constexpr double kZipfExponent = 0.9;
constexpr size_t kWarmupRequests = 6000;  // closed loop, fills the cache
constexpr size_t kBurstRequests = 4000;   // closed loop, timed
constexpr int kMaxBursts = 100;
constexpr double kRefRate = 200;          // the reference rung, req/s
constexpr double kRefSeconds = 5;         // 1000 samples at kRefRate
// A ladder rung passes with p99 <= kP99LimitMs over at least
// kMinRungSamples requests, no failure and no growing backlog.
constexpr double kP99LimitMs = 50;
constexpr double kMinRungSamples = 1000;
constexpr double kMinRungSeconds = 0.5;
// Rung i offers kLadderBase * kLadderStep^i req/s; the climb starts at
// rung kCoarseFirst (~1.6K req/s) and doubles (kCoarseStep rungs) per step.
constexpr double kLadderBase = 200;
constexpr double kLadderStep = 1.08;
constexpr int kLadderRungs = 80;
constexpr int kCoarseFirst = 27;
constexpr int kCoarseStep = 9;
// Uncached RuleService::Handle calls timed by the traced pipeline.
constexpr size_t kHandlePool = 2400;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_probe: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T OrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void OkOrDie(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// --name=value flags of this binary (the qarm flag strings inside are
// parsed later by ParseCliArgs).
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Die("unexpected argument " + arg);
    const size_t eq = arg.find('=');
    flags[arg.substr(2, eq == std::string::npos ? std::string::npos
                                                : eq - 2)] =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name, const std::string& fallback = "") {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

// Parses a space-separated qarm flag string exactly as the CLI would.
CliFlags ParseQarmFlags(const std::string& text) {
  std::vector<std::string> words = {"qarm"};
  for (const std::string& w : Split(text, ' ')) {
    if (!w.empty()) words.push_back(w);
  }
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return OrDie(ParseCliArgs(static_cast<int>(argv.size()), argv.data(), 1),
               "qarm flags '" + text + "'");
}

// ---------------------------------------------------------------------------
// Spans. Kept in memory and written when the run ends; a disabled tracer
// records nothing.

struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;  // seconds since the tracer's origin
  double end = 0.0;
  bool derived = false;  // interval taken from the program's own stats
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = Now();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (!enabled_) return;
    spans_[static_cast<size_t>(id)].end = Now();
    stack_.pop_back();
  }

  // A child interval of `parent` measured by the program itself (the
  // miner's phase timers, the distributed exchange time): laid end to end
  // from `*cursor`, which advances. Returns the span's id, or -1.
  int AddDerived(const std::string& name, int parent, double seconds,
                 double* cursor) {
    if (!enabled_ || seconds <= 0.0) return -1;
    Span span;
    span.name = name;
    span.parent = parent;
    span.start = *cursor;
    span.end = *cursor + seconds;
    span.derived = true;
    *cursor = span.end;
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  // Moves the `name` children of `from` under `to` (a derived span that
  // turned out to enclose them).
  void Adopt(int from, const std::string& name, int to) {
    if (!enabled_ || to < 0) return;
    for (Span& s : spans_) {
      if (s.parent == from && s.name == name) s.parent = to;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  double start_of(int id) const {
    return spans_[static_cast<size_t>(id)].start;
  }

  // Self time per (root span, span name): duration minus the durations of
  // the span's children.
  std::map<std::string, std::map<std::string, double>> SelfTimes() const {
    std::vector<double> child_total(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_total[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, std::map<std::string, double>> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      size_t root = i;
      while (spans_[root].parent >= 0) {
        root = static_cast<size_t>(spans_[root].parent);
      }
      self[spans_[root].name][spans_[i].name] +=
          spans_[i].end - spans_[i].start - child_total[i];
    }
    return self;
  }

  double Duration(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end - s.start;
  }

  double ChildTotal(int id) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) total += s.end - s.start;
    }
    return total;
  }

  Status WriteChromeTrace(const std::string& path, const std::string& workload,
                          const std::string& host_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status::IOError("cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                 "\"traceEvents\":[",
                 host_json.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"workload\":\"%s\","
                   "\"derived\":%s}}",
                   i == 0 ? "" : ",", s.name.c_str(), layer.c_str(),
                   s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                   workload.c_str(), s.derived ? "true" : "false");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0 ? Status::OK()
                               : Status::IOError("cannot close " + path);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Small JSON writer for the one-line reports.

class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    Key(key);
    out_ += StrFormat("%.9g", value);
  }
  void Int(const std::string& key, uint64_t value) {
    Key(key);
    out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  }
  void Str(const std::string& key, const std::string& value) {
    Key(key);
    out_ += JsonEscape(value);
  }
  void Raw(const std::string& key, const std::string& json) {
    Key(key);
    out_ += json;
  }
  std::string Done() const { return "{" + out_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!out_.empty()) out_ += ',';
    out_ += JsonEscape(key) + ":";
  }
  std::string out_;
};

std::string HostJson() {
  JsonLine host;
  host.Int("nproc", std::thread::hardware_concurrency());
  host.Str("isa", IsaName(ActiveIsa()));
  host.Str("compiler", QARM_BENCH_COMPILER);
  host.Str("build_type", QARM_BENCH_BUILD_TYPE);
  return host.Done();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())) - 1);
  return values[std::min(idx, values.size() - 1)];
}

// ---------------------------------------------------------------------------
// Query pool, built from the catalog's decode metadata as bench_serve does:
// ~50% /match records with real labels and in-interval values, ~30% /topk,
// ~20% /rules pages.

std::vector<std::string> BuildTargetPool(const RuleCatalog& catalog,
                                         uint64_t seed, size_t size) {
  std::mt19937_64 rng(seed);
  const std::vector<MappedAttribute>& attrs = catalog.attributes();
  std::vector<std::string> pool;
  pool.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const uint64_t pick = rng() % 10;
    std::string target;
    if (pick < 5) {
      target = "/match?";
      bool first = true;
      for (const MappedAttribute& attr : attrs) {
        if (rng() % 3 == 0) continue;  // record lacks this attribute
        if (!first) target += "&";
        first = false;
        target += UrlEncode(attr.name) + "=";
        if (attr.kind == AttributeKind::kCategorical) {
          target += UrlEncode(attr.labels[rng() % attr.labels.size()]);
        } else {
          const Interval& iv = attr.intervals[rng() % attr.intervals.size()];
          target += StrFormat("%.0f", iv.lo);
        }
      }
      if (first) target += "mode=rule";
      if (rng() % 4 == 0) target += "&mode=antecedent";
    } else if (pick < 8) {
      target = "/topk?metric=";
      target += RankMeasureName(static_cast<RankMeasure>(rng() % 3));
      target += StrFormat("&k=%llu",
                          static_cast<unsigned long long>(1 + rng() % 20));
      if (rng() % 3 == 0) {
        target += "&attr=" + UrlEncode(attrs[rng() % attrs.size()].name);
      }
    } else {
      target = StrFormat("/rules?offset=%llu&limit=%llu",
                         static_cast<unsigned long long>(rng() % 4096),
                         static_cast<unsigned long long>(1 + rng() % 25));
      if (rng() % 2 == 0) {
        target += StrFormat("&min_conf=0.%llu",
                            static_cast<unsigned long long>(rng() % 10));
      }
    }
    pool.push_back(std::move(target));
  }
  return pool;
}

// The request the HTTP server would hand the service for `target`.
HttpRequest ParseTarget(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  const size_t q = target.find('?');
  request.path = target.substr(0, q);
  if (q != std::string::npos) {
    for (const std::string& pair : Split(target.substr(q + 1), '&')) {
      const size_t eq = pair.find('=');
      request.params.emplace_back(
          UrlDecode(pair.substr(0, eq)),
          eq == std::string::npos ? "" : UrlDecode(pair.substr(eq + 1)));
    }
  }
  return request;
}

// ---------------------------------------------------------------------------
// pipeline

// What one traced mine produced, for the report.
struct MineOutcome {
  size_t rules = 0;
  size_t interesting = 0;
  uint64_t qrs_bytes = 0;
  uint64_t render_bytes = 0;
};

// ExportRuleSet -> WriteRuleSet -> RulesToCsv + write, as `qarm` does after
// mining with --output-rules and --format=csv.
void ExportAndRender(Tracer* tracer, const MiningResult& result,
                     const MinerOptions& options, const std::string& qrs,
                     const std::string& csv, MineOutcome* outcome) {
  StoredRuleSet set;
  {
    ScopedSpan span(tracer, "core.export");
    set = ExportRuleSet(result, options);
  }
  {
    ScopedSpan span(tracer, "storage.write_qrs");
    OkOrDie(WriteRuleSet(set, qrs, &outcome->qrs_bytes), "write " + qrs);
  }
  set = StoredRuleSet();
  {
    ScopedSpan span(tracer, "core.render");
    // The CLI copies the rules it prints (all of them without
    // --interesting-only) before rendering.
    const std::vector<QuantRule> to_print(result.rules.begin(),
                                          result.rules.end());
    const std::string text = RulesToCsv(to_print, result.mapped);
    std::FILE* f = std::fopen(csv.c_str(), "wb");
    if (f == nullptr) Die("cannot write " + csv);
    if (std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0) {
      Die("cannot write " + csv);
    }
    outcome->render_bytes = text.size();
  }
  outcome->rules = result.rules.size();
  outcome->interesting = result.stats.num_interesting_rules;
}

int RunPipeline(const std::map<std::string, std::string>& flags) {
  const std::string dir = Flag(flags, "dir");
  const std::string csv = Flag(flags, "csv");
  const std::string workload = Flag(flags, "workload");
  const std::string trace_path = Flag(flags, "trace");
  if (dir.empty() || csv.empty()) Die("pipeline needs --dir and --csv");
  Tracer tracer(!trace_path.empty());
  JsonLine report;

  // --- qarm convert: ReadCsv -> MapTable -> WriteQbt -----------------------
  const std::string qbt = dir + "/ref.qbt";
  {
    const CliFlags convert_flags = ParseQarmFlags(Flag(flags, "convert"));
    const MinerOptions options =
        OrDie(MinerOptionsFromFlags(convert_flags), "convert options");
    const Schema schema = OrDie(Schema::Parse(convert_flags.schema), "schema");
    ScopedSpan convert(&tracer, "convert");
    Result<Table> table = [&] {
      ScopedSpan span(&tracer, "table.read_csv");
      return ReadCsv(csv, schema);
    }();
    OkOrDie(table.status(), "read " + csv);
    MapOptions map_options;
    map_options.partial_completeness = options.partial_completeness;
    map_options.minsup = options.minsup;
    map_options.method = options.partition_method;
    map_options.num_intervals_override = options.num_intervals_override;
    Result<MappedTable> mapped = [&] {
      ScopedSpan span(&tracer, "partition.map");
      return MapTable(*table, map_options);
    }();
    OkOrDie(mapped.status(), "map");
    QbtWriteInfo info;
    {
      ScopedSpan span(&tracer, "storage.write_qbt");
      OkOrDie(WriteQbt(*mapped, qbt, QbtWriteOptions(), &info), "write qbt");
    }
    report.Int("qbt_bytes", info.file_bytes);
  }

  // --- qarm --input-qbt ... --threads=N -----------------------------------
  // The CLI's own call, QuantitativeRuleMiner::MineStreamed, with the
  // counting passes spanned through the count hook. The miner's phase
  // timers (MiningStats) give its pass-1, itemset, rulegen and interest
  // spans; what they leave out of the call shows in the root's
  // unattributed time.
  CliFlags mine_flags = ParseQarmFlags(Flag(flags, "mine"));
  mine_flags.input_qbt = qbt;
  const MinerOptions options =
      OrDie(MinerOptionsFromFlags(mine_flags), "mine options");
  {
    MineOutcome local;
    ScopedSpan mine(&tracer, "mine");
    std::unique_ptr<QbtFileSource> source;
    {
      ScopedSpan span(&tracer, "storage.open");
      source = OrDie(QbtFileSource::Open(qbt), "open " + qbt);
    }
    // The hooks keep the miner's own behaviour: publish_catalog only
    // notes the catalog, and count_supports makes the call the miner makes
    // without hooks.
    const ItemCatalog* catalog = nullptr;
    int first_count = -1;
    MiningHooks hooks;
    hooks.publish_catalog = [&](const ItemCatalog& built, bool) {
      catalog = &built;
      return Status::OK();
    };
    hooks.count_supports = [&](const CandidateStream& stream,
                               CountingStats* stats) {
      ScopedSpan span(&tracer, "core.count");
      if (first_count < 0) first_count = span.id();
      return CountSupports(*source, *catalog, stream, options, stats);
    };
    const double mine_start = tracer.Now();
    const MiningResult result =
        OrDie(QuantitativeRuleMiner(options).MineStreamed(*source, hooks),
              "mine");
    const MiningStats& stats = result.stats;
    // Steps 3-5 from the miner's timers. The itemset phase encloses every
    // counting pass, so it starts no later than the first one.
    double cursor = mine_start;
    tracer.AddDerived("core.pass1", mine.id(), stats.pass1_seconds, &cursor);
    if (first_count >= 0) {
      cursor = std::min(cursor, tracer.start_of(first_count));
    }
    const int candgen = tracer.AddDerived("core.candgen", mine.id(),
                                          stats.itemset_seconds, &cursor);
    tracer.Adopt(mine.id(), "core.count", candgen);
    tracer.AddDerived("core.rulegen", mine.id(), stats.rulegen_seconds,
                      &cursor);
    tracer.AddDerived("core.interest", mine.id(), stats.interest_seconds,
                      &cursor);
    size_t candidates = 0;
    size_t frequent_count = 0;
    CountingStats counting_total;
    ScanIoStats io = stats.pass1_io;
    for (const PassStats& pass : stats.passes) {
      candidates += pass.num_candidates;
      frequent_count += pass.num_frequent;
      counting_total.counter_bytes += pass.counting.counter_bytes;
      counting_total.num_kernel_groups += pass.counting.num_kernel_groups;
      counting_total.num_hash_groups += pass.counting.num_hash_groups;
      io += pass.counting.io;
    }
    ExportAndRender(&tracer, result, options, dir + "/ref.qrs",
                    dir + "/ref.csv", &local);
    report.Int("rules", local.rules);
    report.Int("interesting", local.interesting);
    report.Int("candidates", candidates);
    report.Int("frequent", frequent_count);
    report.Int("qrs_bytes", local.qrs_bytes);
    report.Int("render_bytes", local.render_bytes);
    report.Int("counter_bytes", counting_total.counter_bytes);
    report.Int("kernel_groups", counting_total.num_kernel_groups);
    report.Int("hash_groups", counting_total.num_hash_groups);
    report.Int("blocks_read", io.blocks_read);
    report.Int("bytes_read", io.bytes_read);
    report.Num("checksum_s", io.checksum_seconds);
  }

  // --- qarm --input-qbt ... --workers=2 --threads=1 -------------------------
  if (tracer.enabled()) {
    MinerOptions dist_options = options;
    dist_options.num_workers = 2;
    dist_options.num_threads = 1;
    MineOutcome dist;
    ScopedSpan mine(&tracer, "mine.dist");
    Result<MiningResult> result = [&] {
      ScopedSpan span(&tracer, "dist.mine");
      Result<MiningResult> r = MineDistributedQbt(qbt, dist_options);
      if (r.ok()) {
        // The coordinator's exchange and merge, from its own stats.
        double exchange = 0.0;
        double merge = 0.0;
        for (const DistPassStats& pass : r->stats.dist.passes) {
          exchange += pass.exchange_seconds;
          merge += pass.merge_seconds;
        }
        double cursor = tracer.enabled() ? tracer.start_of(span.id()) : 0.0;
        tracer.AddDerived("dist.exchange", span.id(), exchange, &cursor);
        tracer.AddDerived("dist.merge", span.id(), merge, &cursor);
      }
      return r;
    }();
    OkOrDie(result.status(), "distributed mine");
    uint64_t sent = 0;
    uint64_t received = 0;
    for (const DistPassStats& pass : result->stats.dist.passes) {
      sent += pass.bytes_sent;
      received += pass.bytes_received;
    }
    report.Int("dist_bytes_sent", sent);
    report.Int("dist_bytes_received", received);
    report.Int("dist_respawns", result->stats.dist.workers_respawned);
    ExportAndRender(&tracer, *result, dist_options, dir + "/dist.qrs",
                    dir + "/dist.csv", &dist);
  }

  // --- serve: RuleCatalog::Load, then uncached RuleService::Handle ---------
  if (tracer.enabled()) {
    ScopedSpan serve(&tracer, "serve");
    std::shared_ptr<const RuleCatalog> catalog;
    {
      ScopedSpan span(&tracer, "serve.catalog_load");
      catalog = OrDie(RuleCatalog::Load(dir + "/ref.qrs"), "load catalog");
    }
    report.Int("index_bytes", catalog->stats().index_bytes);
    const uint64_t seed =
        std::strtoull(Flag(flags, "seed", "1").c_str(), nullptr, 10);
    const std::vector<std::string> pool =
        BuildTargetPool(*catalog, seed, kHandlePool);
    RuleServiceOptions uncached;
    uncached.cache_bytes = 0;
    RuleService service(catalog, uncached);
    std::map<std::string, std::vector<double>> handle_ms;
    ScopedSpan span(&tracer, "serve.handle");
    for (const std::string& target : pool) {
      const HttpRequest request = ParseTarget(target);
      const Clock::time_point start = Clock::now();
      const HttpResponse response = service.Handle(request);
      handle_ms[request.path].push_back(
          SecondsBetween(start, Clock::now()) * 1e3);
      if (response.status != 200) Die("uncached " + target + " failed");
    }
    for (const auto& [path, samples] : handle_ms) {
      const std::string name = path.substr(1);
      report.Int("handle_" + name + "_n", samples.size());
      report.Num("handle_" + name + "_p50_ms", Percentile(samples, 0.50));
      report.Num("handle_" + name + "_p99_ms", Percentile(samples, 0.99));
    }
  }

  // --- span report ---------------------------------------------------------
  if (tracer.enabled()) {
    JsonLine self;
    for (const auto& [root, names] : tracer.SelfTimes()) {
      JsonLine by_name;
      for (const auto& [name, seconds] : names) by_name.Num(name, seconds);
      self.Raw(root, by_name.Done());
    }
    report.Raw("self_s", self.Done());
    JsonLine roots;
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      if (s.parent != -1) continue;
      const int id = static_cast<int>(i);
      const double unattributed = tracer.Duration(id) - tracer.ChildTotal(id);
      JsonLine root;
      root.Num("total_s", tracer.Duration(id));
      root.Num("unattributed_s", unattributed);
      roots.Raw(s.name, root.Done());
    }
    report.Raw("roots", roots.Done());
    OkOrDie(tracer.WriteChromeTrace(trace_path, workload, HostJson()),
            "trace");
  }
  report.Raw("host", HostJson());
  std::printf("%s\n", report.Done().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// load

// Zipf(s) over ranks 0..n-1, sampled by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct RungResult {
  double rate = 0.0;
  size_t attempted = 0;
  size_t failed = 0;      // transport errors, non-200, wrong bytes
  size_t mismatched = 0;  // of `failed`: wrong bytes
  size_t checked = 0;     // responses byte-compared with the reference
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lateness_p50_ms = 0.0;
  double lateness_p99_ms = 0.0;
  bool backlog_grew = false;
  bool passed = false;
  double seconds = 0.0;  // from the schedule's start to the last reply
};

class LoadGenerator {
 public:
  LoadGenerator(std::string host, uint16_t port,
                const std::vector<std::string>* pool,
                const std::unordered_map<size_t, std::string>* expected)
      : host_(std::move(host)), port_(port), pool_(pool),
        expected_(expected), zipf_(pool->size(), kZipfExponent) {}

  // Sends `rate` requests per second for `seconds` from an open-loop
  // schedule over kConnections keep-alive connections. A request is timed
  // from when it was due; one waiting for a busy connection keeps aging.
  RungResult Run(double rate, double seconds, uint64_t pick_seed) {
    const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
    std::vector<size_t> picks(n);
    std::mt19937_64 rng(pick_seed);
    for (size_t& p : picks) p = zipf_.Sample(rng);
    std::vector<double> latency_ms(n, 0.0);
    std::vector<double> lateness_ms(n, 0.0);
    std::vector<char> failed(n, 0);
    std::vector<char> mismatched(n, 0);
    std::vector<char> checked(n, 0);
    std::atomic<size_t> next{0};
    const Clock::time_point start = Clock::now() +
                                    std::chrono::milliseconds(2);
    const double interval = 1.0 / rate;
    auto worker = [&](size_t c) {
      std::unique_ptr<HttpClient>& client = clients_[c];
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(interval *
                                                      static_cast<double>(i)));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const std::string& target = (*pool_)[picks[i]];
        if (client == nullptr) {
          Result<std::unique_ptr<HttpClient>> fresh =
              HttpClient::Connect(host_, port_);
          if (fresh.ok()) client = std::move(fresh).value();
        }
        bool ok = false;
        if (client != nullptr) {
          Result<HttpResponse> response = client->Get(target);
          if (!response.ok()) {
            client.reset();  // reconnect on the next request
          } else if (response->status == 200) {
            ok = true;
            auto it = expected_->find(picks[i]);
            if (it != expected_->end()) {
              checked[i] = 1;
              if (response->body != it->second) {
                ok = false;
                mismatched[i] = 1;
              }
            }
          }
        }
        const Clock::time_point done = Clock::now();
        latency_ms[i] = SecondsBetween(due, done) * 1e3;
        lateness_ms[i] = std::max(0.0, SecondsBetween(due, sent) * 1e3);
        failed[i] = ok ? 0 : 1;
      }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) threads.emplace_back(worker, c);
    for (std::thread& t : threads) t.join();

    RungResult r;
    r.rate = rate;
    r.attempted = n;
    for (size_t i = 0; i < n; ++i) {
      r.failed += static_cast<size_t>(failed[i]);
      r.mismatched += static_cast<size_t>(mismatched[i]);
      r.checked += static_cast<size_t>(checked[i]);
      // A failed request misses every latency limit.
      if (failed[i]) latency_ms[i] = std::max(latency_ms[i], 1e9);
    }
    r.seconds = SecondsBetween(start, Clock::now());
    r.p50_ms = Percentile(latency_ms, 0.50);
    r.p99_ms = Percentile(latency_ms, 0.99);
    r.lateness_p50_ms = Percentile(lateness_ms, 0.50);
    r.lateness_p99_ms = Percentile(lateness_ms, 0.99);
    // The backlog grew when the last tenth of the schedule went out much
    // later than the first tenth.
    const size_t tenth = std::max<size_t>(1, n / 10);
    const std::vector<double> head(lateness_ms.begin(),
                                   lateness_ms.begin() + tenth);
    const std::vector<double> tail(lateness_ms.end() - tenth,
                                   lateness_ms.end());
    r.backlog_grew =
        Percentile(tail, 0.5) > Percentile(head, 0.5) + 0.5 * kP99LimitMs;
    r.passed = r.failed == 0 && r.p99_ms <= kP99LimitMs && !r.backlog_grew;
    return r;
  }

  // GET over the first load connection: the server gives each of its
  // threads one connection, so a third one would wait for a free thread.
  Result<HttpResponse> Get(const std::string& target) {
    if (clients_[0] == nullptr) {
      QARM_ASSIGN_OR_RETURN(clients_[0], HttpClient::Connect(host_, port_));
    }
    return clients_[0]->Get(target);
  }

 private:
  static constexpr size_t kConnections = 2;
  std::string host_;
  uint16_t port_;
  const std::vector<std::string>* pool_;
  const std::unordered_map<size_t, std::string>* expected_;
  ZipfSampler zipf_;
  std::unique_ptr<HttpClient> clients_[kConnections];
};

std::string RungJson(const RungResult& r) {
  JsonLine j;
  j.Num("rate", r.rate);
  j.Int("attempted", r.attempted);
  j.Int("failed", r.failed);
  j.Int("mismatched", r.mismatched);
  j.Int("checked", r.checked);
  j.Num("p50_ms", r.p50_ms);
  j.Num("p99_ms", r.p99_ms);
  j.Num("lateness_p50_ms", r.lateness_p50_ms);
  j.Num("lateness_p99_ms", r.lateness_p99_ms);
  j.Int("backlog_grew", r.backlog_grew ? 1 : 0);
  j.Int("passed", r.passed ? 1 : 0);
  return j.Done();
}

// Extracts the integer after "key": at or after `from` in `json`.
uint64_t JsonField(const std::string& json, const std::string& key,
                   size_t from) {
  const size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

int RunLoad(const std::map<std::string, std::string>& flags) {
  auto num = [&](const std::string& name, const std::string& fallback) {
    return std::strtod(Flag(flags, name, fallback).c_str(), nullptr);
  };
  const uint16_t port = static_cast<uint16_t>(num("port", "0"));
  const uint64_t seed = static_cast<uint64_t>(num("seed", "1"));
  const uint64_t salt = static_cast<uint64_t>(num("pick-salt", "0"));
  const bool traced = Flag(flags, "traced", "0") == "1";

  // The pool and the reference bytes come from the same QRS the server
  // loaded, through an uncached in-process service.
  std::shared_ptr<const RuleCatalog> catalog =
      OrDie(RuleCatalog::Load(Flag(flags, "qrs")), "load catalog");
  const std::vector<std::string> pool =
      BuildTargetPool(*catalog, seed, kPoolSize);
  std::unordered_map<size_t, std::string> expected;
  {
    RuleServiceOptions uncached;
    uncached.cache_bytes = 0;
    RuleService service(catalog, uncached);
    // The 256 hottest ranks (served from the cache) and every 509th rank
    // (mostly catalog misses).
    for (size_t i = 0; i < pool.size(); ++i) {
      if (i < 256 || i % 509 == 0) {
        HttpResponse response = service.Handle(ParseTarget(pool[i]));
        if (response.status != 200) Die("reference " + pool[i] + " failed");
        expected.emplace(i, std::move(response.body));
      }
    }
  }
  catalog.reset();

  LoadGenerator gen("127.0.0.1", port, &pool, &expected);
  std::vector<RungResult> rungs;
  size_t attempted = 0;
  size_t failed = 0;
  auto run = [&](double rate, double seconds, uint64_t pick) {
    RungResult r = gen.Run(rate, seconds, seed * 1000003 + salt + pick);
    attempted += r.attempted;
    failed += r.failed;
    rungs.push_back(r);
    return r;
  };
  auto rung_seconds = [&](double rate) {
    return std::max(kMinRungSeconds, kMinRungSamples / rate);
  };
  // A rung passes when one of two attempts (fresh picks each) passes, so
  // one stall of the host does not end the climb.
  auto rung_passes = [&](int i, double rate) {
    return run(rate, rung_seconds(rate), 100 + 2 * i).passed ||
           run(rate, rung_seconds(rate), 101 + 2 * i).passed;
  };

  // Closed loops: every request is due at once, so each connection sends
  // the next request as soon as the reply to the previous one is in. The
  // warm-up fills the cache, so the later loads see its steady hit ratio.
  JsonLine report;
  if (Flag(flags, "warmup", "1") == "1") {
    run(1e6, static_cast<double>(kWarmupRequests) / 1e6, 1);
  }
  // Each burst is also timed by the server's CPU-time clock: the CPU the
  // server spends per request is far less sensitive than the wall clock to
  // how the host schedules the two ends of a closed loop.
  clockid_t server_clock;
  if (clock_getcpuclockid(static_cast<pid_t>(num("server-pid", "0")),
                          &server_clock) != 0) {
    Die("no CPU-time clock for --server-pid");
  }
  auto server_cpu_s = [&] {
    timespec ts;
    if (clock_gettime(server_clock, &ts) != 0) Die("server CPU clock");
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };
  const int min_bursts = static_cast<int>(num("min-bursts", "1"));
  const double burst_seconds = num("burst-seconds", "0");
  const Clock::time_point bursts_start = Clock::now();
  auto more_bursts = [&](int done) {
    if (done >= kMaxBursts) return false;
    return done < std::max(1, min_bursts) ||
           SecondsBetween(bursts_start, Clock::now()) < burst_seconds;
  };
  std::string burst_qps = "[";
  std::string burst_cpu_us = "[";
  for (int b = 0; more_bursts(b); ++b) {
    const double cpu_before = server_cpu_s();
    const RungResult burst =
        run(1e6, static_cast<double>(kBurstRequests) / 1e6, 3 + 1000 * b);
    const double cpu_s = server_cpu_s() - cpu_before;
    if (b > 0) {
      burst_qps += ",";
      burst_cpu_us += ",";
    }
    burst_qps += StrFormat(
        "%.9g", static_cast<double>(burst.attempted) / burst.seconds);
    burst_cpu_us += StrFormat(
        "%.9g", 1e6 * cpu_s / static_cast<double>(burst.attempted));
  }
  report.Raw("burst_qps", burst_qps + "]");
  report.Raw("burst_cpu_us_per_req", burst_cpu_us + "]");

  if (traced) {
    // Highest passing rung of kLadderBase * kLadderStep^i: coarse steps up
    // to the first failure, then bisection between the last pass and it.
    // When no coarse rung passes, the bisection starts from rung 0, which
    // must pass itself; max_qps is 0 when it does not.
    auto rate_of = [&](int i) {
      return kLadderBase * std::pow(kLadderStep, i);
    };
    int lo = -1;
    int hi = -1;
    for (int i = kCoarseFirst; i < kLadderRungs; i += kCoarseStep) {
      if (rung_passes(i, rate_of(i))) {
        lo = i;
      } else {
        hi = i;
        break;
      }
    }
    if (hi < 0) hi = kLadderRungs;
    if (lo < 0 && rung_passes(0, rate_of(0))) lo = 0;
    while (lo >= 0 && hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (rung_passes(mid, rate_of(mid))) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    report.Num("max_qps", lo >= 0 ? rate_of(lo) : 0.0);

    // The reference rung runs last, on the warmest cache.
    const RungResult ref = run(kRefRate, kRefSeconds, 2);
    report.Num("ref_p50_ms", ref.p50_ms);
    report.Num("ref_p99_ms", ref.p99_ms);
    report.Num("ref_lateness_p99_ms", ref.lateness_p99_ms);
    report.Int("ref_samples", ref.attempted);
  }

  Result<HttpResponse> statz = gen.Get("/statz");
  if (statz.ok() && statz->status == 200) {
    const size_t total = statz->body.find("\"total\":{");
    if (total != std::string::npos) {
      report.Int("cache_hits", JsonField(statz->body, "hits", total));
      report.Int("cache_misses", JsonField(statz->body, "misses", total));
      report.Int("cache_evictions",
                 JsonField(statz->body, "evictions", total));
    }
  } else {
    ++failed;
  }
  ++attempted;
  report.Int("attempted", attempted);
  report.Int("failed", failed);
  std::string rung_list = "[";
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0) rung_list += ",";
    rung_list += RungJson(rungs[i]);
  }
  report.Raw("rungs", rung_list + "]");
  std::printf("%s\n", report.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace qarm

int main(int argc, char** argv) {
  if (argc < 2) qarm::Die("usage: e2e_probe pipeline|load --flags...");
  const std::string mode = argv[1];
  const auto flags = qarm::ParseFlags(argc, argv);
  if (mode == "pipeline") return qarm::RunPipeline(flags);
  if (mode == "load") return qarm::RunLoad(flags);
  qarm::Die("unknown mode " + mode);
}
