// Distributed mining scale-up: the same QBT mined at 1/2/4/8 forked
// worker processes, then at 1/2/4 TCP worker servers on localhost. Every
// sharded run is checked byte-identical to the single-process rules (by a
// streaming digest of their canonical CSV) before its timing counts — a
// wrong fast answer fails the bench. Reports per-pass exchange volume (the
// QCP-style shard snapshots and count merges crossing the socketpairs or
// the loopback) and coordinator merge time, the two costs the
// single-process miner does not pay. The TCP rows
// price the transport itself: same shards, same merges, but framed
// through the full handshake/heartbeat/deadline machinery.
//
//   $ ./bench_distributed [--records=N] [--seed=S] [--reps=R]
//                         [--block-rows=N] [--threads=N]
//                         [--minsup=F] [--maxsup=F] [--out=FILE]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/miner.h"
#include "core/report.h"
#include "dist/dist_miner.h"
#include "dist/worker_server.h"
#include "partition/mapper.h"
#include "storage/crc32.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "storage/rule_text.h"
#include "table/datagen.h"

namespace {

using namespace qarm;

MinerOptions BaseOptions(size_t threads, double minsup, double maxsup) {
  MinerOptions options;
  options.minsup = minsup;
  options.minconf = 0.40;
  options.max_support = maxsup;
  options.partial_completeness = 3.0;
  options.num_threads = threads;
  return options;
}

// A running digest of the rules' canonical CSV (WriteRulesCsv's bytes,
// streamed through a RuleSink into a stdio stream that only checksums):
// the CRC-32 of the bytes and the rule count. Comparing digests instead of
// rendered rules keeps the check's memory flat however many rules a run
// mines.
struct RulesDigest {
  uint32_t crc = kCrc32Init;
  size_t rules = 0;
};

RulesDigest DigestRules(const MiningResult& result) {
  RulesDigest digest;
  cookie_io_functions_t io{};
  io.write = [](void* cookie, const char* data, size_t size) -> ssize_t {
    uint32_t* crc = static_cast<uint32_t*>(cookie);
    *crc = Crc32Update(*crc, data, size);
    return static_cast<ssize_t>(size);
  };
  std::FILE* stream = fopencookie(&digest.crc, "w", io);
  QARM_CHECK(stream != nullptr);
  {
    RuleSink sink(stream);
    digest.rules = WriteRulesCsv(result.rules, result.mapped,
                                 /*interesting_only=*/false, &sink);
    QARM_CHECK(sink.Flush());
  }
  QARM_CHECK(std::fclose(stream) == 0);
  digest.crc = Crc32Finish(digest.crc);
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t records = bench::FlagU64(argc, argv, "records", 500000);
  const uint64_t seed = bench::FlagU64(argc, argv, "seed", 42);
  const size_t reps = bench::FlagU64(argc, argv, "reps", 3);
  const size_t block_rows = bench::FlagU64(argc, argv, "block-rows", 8192);
  const size_t threads = bench::FlagU64(argc, argv, "threads", 1);
  double minsup = 0.15;
  double maxsup = 0.45;
  std::string out = "BENCH_distributed.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strncmp(argv[i], "--minsup=", 9) == 0) {
      minsup = std::atof(argv[i] + 9);
    }
    if (std::strncmp(argv[i], "--maxsup=", 9) == 0) {
      maxsup = std::atof(argv[i] + 9);
    }
  }

  const Table data = MakeFinancialDataset(records, seed);
  MapOptions map_options;
  map_options.partial_completeness = 3.0;
  map_options.minsup = minsup;
  Result<MappedTable> mapped = MapTable(data, map_options);
  QARM_CHECK(mapped.ok());
  const std::string qbt = out + ".qbt";
  QbtWriteOptions write_options;
  write_options.rows_per_block = block_rows;
  QARM_CHECK(WriteQbt(*mapped, qbt, write_options).ok());
  Result<std::unique_ptr<QbtFileSource>> source = QbtFileSource::Open(qbt);
  QARM_CHECK(source.ok());
  const size_t num_blocks = (*source)->num_blocks();

  const size_t cpus = std::thread::hardware_concurrency();
  std::printf(
      "Distributed scale-up: financial dataset, %zu records, %zu blocks of "
      "%zu rows, %zu threads/worker, %zu cpus, best of %zu reps\n",
      records, num_blocks, block_rows, threads, cpus, reps);
  if (cpus < 2) {
    std::printf(
        "NOTE: single-cpu host — workers time-slice one core, so the sweep "
        "measures coordination overhead (exchange bytes, merge time), not "
        "scale-up.\n");
  }
  std::printf("\n");
  std::vector<int> widths = {6, 8, 10, 9, 11, 11, 11, 10, 9};
  bench::PrintRow({"mode", "workers", "wall (s)", "speedup", "sent (KB)",
                   "recv (KB)", "exch (s)", "merge (s)", "respawns"},
                  widths);
  bench::PrintSeparator(widths);

  struct Point {
    std::string transport;
    size_t workers = 0;
    double wall_seconds = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    double exchange_seconds = 0;
    double merge_seconds = 0;
    size_t respawned = 0;
    std::vector<DistPassStats> passes;
  };
  std::vector<Point> points;
  RulesDigest baseline;

  // One sweep point: `reps` runs, best wall time kept, rules byte-compared
  // against the first run of the whole sweep (fork, workers=1).
  auto run_point = [&](const std::string& transport, size_t workers,
                       const std::vector<std::string>& endpoints) -> bool {
    Point p;
    p.transport = transport;
    p.workers = workers;
    for (size_t rep = 0; rep < reps; ++rep) {
      MinerOptions options = BaseOptions(threads, minsup, maxsup);
      if (endpoints.empty()) {
        options.num_workers = workers;
      } else {
        options.worker_endpoints = endpoints;
      }
      Result<MiningResult> result = MineDistributedQbt(qbt, options);
      QARM_CHECK(result.ok());
      const RulesDigest digest = DigestRules(*result);
      if (baseline.rules == 0) {
        baseline = digest;
        QARM_CHECK(baseline.rules > 0);
      } else if (digest.crc != baseline.crc || digest.rules != baseline.rules) {
        std::fprintf(stderr, "FATAL: %s workers=%zu changed the mined rules\n",
                     transport.c_str(), workers);
        return false;
      }
      if (rep == 0 || result->stats.total_seconds < p.wall_seconds) {
        p.wall_seconds = result->stats.total_seconds;
        p.bytes_sent = 0;
        p.bytes_received = 0;
        p.exchange_seconds = 0;
        p.merge_seconds = 0;
        p.passes = result->stats.dist.passes;
        p.respawned = result->stats.dist.workers_respawned;
        for (const DistPassStats& pass : p.passes) {
          p.bytes_sent += pass.bytes_sent;
          p.bytes_received += pass.bytes_received;
          p.exchange_seconds += pass.exchange_seconds;
          p.merge_seconds += pass.merge_seconds;
        }
      }
    }
    const double speedup =
        points.empty() ? 1.0 : points.front().wall_seconds / p.wall_seconds;
    bench::PrintRow(
        {p.transport, StrFormat("%zu", p.workers),
         StrFormat("%.4f", p.wall_seconds), StrFormat("%.2fx", speedup),
         StrFormat("%.1f", p.bytes_sent / 1024.0),
         StrFormat("%.1f", p.bytes_received / 1024.0),
         StrFormat("%.4f", p.exchange_seconds),
         StrFormat("%.4f", p.merge_seconds), StrFormat("%zu", p.respawned)},
        widths);
    points.push_back(std::move(p));
    return true;
  };

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (workers > num_blocks) {
      std::printf("(skipping fork workers=%zu: only %zu blocks)\n", workers,
                  num_blocks);
      continue;
    }
    if (!run_point("fork", workers, {})) return 1;
  }

  // The same sweep over localhost TCP: one worker server per endpoint, all
  // in this process (the wire and the protocol are the production path;
  // only the process boundary is elided, which is what makes fork-vs-tcp
  // rows a clean measure of transport cost).
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    if (workers > num_blocks) {
      std::printf("(skipping tcp workers=%zu: only %zu blocks)\n", workers,
                  num_blocks);
      continue;
    }
    std::vector<std::unique_ptr<WorkerServer>> servers;
    std::vector<std::string> endpoints;
    for (size_t i = 0; i < workers; ++i) {
      WorkerServerOptions server_options;
      server_options.qbt_path = qbt;
      Result<std::unique_ptr<WorkerServer>> server =
          WorkerServer::Start(server_options);
      QARM_CHECK(server.ok());
      endpoints.push_back("127.0.0.1:" + std::to_string((*server)->port()));
      servers.push_back(std::move(server).value());
    }
    if (!run_point("tcp", workers, endpoints)) return 1;
  }
  std::remove(qbt.c_str());

  std::string json = "{\n";
  json += StrFormat(
      "  \"bench\": \"distributed\",\n  \"records\": %zu,\n"
      "  \"seed\": %llu,\n  \"reps\": %zu,\n  \"block_rows\": %zu,\n"
      "  \"num_blocks\": %zu,\n  \"threads_per_worker\": %zu,\n"
      "  \"cpus\": %zu,\n  \"minsup\": %.3f,\n  \"maxsup\": %.3f,\n"
      "  \"rules\": %zu,\n  \"points\": [",
      records, static_cast<unsigned long long>(seed), reps, block_rows,
      num_blocks, threads, cpus, minsup, maxsup, baseline.rules);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json += StrFormat(
        "%s\n    {\"transport\": \"%s\", \"workers\": %zu,"
        " \"wall_seconds\": %.6f,"
        " \"speedup\": %.4f, \"bytes_sent\": %llu,"
        " \"bytes_received\": %llu, \"exchange_seconds\": %.6f,"
        " \"merge_seconds\": %.6f, \"workers_respawned\": %zu,"
        " \"passes\": [",
        i > 0 ? "," : "", p.transport.c_str(), p.workers, p.wall_seconds,
        points.front().wall_seconds / p.wall_seconds,
        static_cast<unsigned long long>(p.bytes_sent),
        static_cast<unsigned long long>(p.bytes_received),
        p.exchange_seconds, p.merge_seconds, p.respawned);
    for (size_t j = 0; j < p.passes.size(); ++j) {
      const DistPassStats& pass = p.passes[j];
      json += StrFormat(
          "%s{\"k\": %zu, \"bytes_sent\": %llu, \"bytes_received\": %llu,"
          " \"exchange_seconds\": %.6f, \"merge_seconds\": %.6f}",
          j > 0 ? ", " : "", pass.k,
          static_cast<unsigned long long>(pass.bytes_sent),
          static_cast<unsigned long long>(pass.bytes_received),
          pass.exchange_seconds, pass.merge_seconds);
    }
    json += "]}";
  }
  json += "\n  ]\n}\n";
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
