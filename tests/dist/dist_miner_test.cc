// The distributed acceptance gate: MineDistributedQbt must emit rules
// byte-identical to the single-process streamed miner at every worker and
// thread count — on the financial corpus, with taxonomies, and with
// missing values. Worker processes fork from the test binary, so any
// divergence in the shard/merge path fails here as a rule diff, not a
// statistical anomaly. (The TCP transport runs the same matrix in
// tcp_miner_test.cc; the corpora live in dist_corpora.h.)
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/miner.h"
#include "dist/dist_miner.h"
#include "dist/worker_server.h"
#include "dist/dist_corpora.h"

namespace qarm {
namespace {

using disttest::DistCorpus;
using disttest::ExchangeBytes;
using disttest::FinancialCorpus;
using disttest::HelloAckFrameBytes;
using disttest::HelloFrameBytes;
using disttest::MissingValuesCorpus;
using disttest::MustMineStreamed;
using disttest::RulesAsJson;
using disttest::SumExchangeBytes;
using disttest::TaxonomyCorpus;

MiningResult MustMineDistributed(const DistCorpus& corpus, size_t workers,
                                 size_t threads) {
  MinerOptions options = corpus.options;
  options.num_workers = workers;
  options.num_threads = threads;
  auto result = MineDistributedQbt(corpus.qbt_path, options);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// The full matrix for one corpus: every worker x thread combination must
// reproduce the single-process rules bit for bit, without respawns.
void ExpectMatrixMatchesBaseline(const DistCorpus& corpus) {
  ASSERT_GE(corpus.num_blocks, 4u) << "fixture too small to shard";
  const MiningResult baseline = MustMineStreamed(corpus, /*threads=*/1);
  const std::vector<std::string> want = RulesAsJson(baseline);
  ASSERT_FALSE(want.empty());

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      const MiningResult got = MustMineDistributed(corpus, workers, threads);
      EXPECT_EQ(RulesAsJson(got), want);
      ASSERT_EQ(got.frequent_itemsets.size(),
                baseline.frequent_itemsets.size());
      for (size_t i = 0; i < baseline.frequent_itemsets.size(); ++i) {
        EXPECT_EQ(got.frequent_itemsets[i].count,
                  baseline.frequent_itemsets[i].count)
            << "itemset " << i;
      }
      if (workers > 1) {
        EXPECT_EQ(got.stats.dist.num_workers, workers);
        EXPECT_EQ(got.stats.dist.workers_respawned, 0u);
        // Every mined pass exchanged real bytes with the shards.
        ASSERT_FALSE(got.stats.dist.passes.empty());
        for (const DistPassStats& pass : got.stats.dist.passes) {
          EXPECT_GT(pass.bytes_sent, 0u) << "pass k=" << pass.k;
          EXPECT_GT(pass.bytes_received, 0u) << "pass k=" << pass.k;
        }
      } else {
        // workers=1 short-circuits to the in-process path.
        EXPECT_EQ(got.stats.dist.num_workers, 0u);
      }
    }
  }
}

TEST(DistMinerTest, FinancialMatrixByteIdentical) {
  ExpectMatrixMatchesBaseline(FinancialCorpus());
}

TEST(DistMinerTest, TaxonomyMatrixByteIdentical) {
  ExpectMatrixMatchesBaseline(TaxonomyCorpus());
}

TEST(DistMinerTest, MissingValuesMatrixByteIdentical) {
  ExpectMatrixMatchesBaseline(MissingValuesCorpus());
}

// More workers than blocks: the pool clamps to one worker per block rather
// than forking idle processes, and the rules still match.
TEST(DistMinerTest, WorkerCountClampsToBlockCount) {
  const DistCorpus& corpus = MissingValuesCorpus();
  const MiningResult baseline = MustMineStreamed(corpus, 1);
  const MiningResult got =
      MustMineDistributed(corpus, /*workers=*/64, /*threads=*/1);
  EXPECT_EQ(RulesAsJson(got), RulesAsJson(baseline));
  EXPECT_EQ(got.stats.dist.num_workers, corpus.num_blocks);
}

// The pass-2 exchange ships the implicit-C2 flag, not materialized pairs:
// the request for k=2 must be orders of magnitude smaller than the counts
// coming back. The same run then pins the handshake's byte accounting
// against a TCP run over the same shards.
TEST(DistMinerTest, ImplicitPairRequestsStaySmall) {
  const MiningResult got =
      MustMineDistributed(FinancialCorpus(), /*workers=*/2, /*threads=*/1);
  const DistPassStats* pass2 = nullptr;
  for (const DistPassStats& pass : got.stats.dist.passes) {
    if (pass.k == 2) pass2 = &pass;
  }
  ASSERT_NE(pass2, nullptr);
  EXPECT_LT(pass2->bytes_sent, 1024u);
  EXPECT_GT(pass2->bytes_received, pass2->bytes_sent * 10);

  // Forked workers open with the same Hello/HelloAck handshake as TCP
  // sessions: each worker's total carries its handshake on top of its
  // share of the passes (every request is broadcast, so the shares of the
  // sent bytes are equal).
  const size_t workers = got.stats.dist.workers.size();
  ASSERT_EQ(workers, 2u);
  const ExchangeBytes fork = SumExchangeBytes(got.stats.dist);
  const uint64_t hello =
      HelloFrameBytes(FinancialCorpus().options.inject_faults_spec);
  for (const DistWorkerStats& worker : got.stats.dist.workers) {
    EXPECT_EQ(worker.bytes_sent, fork.pass_sent / workers + hello)
        << "worker " << worker.worker_id;
  }
  EXPECT_EQ(fork.worker_received - fork.pass_received,
            workers * HelloAckFrameBytes());

  // The same shards over TCP move the same bytes, pass by pass and per
  // worker: the handshake is the one bootstrap, whatever the transport.
  // Heartbeats are off so a slow host cannot add liveness frames.
  std::vector<std::unique_ptr<WorkerServer>> servers;
  MinerOptions options = FinancialCorpus().options;
  options.dist_heartbeat_ms = 0;
  for (size_t i = 0; i < workers; ++i) {
    WorkerServerOptions server_options;
    server_options.qbt_path = FinancialCorpus().qbt_path;
    auto server = WorkerServer::Start(server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    options.worker_endpoints.push_back(
        "127.0.0.1:" + std::to_string((*server)->port()));
    servers.push_back(std::move(server).value());
  }
  auto tcp = MineDistributedQbt(FinancialCorpus().qbt_path, options);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  ASSERT_EQ(tcp->stats.dist.passes.size(), got.stats.dist.passes.size());
  for (size_t p = 0; p < got.stats.dist.passes.size(); ++p) {
    const DistPassStats& f = got.stats.dist.passes[p];
    const DistPassStats& t = tcp->stats.dist.passes[p];
    EXPECT_EQ(t.k, f.k);
    EXPECT_EQ(t.bytes_sent, f.bytes_sent) << "pass k=" << f.k;
    EXPECT_EQ(t.bytes_received, f.bytes_received) << "pass k=" << f.k;
  }
  ASSERT_EQ(tcp->stats.dist.workers.size(), workers);
  for (size_t w = 0; w < workers; ++w) {
    EXPECT_EQ(tcp->stats.dist.workers[w].bytes_sent,
              got.stats.dist.workers[w].bytes_sent);
    EXPECT_EQ(tcp->stats.dist.workers[w].bytes_received,
              got.stats.dist.workers[w].bytes_received);
  }
}

}  // namespace
}  // namespace qarm
