// Coordinator side of distributed mining: owns the worker channels (forked
// child processes over socketpairs, or TCP sessions to `qarm worker`
// servers) and the lockstep request/reply exchanges. Failure model: a
// worker that vanishes (EOF, reset, or a missed read deadline) is given a
// fresh incarnation at generation + 1 — re-forked in fork mode,
// reconnected in TCP mode, redistributing its shard to the next reachable
// endpoint when its own refuses to come back — and replayed: the catalog
// (if already published) plus the in-flight request, under a per-worker
// respawn budget. A worker that *answers* with a kError frame fails the
// run instead, because a respawned worker would deterministically hit the
// same error. Replies are always collected in worker order, so merged
// counts never depend on worker scheduling or which endpoint served a
// shard.
#ifndef QARM_DIST_COORDINATOR_H_
#define QARM_DIST_COORDINATOR_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/miner.h"
#include "dist/messages.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "dist/worker_registry.h"
#include "storage/checkpoint_format.h"

namespace qarm {

// TCP-mode connection parameters. No endpoints means fork mode.
struct DistTcpOptions {
  std::vector<WorkerEndpoint> endpoints;
  uint64_t io_timeout_ms = 30000;   // per-frame read/write deadline
  uint64_t heartbeat_ms = 1000;     // worker liveness interval (< timeout)
  size_t connect_attempts = 10;     // per endpoint, with backoff
  double connect_backoff_ms = 50.0;
};

class DistWorkerPool {
 public:
  // One worker survives this many respawns (or reconnects) before the pool
  // declares it permanently dead and fails the run. Each respawn raises
  // the worker's generation, so any kill-fault schedule with
  // fails_per_block <= this bound is ridden out.
  static constexpr size_t kMaxRespawnsPerWorker = 5;

  // Brings up one worker per shard (worker w counts blocks
  // [shards[w].begin, shards[w].end)); `base` supplies everything except
  // worker_id/generation/block range. With no tcp.endpoints, each worker is
  // a forked child that opens base.qbt_path; this must be called while the
  // calling process has no live threads (thread pools in this codebase are
  // ephemeral, so any point between phases qualifies). Otherwise worker w
  // is a TCP session pinned to tcp.endpoints[w] (shards.size() <=
  // endpoints.size(); spare endpoints stay idle as redistribution targets).
  // Either way every worker opens with the versioned Hello/HelloAck
  // handshake (dist/handshake.h), and its HelloAck must describe the same
  // table as `file`, the coordinator's own view of the QBT.
  static Result<std::unique_ptr<DistWorkerPool>> Start(
      const DistWorkerConfig& base, const std::vector<IndexRange>& shards,
      const QbtFileSource& file, const DistTcpOptions& tcp);

  // Shuts down every worker (fork mode reaps the children; TCP mode just
  // closes the sessions — the servers keep serving other runs).
  ~DistWorkerPool();

  DistWorkerPool(const DistWorkerPool&) = delete;
  DistWorkerPool& operator=(const DistWorkerPool&) = delete;

  size_t num_workers() const { return workers_.size(); }
  size_t workers_respawned() const { return workers_respawned_; }
  // Per-worker robustness counters, endpoint attribution included.
  std::vector<DistWorkerStats> WorkerStats() const;

  // Pass 1: every worker scans its shard's value counts; returns the shard
  // snapshots in worker order, cross-checked against the expected
  // fingerprint and block ranges.
  Result<std::vector<ShardSnapshot>> ScanShards(DistPassStats* stats);

  // Broadcasts the item catalog (QCP catalog encoding) and retains the
  // payload so a respawned worker can be replayed into the same state.
  Status PublishCatalog(std::string payload, DistPassStats* stats);

  // One counting pass: broadcasts `request`, returns the per-shard replies
  // in worker order.
  Result<std::vector<DistCountReply>> CountShards(
      const DistCountRequest& request, DistPassStats* stats);

 private:
  struct Worker {
    DistWorkerConfig config;
    std::unique_ptr<Transport> transport;
    pid_t pid = -1;       // fork mode only
    size_t endpoint = 0;  // TCP mode: index into tcp_.endpoints
    DistWorkerStats stats;
  };

  DistWorkerPool() = default;

  bool tcp_mode() const { return !tcp_.endpoints.empty(); }

  // Sends worker w's Hello over `transport` and checks the HelloAck against
  // its assignment and the coordinator's view of the QBT. `peer` names the
  // worker in diagnostics. *channel_failed tells a dead channel (worth
  // another endpoint) from a deterministic rejection (fatal).
  Status Handshake(size_t w, Transport& transport, const std::string& peer,
                   bool* channel_failed);
  // Fork mode: fork the child, then handshake over its socketpair.
  Status Fork(size_t w);
  // TCP: connect + handshake, walking the endpoint ring from the worker's
  // current pin — so a reconnect tries the same endpoint first (replay)
  // and falls over to survivors (redistribution) when it stays down.
  Status ConnectWorker(size_t w);
  // Kills the bookkeeping for a vanished worker, brings up generation + 1
  // (refork or reconnect), and replays the catalog plus the in-flight
  // request.
  Status RespawnAndReplay(size_t w, DistMessageType request_type,
                          const std::string& request_payload,
                          DistPassStats* stats);
  Status SendToWorker(size_t w, DistMessageType type,
                      const std::string& payload, DistPassStats* stats);
  // Reads worker w's reply to the in-flight request, skipping heartbeat
  // frames and respawning/replaying through transport failures until the
  // budget runs out.
  Status ReceiveReply(size_t w, DistMessageType request_type,
                      const std::string& request_payload,
                      DistMessageType reply_type, DistPassStats* stats,
                      std::string* reply_payload);
  Result<std::vector<std::string>> Exchange(DistMessageType request_type,
                                            const std::string& payload,
                                            DistMessageType reply_type,
                                            DistPassStats* stats);

  DistTcpOptions tcp_;
  // The coordinator's view of the QBT, cross-checked against every HelloAck
  // so a worker serving a stale or different copy is rejected at handshake
  // time, not discovered as a count mismatch passes later.
  uint64_t num_rows_ = 0;
  uint64_t num_blocks_ = 0;
  uint32_t index_crc_ = 0;
  std::vector<Worker> workers_;
  std::string catalog_payload_;  // retained for respawn replay
  size_t workers_respawned_ = 0;
};

}  // namespace qarm

#endif  // QARM_DIST_COORDINATOR_H_
