#include "dist/coordinator.h"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "dist/framing.h"
#include "dist/handshake.h"

namespace qarm {
namespace {

Status SendOn(Transport& transport, DistMessageType type,
              const std::string& payload, uint64_t* bytes_sent) {
  return SendFrame(transport, static_cast<uint32_t>(type), payload,
                   bytes_sent);
}

}  // namespace

Result<std::unique_ptr<DistWorkerPool>> DistWorkerPool::Start(
    const DistWorkerConfig& base, const std::vector<IndexRange>& shards,
    const QbtFileSource& file, const DistTcpOptions& tcp) {
  if (shards.empty()) {
    return Status::InvalidArgument("worker pool needs at least one shard");
  }
  if (!tcp.endpoints.empty() && shards.size() > tcp.endpoints.size()) {
    return Status::InvalidArgument(StrFormat(
        "%zu shards need at least as many worker endpoints, got %zu",
        shards.size(), tcp.endpoints.size()));
  }
  // No public constructor, so no make_unique.
  std::unique_ptr<DistWorkerPool> pool(new DistWorkerPool());
  pool->tcp_ = tcp;
  pool->num_rows_ = file.num_rows();
  pool->num_blocks_ = file.num_blocks();
  pool->index_crc_ = file.reader().IndexPrefixCrc(file.num_blocks());
  pool->workers_.resize(shards.size());
  for (size_t w = 0; w < shards.size(); ++w) {
    Worker& worker = pool->workers_[w];
    worker.config = base;
    worker.config.worker_id = static_cast<uint32_t>(w);
    worker.config.generation = 0;
    worker.config.block_begin = shards[w].begin;
    worker.config.block_end = shards[w].end;
    worker.endpoint = w;
    worker.stats.worker_id = worker.config.worker_id;
    if (pool->tcp_mode()) {
      worker.config.heartbeat_ms = tcp.heartbeat_ms;
      QARM_RETURN_NOT_OK(pool->ConnectWorker(w));
    } else {
      QARM_RETURN_NOT_OK(pool->Fork(w));
    }
  }
  return pool;
}

DistWorkerPool::~DistWorkerPool() {
  for (Worker& worker : workers_) {
    if (worker.transport != nullptr) {
      // Best-effort clean shutdown; the close right after guarantees the
      // worker sees EOF and ends the session even if the frame never
      // lands.
      const Status sent =
          SendOn(*worker.transport, DistMessageType::kShutdown, "", nullptr);
      (void)sent;
      worker.transport->Close();
      worker.transport.reset();
    }
  }
  for (Worker& worker : workers_) {
    if (worker.pid > 0) {
      int wstatus = 0;
      ::waitpid(worker.pid, &wstatus, 0);
      worker.pid = -1;
    }
  }
}

std::vector<DistWorkerStats> DistWorkerPool::WorkerStats() const {
  std::vector<DistWorkerStats> stats;
  stats.reserve(workers_.size());
  for (const Worker& worker : workers_) {
    stats.push_back(worker.stats);
  }
  return stats;
}

Status DistWorkerPool::Handshake(size_t w, Transport& transport,
                                 const std::string& peer,
                                 bool* channel_failed) {
  Worker& worker = workers_[w];
  const DistWorkerConfig& config = worker.config;
  DistHello hello;
  hello.worker_id = config.worker_id;
  hello.generation = config.generation;
  hello.block_begin = config.block_begin;
  hello.block_end = config.block_end;
  hello.fingerprint = config.fingerprint;
  hello.num_threads = config.options.num_threads;
  hello.counter_memory_budget_bytes =
      config.options.counter_memory_budget_bytes;
  hello.parallel_replication_budget_bytes =
      config.options.parallel_replication_budget_bytes;
  hello.stream_block_rows = config.options.stream_block_rows;
  hello.heartbeat_ms = config.heartbeat_ms;
  hello.io_timeout_ms = tcp_mode() ? tcp_.io_timeout_ms : 0;
  hello.inject_faults_spec = config.options.inject_faults_spec;
  std::string payload;
  EncodeHello(hello, &payload);

  *channel_failed = true;
  QARM_RETURN_NOT_OK(SendOn(transport, DistMessageType::kHello, payload,
                            &worker.stats.bytes_sent));
  QARM_ASSIGN_OR_RETURN(DistFrame reply,
                        RecvFrame(transport, &worker.stats.bytes_received));
  *channel_failed = false;
  if (reply.type == static_cast<uint32_t>(DistMessageType::kError)) {
    return Status::IOError(StrFormat("worker %s rejected the handshake: %s",
                                     peer.c_str(), reply.payload.c_str()));
  }
  if (reply.type != static_cast<uint32_t>(DistMessageType::kHelloAck)) {
    return Status::Internal(
        StrFormat("worker %s answered the Hello with frame type %u",
                  peer.c_str(), reply.type));
  }
  QARM_ASSIGN_OR_RETURN(
      DistHelloAck ack,
      ParseHelloAck(reinterpret_cast<const uint8_t*>(reply.payload.data()),
                    reply.payload.size()));
  if (ack.worker_id != config.worker_id ||
      ack.generation != config.generation ||
      ack.fingerprint != config.fingerprint) {
    return Status::Internal(
        StrFormat("worker %s acked a different assignment", peer.c_str()));
  }
  if (ack.num_rows != num_rows_ || ack.num_blocks != num_blocks_ ||
      ack.index_crc != index_crc_) {
    return Status::InvalidArgument(StrFormat(
        "worker %s serves a different QBT (rows %llu vs %llu, blocks %llu "
        "vs %llu, index crc %08x vs %08x) — every worker must serve the "
        "same table file as the coordinator",
        peer.c_str(), static_cast<unsigned long long>(ack.num_rows),
        static_cast<unsigned long long>(num_rows_),
        static_cast<unsigned long long>(ack.num_blocks),
        static_cast<unsigned long long>(num_blocks_), ack.index_crc,
        index_crc_));
  }
  return Status::OK();
}

Status DistWorkerPool::Fork(size_t w) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError("socketpair failed for worker channel");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError("fork failed for distributed worker");
  }
  if (pid == 0) {
    // Child: drop the coordinator end and every sibling channel, then serve
    // one session: its assignment arrives in the Hello, exactly as over
    // TCP. _Exit skips the coordinator's atexit state — this process must
    // never run coordinator teardown.
    ::close(fds[0]);
    for (const Worker& other : workers_) {
      if (other.transport != nullptr) other.transport->Close();
    }
    std::_Exit(RunDistWorker(fds[1], workers_[w].config.qbt_path));
  }
  ::close(fds[1]);
  Worker& worker = workers_[w];
  worker.transport = std::make_unique<FdTransport>(fds[0]);
  worker.pid = pid;
  bool channel_failed = false;
  return Handshake(w, *worker.transport,
                   StrFormat("process %d", static_cast<int>(pid)),
                   &channel_failed);
}

Status DistWorkerPool::ConnectWorker(size_t w) {
  Worker& worker = workers_[w];
  worker.transport.reset();
  RetryPolicy policy;
  policy.max_attempts = std::max<size_t>(1, tcp_.connect_attempts);
  policy.initial_backoff_ms = tcp_.connect_backoff_ms;
  policy.max_backoff_ms = std::max(tcp_.connect_backoff_ms * 16.0, 1000.0);

  // Walk the endpoint ring from the worker's pin: the same endpoint first
  // (a restarted server replays), then the survivors (redistribution).
  // Channel-level failures move to the next endpoint; a *deterministic*
  // rejection (version mismatch, wrong shard file, a kError reply) fails
  // the run — every endpoint of a misconfigured cluster would say the same.
  Status last = Status::IOError("no worker endpoints configured");
  for (size_t i = 0; i < tcp_.endpoints.size(); ++i) {
    const size_t e = (worker.endpoint + i) % tcp_.endpoints.size();
    const WorkerEndpoint& endpoint = tcp_.endpoints[e];
    int fd = -1;
    const Status connected =
        RetryWithBackoff(policy, e, nullptr, [&]() -> Status {
          Result<int> r =
              TcpConnect(endpoint.host, endpoint.port, tcp_.io_timeout_ms);
          if (!r.ok()) return r.status();
          fd = *r;
          return Status::OK();
        });
    if (!connected.ok()) {
      last = connected;
      continue;
    }
    auto transport = std::make_unique<TcpTransport>(fd, tcp_.io_timeout_ms,
                                                    tcp_.io_timeout_ms);
    bool channel_failed = false;
    const Status shook = Handshake(w, *transport, "endpoint " + endpoint.text,
                                   &channel_failed);
    if (!shook.ok()) {
      if (!channel_failed) return shook;
      last = shook;
      continue;
    }
    worker.endpoint = e;
    worker.stats.endpoint = endpoint.text;
    worker.transport = std::move(transport);
    return Status::OK();
  }
  return Status::IOError(StrFormat(
      "worker %u cannot reach any of the %zu endpoints; last error: %s",
      worker.config.worker_id, tcp_.endpoints.size(),
      last.ToString().c_str()));
}

Status DistWorkerPool::RespawnAndReplay(size_t w,
                                        DistMessageType request_type,
                                        const std::string& request_payload,
                                        DistPassStats* stats) {
  Worker& worker = workers_[w];
  if (worker.transport != nullptr) {
    worker.transport->Close();
    worker.transport.reset();
  }
  if (worker.pid > 0) {
    int wstatus = 0;
    ::waitpid(worker.pid, &wstatus, 0);
    worker.pid = -1;
  }
  if (worker.config.generation >= kMaxRespawnsPerWorker) {
    return Status::IOError(StrFormat(
        "worker %u died %zu times; giving up",
        worker.config.worker_id, static_cast<size_t>(kMaxRespawnsPerWorker)));
  }
  ++worker.config.generation;
  ++workers_respawned_;
  QARM_LOG(Warning) << "distributed worker " << worker.config.worker_id
                    << " died; respawning (generation "
                    << worker.config.generation << ") and replaying blocks ["
                    << worker.config.block_begin << ", "
                    << worker.config.block_end << ")";
  if (tcp_mode()) {
    const size_t previous_endpoint = worker.endpoint;
    QARM_RETURN_NOT_OK(ConnectWorker(w));
    ++worker.stats.reconnects;
    if (worker.endpoint != previous_endpoint) {
      ++worker.stats.redistributed;
      QARM_LOG(Warning) << "worker " << worker.config.worker_id
                        << " redistributed from endpoint "
                        << tcp_.endpoints[previous_endpoint].text << " to "
                        << tcp_.endpoints[worker.endpoint].text;
    }
  } else {
    QARM_RETURN_NOT_OK(Fork(w));
    ++worker.stats.respawns;
  }
  uint64_t sent_bytes = 0;
  // Replay: the catalog (when one was published) restores the worker's only
  // cross-request state, then the in-flight request re-runs its shard scan.
  // A worker that died during the catalog broadcast itself has the catalog
  // AS its in-flight request — send it once, not as both the state replay
  // and the request (the duplicate doubled the replay bytes for nothing).
  if (!catalog_payload_.empty() &&
      request_type != DistMessageType::kCatalog) {
    QARM_RETURN_NOT_OK(SendOn(*worker.transport, DistMessageType::kCatalog,
                              catalog_payload_, &sent_bytes));
    ++worker.stats.frames_retried;
  }
  const Status resent = SendOn(*worker.transport, request_type,
                               request_payload, &sent_bytes);
  ++worker.stats.frames_retried;
  worker.stats.bytes_sent += sent_bytes;
  if (stats != nullptr) stats->bytes_sent += sent_bytes;
  return resent;
}

Status DistWorkerPool::SendToWorker(size_t w, DistMessageType type,
                                    const std::string& payload,
                                    DistPassStats* stats) {
  uint64_t sent_bytes = 0;
  const Status status =
      SendOn(*workers_[w].transport, type, payload, &sent_bytes);
  workers_[w].stats.bytes_sent += sent_bytes;
  if (stats != nullptr) stats->bytes_sent += sent_bytes;
  if (status.ok()) return status;
  // The worker died between requests; the replay resends this request.
  return RespawnAndReplay(w, type, payload, stats);
}

Status DistWorkerPool::ReceiveReply(size_t w, DistMessageType request_type,
                                    const std::string& request_payload,
                                    DistMessageType reply_type,
                                    DistPassStats* stats,
                                    std::string* reply_payload) {
  for (;;) {
    uint64_t received_bytes = 0;
    Result<DistFrame> frame =
        RecvFrame(*workers_[w].transport, &received_bytes);
    workers_[w].stats.bytes_received += received_bytes;
    if (stats != nullptr) stats->bytes_received += received_bytes;
    if (frame.ok()) {
      if (frame->type ==
          static_cast<uint32_t>(DistMessageType::kHeartbeat)) {
        // Liveness, not a reply: the worker is mid-pass. Each heartbeat
        // re-arms the read deadline (RecvFrame bounds per frame).
        ++workers_[w].stats.heartbeats;
        continue;
      }
      if (frame->type == static_cast<uint32_t>(reply_type)) {
        *reply_payload = std::move(frame->payload);
        return Status::OK();
      }
      if (frame->type == static_cast<uint32_t>(DistMessageType::kError)) {
        // A clean worker-side failure is deterministic; do not respawn.
        return Status::IOError(StrFormat("worker %u failed: %s",
                                         workers_[w].config.worker_id,
                                         frame->payload.c_str()));
      }
      return Status::Internal(
          StrFormat("unexpected reply type %u from worker %u", frame->type,
                    workers_[w].config.worker_id));
    }
    if (frame.status().ToString().find("timed out") != std::string::npos) {
      // The per-frame deadline expired with no reply and no heartbeat:
      // the peer is wedged or partitioned, not merely slow.
      ++workers_[w].stats.heartbeat_timeouts;
    }
    // Transport failure: the worker (or its link) is gone. Respawn,
    // replay, and wait for the fresh incarnation's reply (budget enforced
    // inside).
    QARM_RETURN_NOT_OK(
        RespawnAndReplay(w, request_type, request_payload, stats));
  }
}

Result<std::vector<std::string>> DistWorkerPool::Exchange(
    DistMessageType request_type, const std::string& payload,
    DistMessageType reply_type, DistPassStats* stats) {
  Timer timer;
  // Fan the request out to every worker before reading any reply, so the
  // shards count concurrently; then collect strictly in worker order.
  for (size_t w = 0; w < workers_.size(); ++w) {
    QARM_RETURN_NOT_OK(SendToWorker(w, request_type, payload, stats));
  }
  std::vector<std::string> replies(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    QARM_RETURN_NOT_OK(ReceiveReply(w, request_type, payload, reply_type,
                                    stats, &replies[w]));
  }
  if (stats != nullptr) stats->exchange_seconds += timer.ElapsedSeconds();
  return replies;
}

Result<std::vector<ShardSnapshot>> DistWorkerPool::ScanShards(
    DistPassStats* stats) {
  QARM_ASSIGN_OR_RETURN(
      std::vector<std::string> replies,
      Exchange(DistMessageType::kPass1Request, "",
               DistMessageType::kPass1Reply, stats));
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(replies.size());
  for (size_t w = 0; w < replies.size(); ++w) {
    QARM_ASSIGN_OR_RETURN(
        ShardSnapshot snapshot,
        ParseShardSnapshot(
            reinterpret_cast<const uint8_t*>(replies[w].data()),
            replies[w].size()));
    const Worker& worker = workers_[w];
    if (snapshot.worker_id != worker.config.worker_id ||
        snapshot.fingerprint != worker.config.fingerprint ||
        snapshot.block_begin != worker.config.block_begin ||
        snapshot.block_end != worker.config.block_end) {
      return Status::Internal(StrFormat(
          "shard snapshot from worker %u does not match its assignment",
          worker.config.worker_id));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

Status DistWorkerPool::PublishCatalog(std::string payload,
                                      DistPassStats* stats) {
  catalog_payload_ = std::move(payload);
  for (size_t w = 0; w < workers_.size(); ++w) {
    QARM_RETURN_NOT_OK(SendToWorker(w, DistMessageType::kCatalog,
                                    catalog_payload_, stats));
  }
  return Status::OK();
}

Result<std::vector<DistCountReply>> DistWorkerPool::CountShards(
    const DistCountRequest& request, DistPassStats* stats) {
  std::string payload;
  EncodeCountRequest(request, &payload);
  QARM_ASSIGN_OR_RETURN(std::vector<std::string> replies,
                        Exchange(DistMessageType::kCountRequest, payload,
                                 DistMessageType::kCountReply, stats));
  std::vector<DistCountReply> parsed;
  parsed.reserve(replies.size());
  for (size_t w = 0; w < replies.size(); ++w) {
    QARM_ASSIGN_OR_RETURN(
        DistCountReply reply,
        ParseCountReply(reinterpret_cast<const uint8_t*>(replies[w].data()),
                        replies[w].size()));
    if (reply.worker_id != workers_[w].config.worker_id) {
      return Status::Internal("count reply arrived out of worker order");
    }
    parsed.push_back(std::move(reply));
  }
  return parsed;
}

}  // namespace qarm
