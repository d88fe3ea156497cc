// The worker side of distributed mining: a request loop that scans its
// assigned QBT block range and answers the coordinator's framed messages.
// Workers are deliberately dumb — they hold no pass state beyond the
// published item catalog, so a respawned (or reconnected) worker only
// needs the catalog and the current request replayed to continue.
//
// There is one entry path for both worker modes: ServeWorkerSession reads
// the coordinator's Hello (dist/handshake.h), validates it against the
// worker's QBT, answers with a HelloAck, and runs the request loop. A
// forked worker (RunDistWorker) runs it over its socketpair; the TCP worker
// server (dist/worker_server.h) runs it once per accepted connection.
#ifndef QARM_DIST_WORKER_H_
#define QARM_DIST_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "core/options.h"
#include "dist/handshake.h"
#include "dist/transport.h"
#include "storage/record_source.h"

namespace qarm {

// One worker session's assignment and execution knobs. The coordinator
// fills it per worker and sends it as the Hello; the worker rebuilds it
// from the Hello it receives.
struct DistWorkerConfig {
  std::string qbt_path;  // coordinator side: the QBT a forked worker opens
  MinerOptions options;  // num_threads and inject_faults_spec apply here
  uint32_t worker_id = 0;
  // Incarnation number: 0 for the first fork/connect, +1 per respawn or
  // reconnect. Gates the fault injector's kill faults and the transport's
  // network faults (FaultInjectionConfig::generation) so a scheduled fault
  // fires once and the respawned incarnation survives the replay.
  uint64_t generation = 0;
  // Contiguous range of the QBT's blocks this worker counts.
  size_t block_begin = 0;
  size_t block_end = 0;
  // The run fingerprint, stamped into pass-1 shard snapshots so the
  // coordinator can cross-check that a worker is serving the same run.
  uint64_t fingerprint = 0;
  // Liveness heartbeats while a request is being served (ms between
  // kHeartbeat frames); 0 disables them. Fork mode sends 0: a forked
  // worker shares the coordinator's host and its reads carry no deadline.
  uint64_t heartbeat_ms = 0;
};

// Called with each validated Hello before the HelloAck goes out, so a TCP
// session can arm its write deadline and network faults; fork mode passes
// an empty function. A non-OK status is sent back as a kError frame.
using SessionArm = std::function<Status(const DistHello&)>;

// Serves one session over `transport` against `file` (the worker's full view
// of the QBT; the session scopes it to the Hello's block range):
//   RecvFrame (must be kHello) -> ParseHello -> range check -> arm ->
//   kHelloAck (the file's rows, blocks and index CRC) -> request loop.
// The loop runs until a kShutdown frame (OK) or a transport failure (the
// error). A bad Hello gets a best-effort kError frame. Clean per-request
// failures are answered with kError frames and the loop continues. When
// the Hello's fault spec carries storage kinds, the scan runs through a
// FaultInjectingRecordSource at the Hello's generation.
Status ServeWorkerSession(Transport& transport, const QbtFileSource& file,
                          const SessionArm& arm);

// Fork-mode entry: opens `qbt_path` and serves one session over `fd`.
// Called in the forked child, which must pass the return value to _Exit —
// never return into the coordinator's stack. Returns 0 on a clean
// shutdown, 1 when the channel broke or the Hello was rejected.
int RunDistWorker(int fd, const std::string& qbt_path);

}  // namespace qarm

#endif  // QARM_DIST_WORKER_H_
