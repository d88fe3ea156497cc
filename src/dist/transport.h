// Byte-stream transport between the distributed-mining coordinator and a
// worker. Two implementations:
//
//   * FdTransport — the original fork-mode socketpair (or any pipe-like
//     fd). Blocking, no deadlines: a forked worker shares the coordinator's
//     fate, so a stalled read means a program bug, not a network partition.
//
//   * TcpTransport — a connected TCP socket with per-operation deadlines
//     (SO_RCVTIMEO/SO_SNDTIMEO plus a wall-clock bound, the serve-engine
//     SendAll pattern) so a vanished or partitioned peer surfaces as a
//     bounded IOError, never a hang. The worker side can also carry a
//     deterministic network-fault injector (storage/fault_injection.h
//     kinds conn_reset, stall, partial_write) that sabotages a seeded
//     subset of frame writes, so every reconnect/redistribute path in the
//     coordinator is exercised by reproducible tests.
//
// Reads may return fewer bytes than asked (that is what the byte-split
// framing tests rely on); writes either complete or fail. A clean EOF is
// Status::OK with *bytes_read == 0.
#ifndef QARM_DIST_TRANSPORT_H_
#define QARM_DIST_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/fault_injection.h"

namespace qarm {

class Transport {
 public:
  virtual ~Transport() = default;

  // Reads up to `size` bytes into `data`. On success *bytes_read is the
  // number transferred; 0 means the peer closed the stream. Partial reads
  // are normal.
  virtual Status Read(void* data, size_t size, size_t* bytes_read) = 0;

  // Writes all of [data, data + size) or returns an error.
  virtual Status Write(const void* data, size_t size) = 0;

  // Idempotent. After Close every Read/Write fails.
  virtual void Close() = 0;
};

// Fork-mode transport over a socketpair (or pipe) fd. Owns the fd: Close
// (and the destructor) closes it. send() with MSG_NOSIGNAL keeps a dead
// peer an EPIPE instead of a SIGPIPE; non-socket fds fall back to write().
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override { Close(); }

  Status Read(void* data, size_t size, size_t* bytes_read) override;
  Status Write(const void* data, size_t size) override;
  void Close() override;

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// Deterministic sabotage of a TCP transport's frame writes. Whether write
// ordinal n (0-based, counted per connection) is faulted is a pure function
// of (seed, n), and only incarnations with generation < fails_per_block
// fault at all — a reconnected session (generation bumped) replays clean,
// exactly like the storage injector's kill faults.
struct NetFaultInjection {
  bool enabled = false;
  uint64_t seed = 1;
  double rate = 1.0;
  uint64_t after_writes = 0;   // spare the first N writes (handshake etc.)
  uint64_t generation = 0;     // this session's incarnation
  uint64_t fails = 1;          // generations [0, fails) fault
  uint32_t kinds = 0;          // net subset of FaultKind bits
  double stall_ms = 1000.0;    // how long a kStall write plays dead
};

// Builds the injection config for one worker session from a parsed fault
// spec; disabled when the spec carries no network kinds.
NetFaultInjection NetFaultsFromSpec(const FaultInjectionConfig& config,
                                    uint64_t generation);

// TCP transport with deadlines. `io_timeout_ms` bounds every Write and, when
// `read_timeout_ms` > 0, every Read: the socket timeout arms the kernel
// bound and a wall-clock check stops EINTR/short-transfer loops from
// extending it. read_timeout_ms == 0 leaves reads blocking — the worker
// server waits indefinitely for the next request by design; only the
// coordinator must never hang.
class TcpTransport : public Transport {
 public:
  TcpTransport(int fd, uint64_t io_timeout_ms, uint64_t read_timeout_ms,
               NetFaultInjection faults = NetFaultInjection());
  ~TcpTransport() override { Close(); }

  Status Read(void* data, size_t size, size_t* bytes_read) override;
  Status Write(const void* data, size_t size) override;
  void Close() override;

  // Wakes a Read or Write blocked on this connection, from any thread:
  // shutdown(2) on the socket, which stays open until Close. Close and an
  // injected reset serialize with it, so it never reaches a descriptor
  // number that is already closed (or reused by a later connection).
  void Shutdown();

  // The worker server learns the session's fault config and write deadline
  // from the Hello — which arrives over this very transport — so both are
  // armed after construction. The write ordinal keeps counting from the
  // handshake.
  void SetFaults(NetFaultInjection faults) { faults_ = faults; }
  void SetWriteTimeoutMs(uint64_t io_timeout_ms);

 private:
  // True when write ordinal `ordinal` should be sabotaged, and with what.
  bool PickFault(uint64_t ordinal, FaultKind* kind) const;
  // Sets SO_LINGER(0) and closes, so the peer sees RST, not orderly EOF.
  void AbortConnection();

  // Read and Write use fd_ only on the owning thread, which alone closes
  // it; the mutex orders that close against another thread's Shutdown.
  std::mutex fd_mu_;
  int fd_ = -1;
  uint64_t io_timeout_ms_ = 0;
  uint64_t read_timeout_ms_ = 0;
  NetFaultInjection faults_;
  uint64_t writes_ = 0;
};

// Connects to host:port. One attempt; callers wrap it in RetryWithBackoff
// for discovery/reconnect. `io_timeout_ms` also bounds the connect itself.
Result<int> TcpConnect(const std::string& host, uint16_t port,
                       uint64_t io_timeout_ms);

// Binds and listens on host:port (port 0 = ephemeral); returns the fd.
// `bound_port` receives the actual port.
Result<int> TcpListen(const std::string& host, uint16_t port,
                      uint16_t* bound_port);

}  // namespace qarm

#endif  // QARM_DIST_TRANSPORT_H_
