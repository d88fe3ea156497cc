#include "dist/worker_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "dist/worker.h"
#include "storage/fault_injection.h"

namespace qarm {

Result<std::unique_ptr<WorkerServer>> WorkerServer::Start(
    const WorkerServerOptions& options) {
  std::unique_ptr<WorkerServer> server(new WorkerServer());
  server->options_ = options;
  QARM_ASSIGN_OR_RETURN(server->file_, QbtFileSource::Open(options.qbt_path));
  QARM_ASSIGN_OR_RETURN(
      server->listen_fd_,
      TcpListen(options.host, options.port, &server->port_));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

WorkerServer::~WorkerServer() { Stop(); }

void WorkerServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Sessions block in recv with no deadline (idle between passes is
    // normal); shutdown makes those reads fail so the threads exit. A
    // session may be closing its own transport (an injected reset) at
    // this moment, which is why Shutdown serializes with Close. The
    // transports are closed by their owning shared_ptrs after the join.
    for (Session& session : sessions_) session.transport->Shutdown();
  }
  // shutdown wakes the blocked accept; the fd is closed only after the
  // join, so the accept loop never reads it mid-close (or a reused fd).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The accept loop spawns no new sessions once stopping_ is set, so the
  // vector is stable after the join above.
  for (Session& session : sessions_) {
    if (session.thread.joinable()) session.thread.join();
  }
  sessions_.clear();
}

void WorkerServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken) — stop serving
    }
    auto transport = std::make_shared<TcpTransport>(
        fd, options_.handshake_timeout_ms, /*read_timeout_ms=*/0);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      transport->Close();
      continue;
    }
    Session session;
    session.transport = transport;
    session.thread = std::thread(
        [this, transport] { ServeConnection(transport); });
    sessions_.push_back(std::move(session));
  }
}

void WorkerServer::ServeConnection(
    const std::shared_ptr<TcpTransport>& transport) {
  // Arm the session's write deadline and (when the spec carries network
  // kinds) the deterministic transport saboteur, both from the Hello and
  // before the HelloAck, whose write is then already covered.
  const SessionArm arm = [&](const DistHello& hello) -> Status {
    if (hello.io_timeout_ms > 0) {
      transport->SetWriteTimeoutMs(hello.io_timeout_ms);
    }
    if (!hello.inject_faults_spec.empty()) {
      QARM_ASSIGN_OR_RETURN(FaultInjectionConfig spec,
                            ParseFaultSpec(hello.inject_faults_spec));
      transport->SetFaults(NetFaultsFromSpec(spec, hello.generation));
    }
    sessions_served_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
  // EOF/reset just ends this session; the server lives on.
  (void)ServeWorkerSession(*transport, *file_, arm);
}

}  // namespace qarm
