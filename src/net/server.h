// The network edge: a TCP server that speaks the tcfrag wire protocol
// (net/frame.h, net/protocol.h) and routes decoded requests into a
// QueryService — the daemon behind tools/tcfragd.cc. Connections are
// fully pipelined: a client may keep any number of requests in flight;
// each request is submitted to the service the moment it decodes, so
// concurrent in-flight requests feed the service's micro-batcher exactly
// like concurrent in-process submitters do.
//
// Per connection, two threads:
//   - the READER owns the socket's receive side: it reads frames,
//     decodes, submits to the service, and enqueues the resulting future
//     (tagged with the request id) to the writer. Flow control is the
//     service's own admission backpressure — a full admission queue
//     blocks the reader, which stops draining the socket, which is TCP
//     backpressure to the client.
//   - the WRITER owns the send side: it resolves futures in submission
//     order and writes response frames. A future that resolves to an
//     exception (validation failure, storage failure, service shutdown)
//     becomes a clean kError frame for that request id, with the code
//     docs/PROTOCOL.md §3.5 assigns to the cause.
//
// Error-isolation contract (the hard one — see docs/ARCHITECTURE.md):
//   - a request-level fault (undecodable payload, unknown message type,
//     unsupported query kind, out-of-range endpoint, service shutting
//     down) fails ONLY that request: the connection gets a kError frame
//     echoing the request id and keeps streaming;
//   - a connection-level fault (bad magic, version mismatch, oversized or
//     truncated frame — the framing itself can no longer be trusted)
//     costs the connection: one final kError frame with request id 0,
//     then the socket closes;
//   - nothing a peer sends can take down the daemon or any OTHER
//     connection.
//
// Stop() ordering (the shutdown-drain contract): Stop() half-closes every
// connection's receive side, so readers stop admitting; writers then
// DRAIN — every already-submitted future is resolved by the (still live)
// service and answered on the wire before the socket closes. Stop the
// server BEFORE shutting down the service and no client is ever left
// holding an unanswered pipelined request; in the other order every
// admitted future is still fulfilled by the service's own drain, and
// later arrivals get clean shutdown errors (regression-tested in
// tests/net_daemon_test.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dsa/service.h"
#include "net/socket.h"

namespace tcf {

struct ServerOptions {
  /// Bind address; the daemon binds loopback unless told otherwise.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (read the real one back with port()).
  uint16_t port = 0;
  /// Per-frame payload cap for inbound frames. Client requests are tens
  /// of bytes; anything near this limit is hostile or a framing bug.
  size_t max_payload_bytes = 1 << 20;
};

/// Accounting snapshot, via Server::stats().
struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Connections the server closed on a connection-level protocol fault.
  uint64_t connections_dropped = 0;
  uint64_t requests = 0;      // frames decoded as requests
  uint64_t replies_ok = 0;    // value-bearing responses written
  uint64_t replies_error = 0; // kError frames written
};

/// `service` must outlive the server; Stop() (or the destructor) must run
/// before the service is destroyed, and SHOULD run before the service is
/// shut down so in-flight replies drain onto the wire (see above).
class Server {
 public:
  explicit Server(QueryService* service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop. Fails cleanly (no
  /// threads started) if the port cannot be bound.
  Status Start();

  /// The port actually bound (resolves an ephemeral request). 0 before
  /// Start() succeeds.
  uint16_t port() const { return port_; }

  /// Stops accepting, half-closes all connections, drains in-flight
  /// replies, joins every thread. Idempotent; implied by the destructor.
  void Stop();

  ServerStats stats() const;

 private:
  struct Connection;

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void WriterLoop(Connection* conn);
  /// Joins and discards connections whose threads have finished (called
  /// from the accept loop so a long-lived daemon does not accumulate
  /// dead connection state).
  void ReapFinished();

  QueryService* service_;
  ServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_dropped_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> replies_ok_{0};
  std::atomic<uint64_t> replies_error_{0};
};

}  // namespace tcf
