#include "net/server.h"

#include <stdexcept>
#include <utility>

#include "net/frame.h"
#include "net/protocol.h"
#include "util/channel.h"

namespace tcf {

namespace {

/// What the reader hands the writer: a response to produce, in submission
/// order. Exactly one of the future members is valid, selected by `type`.
struct Reply {
  uint64_t request_id = 0;
  MessageType type = MessageType::kError;
  std::future<Weight> cost;     // kQueryResponse
  std::future<uint64_t> epoch;  // kUpdateResponse
  ErrorResponseMsg error;       // kError
  /// Connection-level fault: write this final frame, then close.
  bool close_after = false;
};

Reply ErrorReply(uint64_t request_id, StatusCode code, std::string message,
                 bool close_after = false) {
  Reply reply;
  reply.request_id = request_id;
  reply.type = MessageType::kError;
  reply.error.code = code;
  reply.error.message = std::move(message);
  reply.close_after = close_after;
  return reply;
}

}  // namespace

struct Server::Connection {
  Socket socket;
  Channel<Reply> replies;
  std::thread reader;
  std::thread writer;
  /// Loops still running; the accept loop reaps at zero (joining is then
  /// a bounded wait for the final returns, never for live work).
  std::atomic<int> live{2};
};

Server::Server(QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  TCF_CHECK(service != nullptr);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  Result<Socket> listener = ListenTcp(options_.bind_address, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Result<uint16_t> port = LocalPort(listener_);
  if (!port.ok()) return port.status();
  port_ = port.value();
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // A concurrent Stop already ran (or is running) the teardown; the
    // accept thread may still be joining connections — wait for it.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake the accept loop out of accept(2), then the readers out of
  // recv(2). Readers see EOF, stop admitting, and close their reply
  // channels; writers drain every in-flight future onto the wire first —
  // that order is the no-hung-socket guarantee.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    conn->socket.ShutdownRead();
  }
  for (auto& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  listener_.Close();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_dropped = connections_dropped_.load();
  s.requests = requests_.load();
  s.replies_ok = replies_ok_.load();
  s.replies_error = replies_error_.load();
  return s;
}

void Server::ReapFinished() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->live.load(std::memory_order_acquire) == 0) {
      connections_[i]->reader.join();
      connections_[i]->writer.join();
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
    } else {
      ++i;
    }
  }
}

void Server::AcceptLoop() {
  for (;;) {
    Result<Socket> accepted = AcceptConnection(listener_);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!accepted.ok()) continue;  // transient accept failure
    ReapFinished();
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(accepted).value();
    Connection* raw = conn.get();
    {
      // Stop() joins this thread BEFORE swapping the list out, so a
      // connection pushed here is always picked up by its teardown.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw]() { ReaderLoop(raw); });
    raw->writer = std::thread([this, raw]() { WriterLoop(raw); });
  }
}

void Server::ReaderLoop(Connection* conn) {
  for (;;) {
    Result<Frame> read = ReadFrame(conn->socket, options_.max_payload_bytes);
    if (!read.ok()) {
      // Clean EOF at a frame boundary: the client finished; anything else
      // is a connection-level fault — one last error frame (request id 0:
      // after header-level garbage no id can be trusted), then close.
      if (read.status().code() != StatusCode::kNotFound) {
        connections_dropped_.fetch_add(1, std::memory_order_relaxed);
        conn->replies.Send(ErrorReply(0, read.status().code(),
                                      read.status().message(),
                                      /*close_after=*/true));
      }
      break;
    }

    const Frame& frame = read.value();
    const uint64_t id = frame.header.request_id;
    requests_.fetch_add(1, std::memory_order_relaxed);

    // Request-level dispatch: every failure from here on fails only this
    // request id; the connection keeps streaming.
    switch (frame.header.type) {
      case MessageType::kPing: {
        Reply reply;
        reply.request_id = id;
        reply.type = MessageType::kPong;
        conn->replies.Send(std::move(reply));
        break;
      }
      case MessageType::kQueryRequest: {
        QueryRequestMsg msg;
        Status decoded = DecodeQueryRequest(frame.payload_view(), &msg);
        if (!decoded.ok()) {
          conn->replies.Send(
              ErrorReply(id, decoded.code(), decoded.message()));
          break;
        }
        if (msg.kind != QueryKind::kCost) {
          conn->replies.Send(ErrorReply(
              id, StatusCode::kInvalidArgument,
              "only cost queries are served over the wire protocol"));
          break;
        }
        if (service_->IsShuttingDown()) {
          conn->replies.Send(ErrorReply(id, StatusCode::kFailedPrecondition,
                                        "service is shutting down"));
          break;
        }
        // Blocking admission: a full admission shard holds the reader
        // here, which is exactly the backpressure the socket should see.
        Reply reply;
        reply.request_id = id;
        reply.type = MessageType::kQueryResponse;
        reply.cost = service_->SubmitShortestPath(msg.from, msg.to);
        conn->replies.Send(std::move(reply));
        break;
      }
      case MessageType::kUpdateRequest: {
        UpdateRequestMsg msg;
        Status decoded = DecodeUpdateRequest(frame.payload_view(), &msg);
        if (!decoded.ok()) {
          conn->replies.Send(
              ErrorReply(id, decoded.code(), decoded.message()));
          break;
        }
        if (service_->IsShuttingDown()) {
          conn->replies.Send(ErrorReply(id, StatusCode::kFailedPrecondition,
                                        "service is shutting down"));
          break;
        }
        Reply reply;
        reply.request_id = id;
        reply.type = MessageType::kUpdateResponse;
        reply.epoch = service_->SubmitUpdate(msg.update);
        conn->replies.Send(std::move(reply));
        break;
      }
      default:
        conn->replies.Send(ErrorReply(
            id, StatusCode::kInvalidArgument,
            std::string("unexpected message type: ") +
                MessageTypeName(frame.header.type)));
        break;
    }
  }
  // No more replies will be produced; the writer drains what is queued
  // (resolving every in-flight future) and then exits.
  conn->replies.Close();
  conn->live.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::WriterLoop(Connection* conn) {
  for (;;) {
    std::optional<Reply> popped = conn->replies.Receive();
    if (!popped.has_value()) break;  // channel closed and drained
    Reply reply = std::move(*popped);

    std::string payload;
    MessageType type = reply.type;
    switch (reply.type) {
      case MessageType::kPong:
        break;
      case MessageType::kQueryResponse:
        try {
          payload = EncodeQueryResponse({reply.cost.get()});
        } catch (const std::out_of_range& e) {
          type = MessageType::kError;
          payload = EncodeErrorResponse({StatusCode::kOutOfRange, e.what()});
        } catch (const std::exception& e) {
          // The service shut down under this request; still a clean,
          // per-request error on the wire — never a silent disconnect.
          type = MessageType::kError;
          payload =
              EncodeErrorResponse({StatusCode::kFailedPrecondition, e.what()});
        }
        break;
      case MessageType::kUpdateResponse:
        try {
          payload = EncodeUpdateResponse({reply.epoch.get()});
        } catch (const std::out_of_range& e) {
          type = MessageType::kError;
          payload = EncodeErrorResponse({StatusCode::kOutOfRange, e.what()});
        } catch (const std::invalid_argument& e) {
          type = MessageType::kError;
          payload =
              EncodeErrorResponse({StatusCode::kInvalidArgument, e.what()});
        } catch (const std::exception& e) {
          type = MessageType::kError;
          payload =
              EncodeErrorResponse({StatusCode::kFailedPrecondition, e.what()});
        }
        break;
      default:
        type = MessageType::kError;
        payload = EncodeErrorResponse(reply.error);
        break;
    }

    if (type == MessageType::kError) {
      replies_error_.fetch_add(1, std::memory_order_relaxed);
    } else {
      replies_ok_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!WriteFrame(conn->socket, type, reply.request_id, payload).ok()) {
      // Peer is gone; wake the reader (it may be blocked in recv) and
      // stop. Remaining queued futures are dropped — there is no wire
      // left to answer on (Channel::Send never blocks, so the reader
      // cannot wedge on the abandoned queue).
      conn->socket.ShutdownRead();
      break;
    }
    if (reply.close_after) {
      conn->socket.ShutdownBoth();
      break;
    }
  }
  conn->live.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace tcf
