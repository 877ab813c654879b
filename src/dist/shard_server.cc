#include "dist/shard_server.h"

#include <span>
#include <utility>
#include <vector>

#include "dist/channel.h"
#include "net/wire.h"

namespace d2pr {

ShardServer::ShardServer(ShardWorker& worker,
                         const ShardServerOptions& options)
    : worker_(worker), options_(options) {}

ShardServer::~ShardServer() { Stop(); }

Status ShardServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("shard server already started");
  }
  D2PR_ASSIGN_OR_RETURN(listener_, ListenSocket::Listen(options_.port));
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ShardServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    connection->socket.ShutdownBoth();
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void ShardServer::AcceptLoop() {
  for (;;) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) return;  // Shutdown() unblocked us
    auto connection = std::make_shared<Connection>();
    connection->socket = std::move(*accepted);
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    const uint64_t session_id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      if (stopping_.load()) {
        connection->socket.ShutdownBoth();
        return;
      }
      connection->thread = std::thread(
          [this, connection, session_id] {
            ServeConnection(connection, session_id);
          });
      connections_.push_back(connection);
    }
  }
}

void ShardServer::ServeConnection(
    const std::shared_ptr<Connection>& connection, uint64_t session_id) {
  for (;;) {
    uint8_t header_bytes[kFrameHeaderBytes];
    bool clean_eof = false;
    if (!connection->socket
             .RecvExact(header_bytes, sizeof(header_bytes), &clean_eof)
             .ok()) {
      break;  // peer gone (clean EOF) or stream dead
    }
    Result<FrameHeader> header = DecodeFrameHeader(
        std::span<const uint8_t>(header_bytes, sizeof(header_bytes)));
    if (!header.ok()) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    ShardFrame request;
    request.type = header->type;
    request.request_id = header->request_id;
    request.payload.resize(header->payload_len);
    if (header->payload_len > 0 &&
        !connection->socket
             .RecvExact(request.payload.data(), request.payload.size())
             .ok()) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    const bool was_handshake = request.type == FrameType::kShardHandshake;
    Result<ShardFrame> reply = worker_.Handle(request, session_id);
    if (!reply.ok()) {
      // A frame this service cannot answer at all: the stream is
      // confused about who it is talking to.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    Result<std::vector<uint8_t>> encoded =
        EncodeFrame(reply->type, reply->request_id, reply->payload);
    if (!encoded.ok()) {
      // A reply too large for one frame: the coordinator gets the
      // encoder's status instead, and the connection keeps serving.
      encoded = EncodeFrame(FrameType::kStatus, reply->request_id,
                            EncodeStatusPayload(encoded.status()));
    }
    const std::vector<uint8_t>& frame = encoded.value();
    if (!connection->socket.SendAll(frame.data(), frame.size()).ok()) {
      break;
    }
    stats_.frames_handled.fetch_add(1, std::memory_order_relaxed);
    if (was_handshake && reply->type == FrameType::kStatus) {
      // Rejected identity declaration: close only this connection (the
      // reply already carries the distinct status code).
      stats_.handshake_rejects.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  worker_.CloseSession(session_id);
  connection->socket.ShutdownBoth();
}

}  // namespace d2pr
