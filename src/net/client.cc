#include "net/client.h"

#include <utility>

#include "common/string_util.h"

namespace d2pr {

Result<RpcClient> RpcClient::Connect(const std::string& host, uint16_t port) {
  auto socket = Socket::Connect(host, port);
  if (!socket.ok()) return socket.status();
  return RpcClient(std::move(socket).value());
}

Status RpcClient::SendRaw(const void* data, size_t len) {
  return socket_.SendAll(data, len);
}

Result<RpcClient::RawFrame> RpcClient::ReadFrame() {
  std::vector<uint8_t> header(kFrameHeaderBytes);
  D2PR_RETURN_NOT_OK(socket_.RecvExact(header.data(), header.size()));
  auto decoded = DecodeFrameHeader(header);
  if (!decoded.ok()) return decoded.status();
  RawFrame frame;
  frame.type = decoded.value().type;
  frame.request_id = decoded.value().request_id;
  frame.payload.resize(decoded.value().payload_len);
  if (!frame.payload.empty()) {
    D2PR_RETURN_NOT_OK(
        socket_.RecvExact(frame.payload.data(), frame.payload.size()));
  }
  return frame;
}

Result<RpcClient::RawFrame> RpcClient::Call(FrameType type,
                                            std::vector<uint8_t> payload) {
  const uint64_t request_id = next_request_id_++;
  std::vector<uint8_t> frame;
  D2PR_ASSIGN_OR_RETURN(frame, EncodeFrame(type, request_id, payload));
  D2PR_RETURN_NOT_OK(socket_.SendAll(frame.data(), frame.size()));
  auto reply = ReadFrame();
  if (!reply.ok()) return reply.status();
  if (reply.value().request_id != request_id) {
    // With one request in flight the ids must match; a mismatch means
    // this client lost sync with the stream.
    return Status::Internal(
        StrCat("reply for request ", reply.value().request_id,
               " while waiting for ", request_id));
  }
  return reply;
}

Result<RankResponse> RpcClient::Rank(const RankRequest& request,
                                     uint64_t deadline_ms) {
  WireRankRequest wire;
  wire.request = request;
  wire.deadline_ms = deadline_ms;
  auto reply = Call(FrameType::kRankRequest, EncodeRankRequest(wire));
  if (!reply.ok()) return reply.status();
  const RawFrame& frame = reply.value();
  switch (frame.type) {
    case FrameType::kRankResponse:
      return DecodeRankResponse(frame.payload);
    case FrameType::kStatus:
    case FrameType::kUnavailable: {
      Status carried;
      D2PR_RETURN_NOT_OK(DecodeStatusPayload(frame.payload, &carried));
      if (carried.ok()) {
        return Status::Internal("server sent an OK status frame for a rank");
      }
      return carried;
    }
    default:
      return Status::Internal(
          StrCat("unexpected reply frame type ",
                 static_cast<int>(frame.type), " for a rank request"));
  }
}

Result<ServerInfo> RpcClient::Info() {
  auto reply = Call(FrameType::kInfoRequest, {});
  if (!reply.ok()) return reply.status();
  const RawFrame& frame = reply.value();
  if (frame.type != FrameType::kInfoResponse) {
    return Status::Internal(
        StrCat("unexpected reply frame type ",
               static_cast<int>(frame.type), " for an info request"));
  }
  return DecodeServerInfo(frame.payload);
}

}  // namespace d2pr
