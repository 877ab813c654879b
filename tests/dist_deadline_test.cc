// SocketShardChannel deadline semantics over a real TCP connection,
// against a scripted fake shard. The contract under test (channel.h):
// deadline_ms > 0 bounds the WHOLE call — send plus every receive,
// INCLUDING stale-reply drains — so a storm of duplicate replies cannot
// extend one call beyond its budget; 0 means no deadline; a negative
// value is an already-spent budget and fails before anything is sent.
//
// The storm test is the regression pin for the bug where the receive
// timeout was armed once with the full budget and every stale frame
// re-granted it: with a duplicate arriving every few tens of
// milliseconds, one Call could outlive its deadline indefinitely.

#include "dist/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace d2pr {
namespace {

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Reads one whole frame off `socket` (header + payload), returning
/// false on any error.
bool ReadFrame(Socket& socket) {
  uint8_t header_bytes[kFrameHeaderBytes];
  if (!socket.RecvExact(header_bytes, sizeof(header_bytes)).ok()) {
    return false;
  }
  auto header = DecodeFrameHeader(
      std::span<const uint8_t>(header_bytes, sizeof(header_bytes)));
  if (!header.ok()) return false;
  std::vector<uint8_t> payload(header->payload_len);
  return payload.empty() ||
         socket.RecvExact(payload.data(), payload.size()).ok();
}

ShardFrame TestRequest(uint64_t request_id) {
  ShardFrame request;
  request.type = FrameType::kSweepRequest;
  request.request_id = request_id;
  request.payload = {1, 2, 3, 4};
  return request;
}

TEST(SocketChannelDeadlineTest, NegativeBudgetFailsWithoutSending) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto channel = SocketShardChannel::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(channel.ok());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.ok());

  const auto start = std::chrono::steady_clock::now();
  auto reply = (*channel)->Call(TestRequest(7), -3);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(reply.status().message().find("already expired"),
            std::string::npos);
  EXPECT_LT(ElapsedMs(start), 1000);  // failed fast, no wait

  // Nothing reached the wire: the server sees silence, not a frame.
  ASSERT_TRUE(server_side->SetRecvTimeout(200).ok());
  uint8_t byte = 0;
  const Status recv = server_side->RecvExact(&byte, 1);
  ASSERT_FALSE(recv.ok());
  EXPECT_EQ(recv.code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketChannelDeadlineTest, SilentServerTimesOutWithinBudget) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto channel = SocketShardChannel::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(channel.ok());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.ok());

  const auto start = std::chrono::steady_clock::now();
  auto reply = (*channel)->Call(TestRequest(7), 150);
  const int64_t elapsed = ElapsedMs(start);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, 100);   // the budget was actually honored...
  EXPECT_LT(elapsed, 2000);  // ...and not wildly overshot
}

TEST(SocketChannelDeadlineTest, StaleRepliesAreDrainedWithinTheBudget) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto channel = SocketShardChannel::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(channel.ok());

  // The server answers with three stale frames (older request ids — the
  // retried-call leftovers a real stream can hold) before the real
  // reply; the call must drain them silently and still succeed.
  std::thread server([&listener] {
    auto socket = listener->Accept();
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(ReadFrame(*socket));
    const std::vector<uint8_t> payload = {9};
    for (uint64_t stale_id = 1; stale_id <= 3; ++stale_id) {
      const auto frame =
          EncodeFrame(FrameType::kStatus, stale_id, payload).value();
      ASSERT_TRUE(socket->SendAll(frame.data(), frame.size()).ok());
    }
    const auto real =
        EncodeFrame(FrameType::kSweepResponse, 50, payload).value();
    ASSERT_TRUE(socket->SendAll(real.data(), real.size()).ok());
  });

  auto reply = (*channel)->Call(TestRequest(50), 5000);
  server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 50u);
  EXPECT_EQ(reply->type, FrameType::kSweepResponse);
}

TEST(SocketChannelDeadlineTest, DuplicateStormCannotExtendTheBudget) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto channel = SocketShardChannel::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(channel.ok());

  // A stale reply every 50 ms, far longer than the 200 ms budget: a
  // channel that re-arms the FULL budget per frame never times out while
  // the storm lasts; one that arms the REMAINING budget returns
  // DeadlineExceeded on schedule.
  constexpr int64_t kBudgetMs = 200;
  std::thread server([&listener] {
    auto socket = listener->Accept();
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(ReadFrame(*socket));
    const std::vector<uint8_t> payload = {9};
    for (uint64_t stale_id = 1; stale_id <= 60; ++stale_id) {
      const auto frame =
          EncodeFrame(FrameType::kStatus, stale_id, payload).value();
      if (!socket->SendAll(frame.data(), frame.size()).ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const auto start = std::chrono::steady_clock::now();
  auto reply = (*channel)->Call(TestRequest(1000), kBudgetMs);
  const int64_t elapsed = ElapsedMs(start);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  // The storm runs ~3 s; a fixed channel is out in ~200 ms. Allow double
  // the budget plus scheduling slack — far below what a per-frame
  // re-arm would burn.
  EXPECT_LT(elapsed, 2 * kBudgetMs + 600);

  // Tear the connection down so the storm loop's SendAll fails and the
  // server thread exits promptly.
  channel->reset();
  server.join();
}

TEST(SocketChannelDeadlineTest, ZeroMeansNoDeadline) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto channel = SocketShardChannel::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(channel.ok());

  // The reply takes ~300 ms; with deadline 0 the call waits it out.
  std::thread server([&listener] {
    auto socket = listener->Accept();
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(ReadFrame(*socket));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::vector<uint8_t> payload = {9};
    const auto frame = EncodeFrame(FrameType::kSweepResponse, 5, payload).value();
    ASSERT_TRUE(socket->SendAll(frame.data(), frame.size()).ok());
  });

  auto reply = (*channel)->Call(TestRequest(5), 0);
  server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 5u);
}

TEST(SocketChannelDeadlineTest, FutureRequestIdIsAProtocolError) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto channel = SocketShardChannel::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(channel.ok());

  std::thread server([&listener] {
    auto socket = listener->Accept();
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(ReadFrame(*socket));
    const std::vector<uint8_t> payload = {9};
    const auto frame = EncodeFrame(FrameType::kStatus, 9999, payload).value();
    ASSERT_TRUE(socket->SendAll(frame.data(), frame.size()).ok());
  });

  auto reply = (*channel)->Call(TestRequest(10), 5000);
  server.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace d2pr
