#include "net/server.h"

#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "serve/engine_router.h"
#include "serve/score_cache.h"
#include "serve/serving_runtime.h"

namespace d2pr {
namespace {

constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

/// A kStatus / kUnavailable frame. Its payload is a code and a message,
/// far below kMaxPayloadBytes, so encoding cannot fail.
std::vector<uint8_t> StatusFrame(FrameType type, uint64_t request_id,
                                 const Status& status) {
  return EncodeFrame(type, request_id, EncodeStatusPayload(status)).value();
}

class RuntimeBackend final : public RankBackend {
 public:
  explicit RuntimeBackend(ServingRuntime& runtime) : runtime_(runtime) {}

  void RankAsync(RankRequest request,
                 std::function<void(Result<RankResponse>)> done,
                 std::function<Status()> gate) override {
    runtime_.RankAsync(std::move(request), std::move(done), std::move(gate));
  }
  int64_t queue_depth() override { return runtime_.pool().queue_depth(); }
  ServerInfo info() override {
    ServerInfo info;
    info.num_nodes = static_cast<uint64_t>(runtime_.engine().graph().num_nodes());
    info.num_arcs = static_cast<uint64_t>(runtime_.engine().graph().num_arcs());
    info.num_shards = 1;
    info.num_threads = runtime_.num_threads();
    return info;
  }

 private:
  ServingRuntime& runtime_;
};

class RouterBackend final : public RankBackend {
 public:
  explicit RouterBackend(EngineRouter& router) : router_(router) {}

  void RankAsync(RankRequest request,
                 std::function<void(Result<RankResponse>)> done,
                 std::function<Status()> gate) override {
    router_.RankAsync(std::move(request), std::move(done), std::move(gate));
  }
  int64_t queue_depth() override { return router_.pool().queue_depth(); }
  ServerInfo info() override {
    ServerInfo info;
    info.num_nodes = static_cast<uint64_t>(router_.graph().num_nodes());
    info.num_arcs = static_cast<uint64_t>(router_.graph().num_arcs());
    info.num_shards = router_.num_shards();
    info.num_threads = router_.num_worker_threads();
    return info;
  }

 private:
  EngineRouter& router_;
};

}  // namespace

std::unique_ptr<RankBackend> MakeBackend(ServingRuntime& runtime) {
  return std::make_unique<RuntimeBackend>(runtime);
}

std::unique_ptr<RankBackend> MakeBackend(EngineRouter& router) {
  return std::make_unique<RouterBackend>(router);
}

void RpcServer::Connection::EnqueueWrite(std::vector<uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(write_mu);
    if (closed) return;  // late completion for a dead connection
    write_queue.push_back(std::move(frame));
  }
  write_cv.notify_one();
}

void RpcServer::Connection::SealWrites() {
  {
    std::lock_guard<std::mutex> lock(write_mu);
    closed = true;
  }
  write_cv.notify_all();
}

void RpcServer::Connection::Close() {
  SealWrites();
  socket.ShutdownBoth();
}

RpcServer::RpcServer(RankBackend& backend, const ServerOptions& options)
    : backend_(backend), options_(options) {}

RpcServer::~RpcServer() { Stop(); }

int64_t RpcServer::NowMs() const {
  if (options_.clock_ms) return options_.clock_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status RpcServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  auto listener = ListenSocket::Listen(options_.port);
  if (!listener.ok()) {
    started_.store(false);
    return listener.status();
  }
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) {
    // A concurrent or repeated Stop: the first caller owns the teardown;
    // wait for it by joining on the accept thread being gone.
    return;
  }
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Stop the intake side first: readers see EOF and exit, so no new
  // requests can enter the backend after the joins below...
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections = connections_;
  }
  for (const auto& connection : connections) {
    connection->socket.ShutdownRead();
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  // ...then let every admitted solve finish and enqueue its reply...
  {
    std::unique_lock<std::mutex> lock(pending_mu_);
    pending_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  // ...then seal the write queues WITHOUT shutting the sockets: the
  // writers flush everything already queued (the replies the pending-
  // drain above guaranteed) and exit on the closed flag. Only after the
  // writers are gone do the sockets shut down — shutting down first
  // would EPIPE the very responses the drain waited for. The cost is
  // that a peer who stopped reading can stall Stop() in a blocked send;
  // the front door serves cooperating clients, not adversarial ones.
  for (const auto& connection : connections) {
    connection->SealWrites();
  }
  for (const auto& connection : connections) {
    if (connection->writer.joinable()) connection->writer.join();
  }
  for (const auto& connection : connections) {
    connection->socket.ShutdownBoth();
  }
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections_.clear();
  }
}

void RpcServer::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      // Shutdown (normal exit) and hard listener errors end the loop the
      // same way; Stop() owns the cleanup either way.
      return;
    }
    if (stopping_.load()) return;
    auto connection = std::make_shared<Connection>();
    connection->socket = std::move(accepted).value();
    ++stats_.connections_accepted;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(connection);
    }
    connection->reader = std::thread([this, connection] {
      ReaderLoop(connection);
    });
    connection->writer = std::thread([this, connection] {
      WriterLoop(connection);
    });
  }
}

void RpcServer::ReaderLoop(const std::shared_ptr<Connection>& connection) {
  std::vector<uint8_t> header(kFrameHeaderBytes);
  for (;;) {
    bool clean_eof = false;
    Status received = connection->socket.RecvExact(header.data(),
                                                   header.size(), &clean_eof);
    if (!received.ok()) {
      // EOF at a frame boundary is a client hanging up normally; EOF or
      // an error mid-header is a truncated frame.
      if (!clean_eof) ++stats_.protocol_errors;
      break;
    }
    auto decoded = DecodeFrameHeader(header);
    if (!decoded.ok()) {
      // The stream is not speaking this protocol; nothing sent after
      // this point could be trusted, so drop the connection.
      ++stats_.protocol_errors;
      break;
    }
    const FrameHeader frame = decoded.value();
    std::vector<uint8_t> payload(frame.payload_len);
    if (frame.payload_len > 0) {
      received = connection->socket.RecvExact(payload.data(), payload.size());
      if (!received.ok()) {
        ++stats_.protocol_errors;
        break;
      }
    }
    switch (frame.type) {
      case FrameType::kInfoRequest: {
        connection->EnqueueWrite(
            EncodeFrame(FrameType::kInfoResponse, frame.request_id,
                        EncodeServerInfo(backend_.info()))
                .value());  // four integers
        ++stats_.responses_sent;
        break;
      }
      case FrameType::kRankRequest: {
        auto request = DecodeRankRequest(payload);
        if (!request.ok()) {
          // The framing is intact — only this request is bad. Tell the
          // client and keep serving the connection.
          ++stats_.decode_errors;
          connection->EnqueueWrite(StatusFrame(
              FrameType::kStatus, frame.request_id, request.status()));
          ++stats_.responses_sent;
          break;
        }
        ++stats_.requests_received;
        HandleRank(connection, frame.request_id,
                   std::move(request).value());
        break;
      }
      default: {
        // Server-to-client frame types arriving at the server mean the
        // peer is confused; treat like any other framing violation.
        ++stats_.protocol_errors;
        connection->Close();
        return;
      }
    }
  }
  // A client hanging up mid-service takes its connection down with it —
  // late completions are swallowed by the closed flag. During Stop() the
  // read side was shut down by the server itself; there Close() must NOT
  // run, or it would drop the admitted responses Stop()'s pending-drain
  // is about to deliver (Stop seals and flushes instead).
  if (!stopping_.load()) connection->Close();
}

void RpcServer::WriterLoop(const std::shared_ptr<Connection>& connection) {
  for (;;) {
    std::vector<uint8_t> frame;
    {
      std::unique_lock<std::mutex> lock(connection->write_mu);
      connection->write_cv.wait(lock, [&] {
        return connection->closed || !connection->write_queue.empty();
      });
      if (connection->write_queue.empty()) return;  // closed and drained
      frame = std::move(connection->write_queue.front());
      connection->write_queue.pop_front();
    }
    Status sent = connection->socket.SendAll(frame.data(), frame.size());
    if (!sent.ok()) {
      connection->Close();
      return;
    }
  }
}

void RpcServer::HandleRank(const std::shared_ptr<Connection>& connection,
                           uint64_t request_id, WireRankRequest wire) {
  const bool deadlined = wire.deadline_ms > 0;
  // Clock read 1 of 3: stamp the absolute deadline at admission.
  const int64_t deadline_ms =
      deadlined ? NowMs() + static_cast<int64_t>(wire.deadline_ms)
                : kNoDeadline;
  Waiter waiter{connection, request_id, deadline_ms};

  // Warm-tagged requests mutate trajectory state per call — two of them
  // are not interchangeable even with identical fields — so only
  // untagged requests coalesce (the same rule ScoreCache applies).
  const bool coalescable =
      options_.coalesce && wire.request.warm_start_tag.empty();
  const std::string key =
      coalescable ? ScoreCache::KeyFor(wire.request) : std::string();
  {
    // One critical section for find + admission + insert: two identical
    // concurrent requests either coalesce or the second is admitted on
    // its own; they can never both slip past the map and double-solve.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (coalescable) {
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        // Joining adds no pool work, so it bypasses admission control.
        it->second.waiters.push_back(std::move(waiter));
        ++stats_.coalesce_joins;
        return;
      }
    }
    if (backend_.queue_depth() >= options_.max_queue_depth) {
      ++stats_.shed_unavailable;
      connection->EnqueueWrite(StatusFrame(
          FrameType::kUnavailable, request_id,
          Status::Unavailable(
              "server overloaded (admission queue full); retry later")));
      ++stats_.responses_sent;
      return;
    }
    if (coalescable) {
      inflight_.emplace(key, Inflight{{waiter}});
    }
  }

  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    ++pending_;
  }
  // Notify UNDER the mutex: Stop() destroys pending_cv_ right after its
  // wait sees pending_ == 0, and it can only evaluate that predicate
  // once this lock is released — which orders the notify_all strictly
  // before any teardown. Notifying outside the lock leaves a window
  // where the last decrement wakes Stop() (spuriously or via another
  // completion) and the cv is destroyed mid-notify.
  auto finish_pending = [this] {
    std::lock_guard<std::mutex> lock(pending_mu_);
    --pending_;
    pending_cv_.notify_all();
  };

  // Clock read 2 of 3 happens inside this gate, on the worker, at the
  // last moment before the solve would start. A coalesced entry is gated
  // by its leader's deadline — joiners with longer deadlines accept the
  // leader's expiry (they joined a solve that died; a retry re-solves).
  std::function<Status()> gate;
  if (deadlined) {
    gate = [this, deadline_ms]() -> Status {
      if (NowMs() > deadline_ms) {
        ++stats_.deadline_expired_presolve;
        return Status::DeadlineExceeded(
            "deadline expired before the solve started");
      }
      return Status::OK();
    };
  }

  if (coalescable) {
    backend_.RankAsync(
        std::move(wire.request),
        [this, key, finish_pending](Result<RankResponse> result) {
          CompleteRank(key, result);
          finish_pending();
        },
        std::move(gate));
  } else {
    backend_.RankAsync(
        std::move(wire.request),
        [this, waiter = std::move(waiter),
         finish_pending](Result<RankResponse> result) {
          DeliverTo(waiter, result);
          finish_pending();
        },
        std::move(gate));
  }
}

void RpcServer::CompleteRank(const std::string& key,
                             const Result<RankResponse>& result) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      waiters = std::move(it->second.waiters);
      inflight_.erase(it);
    }
  }
  for (const Waiter& waiter : waiters) {
    DeliverTo(waiter, result);
  }
}

void RpcServer::DeliverTo(const Waiter& waiter,
                          const Result<RankResponse>& result) {
  // Clock read 3 of 3: a response that can no longer arrive in time is
  // not a response — replace it. A gate rejection stays what it is (the
  // presolve counter already recorded it).
  bool expired_at_delivery = false;
  if (waiter.deadline_ms != kNoDeadline && NowMs() > waiter.deadline_ms) {
    expired_at_delivery =
        result.ok() || result.status().code() != StatusCode::kDeadlineExceeded;
  }
  std::vector<uint8_t> frame;
  if (expired_at_delivery) {
    ++stats_.deadline_expired_delivery;
    frame = StatusFrame(FrameType::kStatus, waiter.request_id,
                        Status::DeadlineExceeded(
                            "deadline expired before response delivery"));
  } else if (result.ok()) {
    // A response too large for one frame is answered with the encoder's
    // status; the connection and the server keep serving.
    Result<std::vector<uint8_t>> encoded =
        EncodeFrame(FrameType::kRankResponse, waiter.request_id,
                    EncodeRankResponse(result.value()));
    frame = encoded.ok() ? std::move(encoded).value()
                         : StatusFrame(FrameType::kStatus, waiter.request_id,
                                       encoded.status());
  } else {
    frame = StatusFrame(FrameType::kStatus, waiter.request_id,
                        result.status());
  }
  waiter.connection->EnqueueWrite(std::move(frame));
  ++stats_.responses_sent;
}

}  // namespace d2pr
