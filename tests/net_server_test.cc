// RpcServer end-to-end over loopback: responses must be bit-identical to
// direct backend calls (single engine, replicated shards, partitioned
// subgraphs), deadlines must be enforced deterministically through the
// injected clock (an expired request never reaches the engine), admission
// control must shed with kUnavailable while admitted work completes,
// identical in-flight requests must coalesce into one solve, and broken
// byte streams must close their connection without taking the server
// down.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/check.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/wire.h"
#include "serve/engine_router.h"
#include "serve/serving_runtime.h"

namespace d2pr {
namespace {

Result<CsrGraph> TestGraph(uint64_t seed, NodeId nodes = 250,
                           int64_t edges = 750) {
  Rng rng(seed);
  return ErdosRenyi(nodes, edges, &rng);
}

/// Polls `condition` for up to five seconds; the wall-clock bound only
/// fires on deadlock, not as a tolerance for flaky behavior.
bool WaitFor(const std::function<bool()>& condition) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return condition();
}

void ExpectResponsesIdentical(const RankResponse& over_wire,
                              const RankResponse& direct, size_t index) {
  SCOPED_TRACE("request index " + std::to_string(index));
  EXPECT_EQ(over_wire.scores, direct.scores);  // exact, not approximate
  EXPECT_EQ(over_wire.method, direct.method);
  EXPECT_EQ(over_wire.iterations, direct.iterations);
  EXPECT_EQ(over_wire.pushes, direct.pushes);
  EXPECT_EQ(over_wire.converged, direct.converged);
  EXPECT_EQ(over_wire.residual, direct.residual);
  EXPECT_EQ(over_wire.transition_cache_hit, direct.transition_cache_hit);
  EXPECT_EQ(over_wire.transition_store_hit, direct.transition_store_hit);
  EXPECT_EQ(over_wire.warm_start_hit, direct.warm_start_hit);
  EXPECT_EQ(over_wire.served_partitioned, direct.served_partitioned);
}

/// A single-engine server plus everything keeping it alive.
struct RuntimeServer {
  explicit RuntimeServer(uint64_t graph_seed, ServerOptions options = {},
                         size_t num_threads = 2) {
    auto graph = TestGraph(graph_seed);
    D2PR_CHECK(graph.ok()) << graph.status().ToString();
    engine = std::make_shared<D2prEngine>(std::move(graph).value());
    ServingOptions serving_options;
    serving_options.num_threads = num_threads;
    runtime = std::make_unique<ServingRuntime>(engine, serving_options);
    backend = MakeBackend(*runtime);
    server = std::make_unique<RpcServer>(*backend, options);
    const Status started = server->Start();
    D2PR_CHECK(started.ok()) << started.ToString();
  }

  RpcClient NewClient() {
    auto client = RpcClient::Connect("127.0.0.1", server->port());
    D2PR_CHECK(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::shared_ptr<D2prEngine> engine;
  std::unique_ptr<ServingRuntime> runtime;
  std::unique_ptr<RankBackend> backend;
  std::unique_ptr<RpcServer> server;
};

/// The parity workload: all three solvers, personalization, repeats that
/// hit the score cache, and a warm-start chain.
std::vector<RankRequest> ParityWorkload() {
  std::vector<RankRequest> requests;
  RankRequest power;
  power.p = 0.3;
  power.tolerance = 1e-9;
  requests.push_back(power);

  RankRequest seeded = power;
  seeded.seeds = {5, 17, 101};
  requests.push_back(seeded);

  RankRequest gauss;
  gauss.p = 0.8;
  gauss.method = SolverMethod::kGaussSeidel;
  gauss.alpha = 0.9;
  gauss.tolerance = 1e-9;
  requests.push_back(gauss);

  RankRequest push;
  push.p = -0.5;
  push.method = SolverMethod::kForwardPush;
  push.push_epsilon = 1e-6;
  push.seeds = {42};
  requests.push_back(push);

  requests.push_back(power);   // repeat: score-cache hit path
  requests.push_back(seeded);  // repeat with seeds

  for (int i = 0; i < 3; ++i) {
    RankRequest sweep;
    sweep.p = -1.0 + 0.5 * i;
    sweep.tolerance = 1e-9;
    sweep.warm_start_tag = "sweep";
    requests.push_back(sweep);
  }
  return requests;
}

TEST(NetServerTest, LoopbackResponsesIdenticalToDirectRuntime) {
  RuntimeServer served(/*graph_seed=*/7);
  // The reference runs on its own engine over an identically-generated
  // graph, so both sides start cold and see the same request sequence.
  auto reference_graph = TestGraph(7);
  ASSERT_TRUE(reference_graph.ok());
  auto reference_engine =
      std::make_shared<D2prEngine>(std::move(reference_graph).value());
  ServingOptions serving_options;
  serving_options.num_threads = 2;
  ServingRuntime reference(reference_engine, serving_options);

  RpcClient client = served.NewClient();
  const std::vector<RankRequest> workload = ParityWorkload();
  for (size_t i = 0; i < workload.size(); ++i) {
    auto over_wire = client.Rank(workload[i]);
    auto direct = reference.Rank(workload[i]);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ExpectResponsesIdentical(over_wire.value(), direct.value(), i);
  }
}

TEST(NetServerTest, LoopbackResponsesIdenticalToDirectShardedRouter) {
  RouterOptions router_options;
  router_options.num_shards = 3;
  router_options.worker_threads = 2;

  auto graph = TestGraph(11);
  ASSERT_TRUE(graph.ok());
  EngineRouter router(std::move(graph).value(), router_options);
  auto backend = MakeBackend(router);
  RpcServer server(*backend);
  ASSERT_TRUE(server.Start().ok());

  auto reference_graph = TestGraph(11);
  ASSERT_TRUE(reference_graph.ok());
  EngineRouter reference(std::move(reference_graph).value(), router_options);

  auto client = RpcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  const std::vector<RankRequest> workload = ParityWorkload();
  for (size_t i = 0; i < workload.size(); ++i) {
    auto over_wire = client->Rank(workload[i]);
    auto direct = reference.Rank(workload[i]);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ExpectResponsesIdentical(over_wire.value(), direct.value(), i);
  }
}

TEST(NetServerTest, LoopbackResponsesIdenticalToDirectPartitionedSubgraph) {
  RouterOptions router_options;
  router_options.num_shards = 2;
  router_options.policy = RoutingPolicy::kPartitionedSubgraph;
  router_options.worker_threads = 2;

  auto graph = TestGraph(13);
  ASSERT_TRUE(graph.ok());
  EngineRouter router(std::move(graph).value(), router_options);
  auto backend = MakeBackend(router);
  RpcServer server(*backend);
  ASSERT_TRUE(server.Start().ok());

  auto reference_graph = TestGraph(13);
  ASSERT_TRUE(reference_graph.ok());
  EngineRouter reference(std::move(reference_graph).value(), router_options);

  auto client = RpcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // Partitioned-subgraph mode serves power and Gauss-Seidel only (no
  // push, no warm starts); both must agree with a direct block solve.
  std::vector<RankRequest> workload;
  RankRequest power;
  power.p = 0.4;
  power.tolerance = 1e-10;
  workload.push_back(power);
  RankRequest seeded = power;
  seeded.seeds = {3, 99};
  workload.push_back(seeded);
  RankRequest gauss;
  gauss.p = 0.9;
  gauss.method = SolverMethod::kGaussSeidel;
  gauss.tolerance = 1e-10;
  workload.push_back(gauss);
  for (size_t i = 0; i < workload.size(); ++i) {
    auto over_wire = client->Rank(workload[i]);
    auto direct = reference.Rank(workload[i]);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_TRUE(over_wire->served_partitioned);
    ExpectResponsesIdentical(over_wire.value(), direct.value(), i);
  }
}

TEST(NetServerTest, InfoReportsBackendShape) {
  RuntimeServer served(/*graph_seed=*/3, ServerOptions{},
                       /*num_threads=*/4);
  RpcClient client = served.NewClient();
  auto info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->num_nodes,
            static_cast<uint64_t>(served.engine->graph().num_nodes()));
  EXPECT_EQ(info->num_arcs,
            static_cast<uint64_t>(served.engine->graph().num_arcs()));
  EXPECT_EQ(info->num_shards, 1u);
  EXPECT_EQ(info->num_threads, 4u);
}

TEST(NetServerTest, SolverErrorsCrossTheWireVerbatim) {
  RuntimeServer served(/*graph_seed=*/5);
  RpcClient client = served.NewClient();

  RankRequest bad;
  bad.alpha = 1.5;  // out of [0, 1)
  auto over_wire = client.Rank(bad);
  auto direct = served.runtime->Rank(bad);
  ASSERT_FALSE(over_wire.ok());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(over_wire.status().code(), direct.status().code());
  EXPECT_EQ(over_wire.status().message(), direct.status().message());

  // An application error is not a protocol error: the same connection
  // serves the next request.
  RankRequest good;
  good.p = 0.5;
  EXPECT_TRUE(client.Rank(good).ok());
  EXPECT_EQ(served.server->stats().protocol_errors.load(), 0);
}

TEST(NetServerTest, ExpiredDeadlineNeverReachesTheEngine) {
  // Stepping clock: read i returns i * 60. Stamp reads 60, so a 50 ms
  // deadline is absolute 110; the pre-solve gate reads 120 and must
  // reject without the engine ever seeing the request.
  auto ticks = std::make_shared<std::atomic<int64_t>>(0);
  ServerOptions options;
  options.clock_ms = [ticks] { return ticks->fetch_add(60) + 60; };
  RuntimeServer served(/*graph_seed=*/5, options);
  RpcClient client = served.NewClient();

  RankRequest request;
  request.p = 0.5;
  auto response = client.Rank(request, /*deadline_ms=*/50);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served.engine->stats().requests.load(), 0);
  EXPECT_EQ(served.server->stats().deadline_expired_presolve.load(), 1);
  EXPECT_EQ(served.server->stats().deadline_expired_delivery.load(), 0);
}

TEST(NetServerTest, DeadlineExpiringAfterSolveIsCaughtAtDelivery) {
  // Read i returns i * 30: stamp 30 (deadline 80), gate 60 (admitted, the
  // solve runs), delivery 90 (too late — the response is replaced).
  auto ticks = std::make_shared<std::atomic<int64_t>>(0);
  ServerOptions options;
  options.clock_ms = [ticks] { return ticks->fetch_add(30) + 30; };
  RuntimeServer served(/*graph_seed=*/5, options);
  RpcClient client = served.NewClient();

  RankRequest request;
  request.p = 0.5;
  auto response = client.Rank(request, /*deadline_ms=*/50);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
  EXPECT_EQ(served.server->stats().deadline_expired_presolve.load(), 0);
  EXPECT_EQ(served.server->stats().deadline_expired_delivery.load(), 1);
}

TEST(NetServerTest, UndeadlinedRequestsNeverReadTheClock) {
  auto reads = std::make_shared<std::atomic<int64_t>>(0);
  ServerOptions options;
  options.clock_ms = [reads] { return reads->fetch_add(1); };
  RuntimeServer served(/*graph_seed=*/5, options);
  RpcClient client = served.NewClient();

  RankRequest request;
  request.p = 0.5;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Rank(request).ok());
  }
  EXPECT_EQ(reads->load(), 0);

  // And a deadlined request costs exactly the three documented reads:
  // stamp, pre-solve gate, delivery.
  ASSERT_TRUE(client.Rank(request, /*deadline_ms=*/1'000'000).ok());
  EXPECT_EQ(reads->load(), 3);
}

TEST(NetServerTest, SaturationShedsUnavailableWhileAdmittedWorkCompletes) {
  ServerOptions options;
  options.max_queue_depth = 1;
  options.coalesce = false;
  RuntimeServer served(/*graph_seed=*/5, options, /*num_threads=*/1);

  // Park the only worker so backend queue depth is fully test-controlled.
  std::latch release(1);
  served.runtime->pool().Submit([&release] { release.wait(); });
  ASSERT_TRUE(WaitFor(
      [&] { return served.runtime->pool().busy_workers() == 1; }));

  // First request is admitted (queue depth 0 < 1) and queues behind the
  // parked worker.
  RpcClient admitted_client = served.NewClient();
  std::thread admitted_thread([&admitted_client] {
    RankRequest request;
    request.p = 0.25;
    auto response = admitted_client.Rank(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });
  ASSERT_TRUE(
      WaitFor([&] { return served.runtime->pool().queue_depth() == 1; }));

  // Second request arrives at the bound and must be shed — as a
  // kUnavailable frame, distinguishable at the framing layer, carrying a
  // kUnavailable status.
  RpcClient shed_client = served.NewClient();
  RankRequest other;
  other.p = 0.75;
  WireRankRequest wire;
  wire.request = other;
  const std::vector<uint8_t> frame = EncodeFrame(
      FrameType::kRankRequest, /*request_id=*/77, EncodeRankRequest(wire))
      .value();
  ASSERT_TRUE(shed_client.SendRaw(frame.data(), frame.size()).ok());
  auto reply = shed_client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kUnavailable);
  EXPECT_EQ(reply->request_id, 77u);
  Status shed_status;
  ASSERT_TRUE(DecodeStatusPayload(reply->payload, &shed_status).ok());
  EXPECT_EQ(shed_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(served.server->stats().shed_unavailable.load(), 1);

  // The shed never touched the pool; the admitted request completes once
  // the worker frees up.
  release.count_down();
  admitted_thread.join();
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
}

TEST(NetServerTest, IdenticalInflightRequestsCoalesceIntoOneSolve) {
  RuntimeServer served(/*graph_seed=*/5, ServerOptions{}, /*num_threads=*/1);

  std::latch release(1);
  served.runtime->pool().Submit([&release] { release.wait(); });
  ASSERT_TRUE(WaitFor(
      [&] { return served.runtime->pool().busy_workers() == 1; }));

  RankRequest request;
  request.p = 0.6;
  request.seeds = {9};

  RpcClient leader_client = served.NewClient();
  Result<RankResponse> leader_response = Status::Internal("unset");
  std::thread leader_thread([&] {
    leader_response = leader_client.Rank(request);
  });
  // The leader's solve is queued (worker parked) before the joiner sends
  // the identical request, so the join is deterministic.
  ASSERT_TRUE(
      WaitFor([&] { return served.runtime->pool().queue_depth() == 1; }));

  RpcClient joiner_client = served.NewClient();
  Result<RankResponse> joiner_response = Status::Internal("unset");
  std::thread joiner_thread([&] {
    joiner_response = joiner_client.Rank(request);
  });
  ASSERT_TRUE(WaitFor(
      [&] { return served.server->stats().coalesce_joins.load() == 1; }));

  release.count_down();
  leader_thread.join();
  joiner_thread.join();
  ASSERT_TRUE(leader_response.ok()) << leader_response.status().ToString();
  ASSERT_TRUE(joiner_response.ok()) << joiner_response.status().ToString();
  ExpectResponsesIdentical(joiner_response.value(), leader_response.value(),
                           0);
  // One solve served both waiters.
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
  EXPECT_EQ(served.server->stats().requests_received.load(), 2);
}

TEST(NetServerTest, GarbageBytesCloseTheConnectionNotTheServer) {
  RuntimeServer served(/*graph_seed=*/5);
  {
    RpcClient garbage_client = served.NewClient();
    std::vector<uint8_t> garbage(kFrameHeaderBytes, 0xff);
    ASSERT_TRUE(
        garbage_client.SendRaw(garbage.data(), garbage.size()).ok());
    // The server drops the connection; the read surfaces the close.
    EXPECT_FALSE(garbage_client.ReadFrame().ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return served.server->stats().protocol_errors.load() >= 1; }));

  // The server is unharmed: a fresh connection serves normally.
  RpcClient client = served.NewClient();
  RankRequest request;
  request.p = 0.5;
  EXPECT_TRUE(client.Rank(request).ok());
}

TEST(NetServerTest, TruncatedHeaderAtDisconnectCountsAsProtocolError) {
  RuntimeServer served(/*graph_seed=*/5);
  {
    RpcClient client = served.NewClient();
    const uint8_t partial[5] = {1, 2, 3, 4, 5};
    ASSERT_TRUE(client.SendRaw(partial, sizeof(partial)).ok());
    // Client destructor closes the socket mid-header.
  }
  EXPECT_TRUE(WaitFor(
      [&] { return served.server->stats().protocol_errors.load() == 1; }));
}

TEST(NetServerTest, UndecodablePayloadGetsStatusReplyAndConnectionLives) {
  RuntimeServer served(/*graph_seed=*/5);
  RpcClient client = served.NewClient();

  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe};
  const std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kRankRequest, /*request_id=*/31, junk).value();
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kStatus);
  EXPECT_EQ(reply->request_id, 31u);
  Status decoded;
  ASSERT_TRUE(DecodeStatusPayload(reply->payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(served.server->stats().decode_errors.load(), 1);
  EXPECT_EQ(served.server->stats().protocol_errors.load(), 0);

  // Same connection, next request: still served.
  RankRequest request;
  request.p = 0.5;
  EXPECT_TRUE(client.Rank(request).ok());
}

/// Answers every request inline with `num_scores` uniform scores.
class FixedSizeBackend final : public RankBackend {
 public:
  void RankAsync(RankRequest request,
                 std::function<void(Result<RankResponse>)> done,
                 std::function<Status()> gate) override {
    if (gate) {
      if (Status s = gate(); !s.ok()) {
        done(s);
        return;
      }
    }
    const size_t n = request.p > 0.5 ? kHuge : kSmall;
    RankResponse response;
    response.scores.assign(n, 1.0 / static_cast<double>(n));
    response.converged = true;
    done(std::move(response));
  }
  int64_t queue_depth() override { return 0; }
  ServerInfo info() override { return {}; }

  /// One score more than the largest response a frame can carry.
  static constexpr size_t kHuge = 8388609;
  static constexpr size_t kSmall = 10;
};

TEST(NetServerTest, OversizeResponseGetsStatusAndServerKeepsServing) {
  FixedSizeBackend backend;
  RpcServer server(backend, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = RpcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  RankRequest huge;
  huge.p = 1.0;
  auto rejected = client->Rank(huge);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange)
      << rejected.status().ToString();

  // Same connection, same server: the next request is served.
  RankRequest small;
  small.p = 0.0;
  auto served = client->Rank(small);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->scores.size(), FixedSizeBackend::kSmall);
  server.Stop();
}

TEST(NetServerTest, ServerBoundFrameTypeFromClientIsAProtocolError) {
  RuntimeServer served(/*graph_seed=*/5);
  RpcClient client = served.NewClient();
  const std::vector<uint8_t> frame = EncodeFrame(
      FrameType::kRankResponse, /*request_id=*/1,
      EncodeRankResponse(RankResponse{}))
      .value();
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  EXPECT_FALSE(client.ReadFrame().ok());
  EXPECT_TRUE(WaitFor(
      [&] { return served.server->stats().protocol_errors.load() == 1; }));
}

TEST(NetServerTest, LoadGeneratorRunsCleanAgainstLoopbackServer) {
  RuntimeServer served(/*graph_seed=*/17);
  LoadGenOptions options;
  options.port = served.server->port();
  options.connections = 2;
  options.requests_per_connection = 20;
  options.zipf_s = 1.2;
  options.global_fraction = 0.25;
  options.seed = 99;
  options.base.tolerance = 1e-6;  // keep the suite fast
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->attempted, 40u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->ok + report->unavailable + report->deadline_exceeded,
            report->attempted);
  EXPECT_GE(report->p99_us, report->p50_us);
  EXPECT_EQ(served.server->stats().protocol_errors.load(), 0);
  // Served and offered throughput agree on a clean run (every attempt
  // was served), and both reconstruct their counts from elapsed time.
  EXPECT_EQ(report->ok, report->attempted);
  EXPECT_NEAR(report->requests_per_s * report->elapsed_s,
              static_cast<double>(report->ok), 1e-6);
  EXPECT_NEAR(report->attempted_per_s * report->elapsed_s,
              static_cast<double>(report->attempted), 1e-6);
}

TEST(NetServerTest, LoadGenReportsOkOnlyThroughputAndLatencyWhenSaturated) {
  // max_queue_depth = 0 sheds every rank request at the door
  // (queue_depth() >= 0 always holds), a deterministic stand-in for a
  // fully saturated backend: each round-trip is a microsecond-scale
  // admission reject, nothing is ever served. The old report divided
  // *attempted* by elapsed and sampled every round-trip, so this exact
  // scenario reported thousands of requests per second at microsecond
  // percentiles while serving nothing; ok-only accounting reports zero.
  ServerOptions server_options;
  server_options.max_queue_depth = 0;
  server_options.coalesce = false;
  RuntimeServer served(/*graph_seed=*/17, server_options);

  LoadGenOptions options;
  options.port = served.server->port();
  options.connections = 2;
  options.requests_per_connection = 15;
  options.zipf_s = 1.2;
  options.seed = 7;
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The offered side stays fully visible...
  EXPECT_EQ(report->attempted, 30u);
  EXPECT_EQ(report->unavailable, 30u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->attempted_per_s, 0.0);
  // ...while the served side truthfully reports nothing was served.
  EXPECT_EQ(report->ok, 0u);
  EXPECT_EQ(report->requests_per_s, 0.0);
  EXPECT_EQ(report->p50_us, 0.0);
  EXPECT_EQ(report->p99_us, 0.0);
  EXPECT_EQ(served.server->stats().shed_unavailable.load(), 30);
}

TEST(NetServerTest, StopDrainsAdmittedRequestsBeforeExiting) {
  RuntimeServer served(/*graph_seed=*/5, ServerOptions{}, /*num_threads=*/1);

  std::latch release(1);
  served.runtime->pool().Submit([&release] { release.wait(); });
  ASSERT_TRUE(WaitFor(
      [&] { return served.runtime->pool().busy_workers() == 1; }));

  RpcClient client = served.NewClient();
  Result<RankResponse> response = Status::Internal("unset");
  std::thread requester([&] {
    RankRequest request;
    request.p = 0.5;
    response = client.Rank(request);
  });
  ASSERT_TRUE(
      WaitFor([&] { return served.runtime->pool().queue_depth() == 1; }));

  // Stop() must wait for the admitted solve, not abandon it: release the
  // worker from another thread while Stop() is draining.
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.count_down();
  });
  served.server->Stop();
  releaser.join();
  requester.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(served.engine->stats().requests.load(), 1);
}

}  // namespace
}  // namespace d2pr
