// EngineRouter correctness: replicated-mode RankBatch must be element-
// for-element identical to the sequential single-engine reference for
// every solver and shard count {1, 2, 4, 8} — including after prior
// traffic and with warm-tag chains pinned to one shard — routing must
// spread untagged load deterministically, and errors must surface as the
// sequential fail-fast status.

#include "serve/engine_router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/classic_generators.h"

namespace d2pr {
namespace {

Result<CsrGraph> TestGraph(uint64_t seed, NodeId nodes = 250,
                           int64_t edges = 750) {
  Rng rng(seed);
  return ErdosRenyi(nodes, edges, &rng);
}

void ExpectResponsesIdentical(const RankResponse& routed,
                              const RankResponse& sequential, size_t index) {
  SCOPED_TRACE("request index " + std::to_string(index));
  EXPECT_EQ(routed.scores, sequential.scores);  // exact, not approximate
  EXPECT_EQ(routed.method, sequential.method);
  EXPECT_EQ(routed.iterations, sequential.iterations);
  EXPECT_EQ(routed.pushes, sequential.pushes);
  EXPECT_EQ(routed.converged, sequential.converged);
  EXPECT_EQ(routed.residual, sequential.residual);
  EXPECT_EQ(routed.transition_cache_hit, sequential.transition_cache_hit);
  EXPECT_EQ(routed.warm_start_hit, sequential.warm_start_hit);
}

/// A per-solver serving mix: global and personalized queries over a few
/// repeated parameter points (transition-cache traffic), plus — for the
/// iterative solvers — two warm-start chains that must each stay pinned
/// to one shard to reproduce the sequential trajectory bit-for-bit.
std::vector<RankRequest> SolverWorkload(SolverMethod method,
                                        NodeId num_nodes) {
  std::vector<RankRequest> requests;
  const std::vector<double> p_values = {0.3, 0.8, 1.3};
  for (int i = 0; i < 18; ++i) {
    RankRequest request;
    request.method = method;
    request.p = p_values[static_cast<size_t>(i) % p_values.size()];
    request.tolerance = 1e-9;
    request.push_epsilon = 1e-6;
    if (method == SolverMethod::kForwardPush || i % 3 == 0) {
      request.seeds = {static_cast<NodeId>((i * 7) % num_nodes)};
      if (method != SolverMethod::kForwardPush && i % 6 == 0) {
        request.seeds.push_back(
            static_cast<NodeId>((i * 11 + 1) % num_nodes));
      }
    }
    requests.push_back(std::move(request));
  }
  if (method != SolverMethod::kForwardPush) {
    for (int i = 0; i < 4; ++i) {
      RankRequest sweep;
      sweep.method = method;
      sweep.p = -1.0 + 0.5 * i;
      sweep.tolerance = 1e-9;
      sweep.warm_start_tag = "chain-a";
      requests.push_back(sweep);

      RankRequest tune;
      tune.method = method;
      tune.p = 0.9;
      tune.alpha = 0.6 + 0.08 * i;
      tune.tolerance = 1e-9;
      tune.warm_start_tag = "chain-b";
      requests.push_back(tune);
    }
  }
  return requests;
}

TEST(EngineRouterTest, ReplicatedParityAllSolversAndShardCounts) {
  auto graph = TestGraph(31);
  ASSERT_TRUE(graph.ok());

  // Prior traffic part-populates the transition caches so the batch does
  // not start cold — the diagnostics normalization must account for it.
  std::vector<RankRequest> prior;
  for (double p : {0.3, 1.3}) {
    RankRequest request;
    request.p = p;
    request.tolerance = 1e-9;
    prior.push_back(request);
  }

  for (SolverMethod method :
       {SolverMethod::kPower, SolverMethod::kGaussSeidel,
        SolverMethod::kForwardPush}) {
    const std::vector<RankRequest> requests =
        SolverWorkload(method, graph->num_nodes());
    D2prEngine reference = D2prEngine::Borrowing(*graph);
    ASSERT_TRUE(reference.RankBatch(prior).ok());
    auto sequential = reference.RankBatch(requests);
    ASSERT_TRUE(sequential.ok());

    for (size_t shards : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(SolverMethodName(method)) + ", " +
                   std::to_string(shards) + " shard(s)");
      EngineRouter router =
          EngineRouter::Borrowing(*graph, {.num_shards = shards});
      ASSERT_TRUE(router.RankBatch(prior).ok());
      auto routed = router.RankBatch(requests);
      ASSERT_TRUE(routed.ok());

      ASSERT_EQ(routed->size(), sequential->size());
      for (size_t i = 0; i < routed->size(); ++i) {
        ExpectResponsesIdentical((*routed)[i], (*sequential)[i], i);
      }
    }
  }
}

TEST(EngineRouterTest, WarmChainPinsToOneShard) {
  auto graph = TestGraph(32);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 4});

  std::vector<RankRequest> chain;
  for (int i = 0; i < 5; ++i) {
    RankRequest request;
    request.p = -1.0 + 0.5 * i;
    request.tolerance = 1e-9;
    request.warm_start_tag = "trajectory";
    chain.push_back(request);
  }
  ASSERT_TRUE(router.RankBatch(chain).ok());

  const size_t pinned = router.ShardForTag("trajectory");
  for (size_t s = 0; s < router.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    if (s == pinned) {
      EXPECT_EQ(router.shard(s).stats().requests, 5);
      // Every request after the first warm-starts from its predecessor.
      EXPECT_EQ(router.shard(s).stats().warm_start_hits, 4);
    } else {
      EXPECT_EQ(router.shard(s).stats().requests, 0);
    }
  }
}

TEST(EngineRouterTest, RoundRobinSpreadsUntaggedRequestsEvenly) {
  auto graph = TestGraph(33);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 4});

  std::vector<RankRequest> requests;
  for (int i = 0; i < 16; ++i) {
    RankRequest request;
    request.p = -2.0 + 0.25 * i;
    request.tolerance = 1e-8;
    requests.push_back(request);
  }
  ASSERT_TRUE(router.RankBatch(requests).ok());
  for (size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.shard(s).stats().requests, 4) << "shard " << s;
  }
}

TEST(EngineRouterTest, LeastLoadedBalancesFromIdle) {
  auto graph = TestGraph(34);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(
      *graph,
      {.num_shards = 4, .strategy = ReplicaStrategy::kLeastLoaded});

  std::vector<RankRequest> requests;
  for (int i = 0; i < 16; ++i) {
    RankRequest request;
    request.p = -2.0 + 0.25 * i;
    request.tolerance = 1e-8;
    requests.push_back(request);
  }
  // From an idle router the inflight gauges are all zero, so the planned
  // assignment is deterministic and exactly balanced.
  ASSERT_TRUE(router.RankBatch(requests).ok());
  for (size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.shard(s).stats().requests, 4) << "shard " << s;
  }
}

TEST(EngineRouterTest, EmptyBatchReturnsEmpty) {
  auto graph = TestGraph(35);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 2});
  auto responses = router.RankBatch({});
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE(responses->empty());
}

TEST(EngineRouterTest, BatchErrorMatchesSequentialFailFastStatus) {
  auto graph = TestGraph(36);
  ASSERT_TRUE(graph.ok());
  std::vector<RankRequest> requests =
      SolverWorkload(SolverMethod::kPower, graph->num_nodes());
  requests[7].alpha = 1.5;  // invalid
  requests[12].p = std::numeric_limits<double>::quiet_NaN();  // also invalid

  D2prEngine reference = D2prEngine::Borrowing(*graph);
  auto sequential = reference.RankBatch(requests);
  ASSERT_FALSE(sequential.ok());

  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 4});
  auto routed = router.RankBatch(requests);
  ASSERT_FALSE(routed.ok());

  // The lowest failing index (7) wins in both paths.
  EXPECT_EQ(routed.status().ToString(), sequential.status().ToString());
}

TEST(EngineRouterTest, RankAsyncAgreesWithRank) {
  auto graph = TestGraph(37);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 2});

  RankRequest request;
  request.p = 0.7;
  request.tolerance = 1e-9;
  auto future = router.RankAsync(request);
  auto async_response = future.get();
  ASSERT_TRUE(async_response.ok());

  auto sync_response = router.Rank(request);
  ASSERT_TRUE(sync_response.ok());
  EXPECT_EQ(async_response->scores, sync_response->scores);

  RankRequest invalid = request;
  invalid.alpha = -0.5;
  auto failed = router.RankAsync(invalid).get();
  EXPECT_FALSE(failed.ok());
}

TEST(EngineRouterTest, FailedRequestsDoNotAdvanceReferenceDiagnostics) {
  auto graph = TestGraph(42);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(*graph, {.num_shards = 2});

  // The engine validates before touching its transition cache, so a
  // failing request must not leave its key in the router's reference
  // replay either — the next valid query at the same point is still the
  // first build.
  RankRequest invalid;
  invalid.p = 0.7;
  invalid.alpha = 1.5;  // invalid: validation precedes the cache
  ASSERT_FALSE(router.Rank(invalid).ok());
  RankRequest nan_request;
  nan_request.p = std::numeric_limits<double>::quiet_NaN();
  ASSERT_FALSE(router.Rank(nan_request).ok());

  RankRequest valid;
  valid.p = 0.7;
  valid.tolerance = 1e-9;
  auto first = router.Rank(valid);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->transition_cache_hit);
  auto second = router.Rank(valid);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->transition_cache_hit);
}

TEST(EngineRouterTest, ColdIdenticalBatchSolvesOncePerDistinctKey) {
  auto graph = TestGraph(43);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(
      *graph, {.num_shards = 4, .score_cache_capacity = 16});

  // 32 copies of one query plus 8 of another in a single cold batch:
  // in-batch dedup must route one solve per distinct key, and every
  // aliased response must equal its solved original.
  RankRequest hot;
  hot.p = 0.6;
  hot.tolerance = 1e-9;
  RankRequest cold;
  cold.p = 1.1;
  cold.tolerance = 1e-9;
  std::vector<RankRequest> batch(32, hot);
  for (int i = 0; i < 8; ++i) batch.push_back(cold);

  auto responses = router.RankBatch(batch);
  ASSERT_TRUE(responses.ok());
  int64_t total_requests = 0;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    total_requests += router.shard(s).stats().requests;
  }
  EXPECT_EQ(total_requests, 2);  // one per distinct key
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ((*responses)[i].scores, (*responses)[0].scores);
  }
  for (size_t i = 32; i < batch.size(); ++i) {
    EXPECT_EQ((*responses)[i].scores, (*responses)[32].scores);
  }
}

TEST(EngineRouterTest, ScoreCacheMemoizesAcrossShards) {
  auto graph = TestGraph(41);
  ASSERT_TRUE(graph.ok());
  EngineRouter router = EngineRouter::Borrowing(
      *graph, {.num_shards = 2, .score_cache_capacity = 16});

  RankRequest request;
  request.p = 0.4;
  request.tolerance = 1e-9;
  auto first = router.Rank(request);
  ASSERT_TRUE(first.ok());
  auto second = router.Rank(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->scores, first->scores);
  // The repeat came from the memo: no shard saw a second request.
  int64_t total_requests = 0;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    total_requests += router.shard(s).stats().requests;
  }
  EXPECT_EQ(total_requests, 1);
  EXPECT_EQ(router.score_cache().stats().hits, 1);
}

}  // namespace
}  // namespace d2pr
