// Seeded randomized property test for the replicated router: over
// random graphs (power-law preferential attachment and bipartite member
// projections, weighted and unweighted) and random request mixes
// (uniform/personalized teleports, mixed p/alpha/beta, power and
// Gauss-Seidel solvers), every routed response must be bit-identical to
// the sequential single-engine reference for any shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "datagen/bipartite_world.h"
#include "datagen/classic_generators.h"
#include "datagen/projection.h"
#include "serve/engine_router.h"

namespace d2pr {
namespace {

constexpr int kRequestsPerCase = 8;

/// Alternates between a power-law (preferential attachment) graph and a
/// bipartite member-member projection; every fourth case is weighted.
Result<CsrGraph> FuzzGraph(int case_id) {
  const auto seed = static_cast<uint64_t>(case_id);
  if (case_id % 2 == 0) {
    Rng rng(1000 + seed);
    return BarabasiAlbert(
        static_cast<NodeId>(120 + (case_id * 13) % 120),
        2 + case_id % 3, &rng);
  }
  BipartiteWorldConfig config;
  config.num_members = static_cast<NodeId>(90 + (case_id * 7) % 60);
  config.num_venues = static_cast<NodeId>(30 + case_id % 20);
  config.venue_size_max = 12;
  config.seed = 2000 + seed;
  auto world = GenerateBipartiteWorld(config);
  if (!world.ok()) return world.status();
  ProjectionConfig projection;
  projection.weighted = case_id % 4 == 1;
  return ProjectMembers(*world, projection);
}

RankRequest RandomRequest(Rng& rng, const CsrGraph& graph) {
  RankRequest request;
  request.p = rng.Uniform(-1.5, 2.0);
  request.alpha = rng.Uniform(0.5, 0.9);
  request.beta = graph.weighted() ? rng.Uniform() : 0.0;
  request.method =
      rng.Bernoulli(0.5) ? SolverMethod::kPower : SolverMethod::kGaussSeidel;
  request.tolerance = 1e-11;
  request.max_iterations = 3000;  // always converge: parity needs it
  if (rng.Bernoulli(0.6)) {
    const auto num_seeds = static_cast<size_t>(rng.UniformInt(1, 5));
    while (request.seeds.size() < num_seeds) {
      const auto seed = static_cast<NodeId>(
          rng.UniformInt(0, graph.num_nodes() - 1));
      if (std::find(request.seeds.begin(), request.seeds.end(), seed) ==
          request.seeds.end()) {
        request.seeds.push_back(seed);
      }
    }
  }
  return request;
}

TEST(RouterFuzzTest, ReplicatedIsBitIdenticalOnRandomMixes) {
  // Untagged requests, so routing freedom is maximal: every response
  // must still be bit-identical to the sequential reference.
  for (int case_id = 0; case_id < 10; ++case_id) {
    SCOPED_TRACE("case " + std::to_string(case_id));
    auto graph = FuzzGraph(case_id);
    ASSERT_TRUE(graph.ok());

    Rng rng(7000 + static_cast<uint64_t>(case_id));
    std::vector<RankRequest> requests;
    for (int i = 0; i < kRequestsPerCase; ++i) {
      requests.push_back(RandomRequest(rng, *graph));
    }

    D2prEngine reference = D2prEngine::Borrowing(*graph);
    auto sequential = reference.RankBatch(requests);
    ASSERT_TRUE(sequential.ok());

    EngineRouter router = EngineRouter::Borrowing(
        *graph, {.num_shards = 1 + static_cast<size_t>(case_id % 4)});
    auto routed = router.RankBatch(requests);
    ASSERT_TRUE(routed.ok());
    ASSERT_EQ(routed->size(), sequential->size());
    for (size_t i = 0; i < routed->size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ((*routed)[i].scores, (*sequential)[i].scores);
      EXPECT_EQ((*routed)[i].iterations, (*sequential)[i].iterations);
      EXPECT_EQ((*routed)[i].transition_cache_hit,
                (*sequential)[i].transition_cache_hit);
    }
  }
}

}  // namespace
}  // namespace d2pr
