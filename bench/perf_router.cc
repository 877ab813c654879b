// Shard-count sweeps for the EngineRouter: what a fleet of engines buys
// over one engine for batch serving traffic under replicated routing.
// Arg(1) of each sweep is the sharded baseline's floor; BM_SingleEngine*
// is the unsharded reference the ISSUE acceptance compares against.
// Future router PRs regress against these QPS numbers.

#include <benchmark/benchmark.h>

#include <vector>

#include "api/engine.h"
#include "common/check.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "serve/engine_router.h"

namespace d2pr {
namespace {

constexpr NodeId kGraphNodes = 20000;
constexpr int kBatchSize = 64;

CsrGraph MakeGraph() {
  Rng rng(42);
  auto graph = BarabasiAlbert(kGraphNodes, 4, &rng);
  D2PR_CHECK(graph.ok());
  return std::move(graph).value();
}

// Per-user personalized push queries: the workload sharding targets.
std::vector<RankRequest> PersonalizedBatch() {
  std::vector<RankRequest> batch;
  for (int i = 0; i < kBatchSize; ++i) {
    RankRequest request;
    request.p = 0.5;
    request.method = SolverMethod::kForwardPush;
    request.push_epsilon = 1e-6;
    request.seeds = {static_cast<NodeId>(i * 17 % kGraphNodes)};
    batch.push_back(std::move(request));
  }
  return batch;
}

// Sequential single-engine reference the shard sweeps compare against.
void BM_SingleEngineBatch(benchmark::State& state) {
  const CsrGraph graph = MakeGraph();
  D2prEngine engine = D2prEngine::Borrowing(graph);
  const std::vector<RankRequest> batch = PersonalizedBatch();
  D2PR_CHECK(engine.RankBatch(batch).ok());  // steady-state transitions

  for (auto _ : state) {
    auto responses = engine.RankBatch(batch);
    benchmark::DoNotOptimize(responses->data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchSize);
}
BENCHMARK(BM_SingleEngineBatch)->UseRealTime()->Unit(benchmark::kMillisecond);

// Replicated round-robin sweep. Arg: shard count. Shards fan the batch's
// independent per-user queries across engines, so throughput should
// climb until cache/lock contention (the thing sharding removes) stops
// being the bottleneck.
void BM_RouterReplicatedBatch(benchmark::State& state) {
  const CsrGraph graph = MakeGraph();
  RouterOptions options;
  options.num_shards = static_cast<size_t>(state.range(0));
  EngineRouter router = EngineRouter::Borrowing(graph, options);
  const std::vector<RankRequest> batch = PersonalizedBatch();
  D2PR_CHECK(router.RankBatch(batch).ok());  // warm every shard's cache

  for (auto _ : state) {
    auto responses = router.RankBatch(batch);
    benchmark::DoNotOptimize(responses->data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchSize);
}
BENCHMARK(BM_RouterReplicatedBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Global power-iteration queries at distinct parameter points: each
// shard holds a slice of the p-grid's transitions, so sharding also
// multiplies effective transition-cache capacity.
void BM_RouterGlobalSweepBatch(benchmark::State& state) {
  const CsrGraph graph = MakeGraph();
  RouterOptions options;
  options.num_shards = static_cast<size_t>(state.range(0));
  EngineRouter router = EngineRouter::Borrowing(graph, options);

  std::vector<RankRequest> batch;
  for (int i = 0; i < 16; ++i) {
    RankRequest request;
    request.p = -2.0 + 0.25 * i;
    request.tolerance = 1e-9;
    batch.push_back(request);
  }
  D2PR_CHECK(router.RankBatch(batch).ok());

  for (auto _ : state) {
    auto responses = router.RankBatch(batch);
    benchmark::DoNotOptimize(responses->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_RouterGlobalSweepBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace d2pr

BENCHMARK_MAIN();
