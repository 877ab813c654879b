#include "serve/engine_router.h"

#include <algorithm>
#include <exception>
#include <latch>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/teleport.h"
#include "graph/graph_fingerprint.h"

namespace d2pr {

namespace {

ScoreCacheOptions ToScoreCacheOptions(const RouterOptions& options) {
  ScoreCacheOptions cache;
  cache.capacity = options.score_cache_capacity;
  cache.capacity_bytes = options.score_cache_capacity_bytes;
  cache.ttl = options.score_cache_ttl;
  cache.now = options.clock;
  return cache;
}

}  // namespace

EngineRouter::EngineRouter(std::shared_ptr<const CsrGraph> graph,
                           const RouterOptions& options)
    : graph_(std::move(graph)),
      options_(options),
      score_cache_(ToScoreCacheOptions(options)),
      pool_(options.worker_threads > 0
                ? options.worker_threads
                : std::max<size_t>(size_t{1}, options.num_shards)) {
  const size_t num_shards = std::max<size_t>(size_t{1}, options.num_shards);
  if (options.policy == RoutingPolicy::kPartitionedSubgraph) {
    // Edge-partitioned serving: materialize the per-shard subgraphs once;
    // no whole-graph shard engines exist in this mode. Build can only
    // fail on a zero shard count, which the clamp above rules out.
    // The block solvers pull through the in-CSR only; skipping the
    // out-CSR halves the partition's arc memory for pure serving.
    auto partition = GraphPartition::Build(
        *graph_, {.scheme = options.partition_scheme,
                  .num_shards = num_shards,
                  .build_out_csr = false});
    D2PR_CHECK(partition.ok()) << partition.status().ToString();
    partition_ = std::make_unique<const GraphPartition>(
        std::move(partition).value());
    partition_uniform_teleport_ = UniformTeleport(graph_->num_nodes());
    // The shared per-key matrices honor the persistent store exactly as
    // a whole-graph engine does: one fingerprint, load-before-build,
    // write-through spill — the TransitionResolver is literally the same
    // class the engines own.
    const EngineOptions& eo = options_.engine_options;
    TransitionResolverOptions resolver_options;
    resolver_options.cache_capacity = eo.transition_cache_capacity;
    resolver_options.cache_dir = eo.cache_dir;
    resolver_options.persist_mode = eo.persist_mode;
    resolver_options.persist_policy = PersistPolicy::kWriteThrough;
    resolver_options.verify_checksums = eo.persist_verify_checksums;
    resolver_options.precomputed_graph_fingerprint =
        eo.precomputed_graph_fingerprint;
    partition_resolver_ =
        std::make_unique<TransitionResolver>(graph_, resolver_options);
    return;
  }
  // Shards sharing a persistent store all need the same graph
  // fingerprint; hash the edge arrays once here instead of once per
  // shard engine.
  EngineOptions shard_options = options.engine_options;
  if (!shard_options.cache_dir.empty() &&
      shard_options.persist_mode != PersistMode::kOff &&
      shard_options.precomputed_graph_fingerprint == 0) {
    shard_options.precomputed_graph_fingerprint = GraphFingerprint(*graph_);
  }
  shards_.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    shards_.push_back(std::make_unique<D2prEngine>(graph_, shard_options));
  }
}

EngineRouter::EngineRouter(CsrGraph graph, const RouterOptions& options)
    : EngineRouter(std::make_shared<const CsrGraph>(std::move(graph)),
                   options) {}

EngineRouter EngineRouter::Borrowing(const CsrGraph& graph,
                                     const RouterOptions& options) {
  return EngineRouter(
      std::shared_ptr<const CsrGraph>(&graph, [](const CsrGraph*) {}),
      options);
}

size_t EngineRouter::ShardForTag(const std::string& tag) const {
  return std::hash<std::string>{}(tag) % num_shards();
}

bool EngineRouter::AdvanceReferenceLruLocked(const TransitionKey& key) {
  auto it = std::find(reference_lru_.begin(), reference_lru_.end(), key);
  if (it != reference_lru_.end()) {
    reference_lru_.splice(reference_lru_.begin(), reference_lru_, it);
    return true;
  }
  const size_t capacity = options_.engine_options.transition_cache_capacity;
  if (capacity > 0) {
    reference_lru_.push_front(key);
    while (reference_lru_.size() > capacity) reference_lru_.pop_back();
  }
  return false;
}

size_t EngineRouter::RouteLocked(const RankRequest& request,
                                 std::vector<size_t>& planned_load) {
  size_t shard = 0;
  if (!request.warm_start_tag.empty()) {
    // Warm-tag affinity: a trajectory must see its whole request
    // subsequence on one engine, or warm state (and with it the bit-exact
    // scores) would scatter.
    shard = ShardForTag(request.warm_start_tag);
  } else if (options_.strategy == ReplicaStrategy::kRoundRobin) {
    shard = round_robin_next_++ % shards_.size();
  } else {
    int64_t best_load = std::numeric_limits<int64_t>::max();
    for (size_t candidate = 0; candidate < shards_.size(); ++candidate) {
      const int64_t load =
          shards_[candidate]->stats().requests_inflight.load(
              std::memory_order_relaxed) +
          static_cast<int64_t>(planned_load[candidate]);
      if (load < best_load) {
        best_load = load;
        shard = candidate;
      }
    }
  }
  ++planned_load[shard];
  return shard;
}

Result<std::shared_ptr<const TransitionSlices>> EngineRouter::PartitionSlices(
    const TransitionKey& key, bool* cache_hit, bool* store_hit) {
  // Row probabilities depend on global destination metrics (a boundary
  // target's degree is invisible inside one shard), so both SliceBuild
  // paths consume global state: kFromMatrix resolves one shared
  // whole-graph matrix (per-key single-flight over cache, store, build —
  // the same TransitionResolver discipline the whole-graph engines use)
  // and slices it; kSubgraph broadcasts the O(|V|) metric vector instead
  // and never materializes a matrix. Either way the sweeps stream
  // bitwise-identical per-arc probabilities.
  TransitionResolver::Outcome outcome;
  auto resolved = partition_resolver_->ResolveSlices(
      key, *partition_, options_.partition_slice_build, &outcome);
  *cache_hit = outcome.cache_hit;
  *store_hit = outcome.store_hit;
  return resolved;
}

Result<RankResponse> EngineRouter::RankPartitioned(const RankRequest& request,
                                                   bool allow_pool) {
  const bool cacheable =
      score_cache_.enabled() && request.warm_start_tag.empty();
  std::string memo_key;
  if (cacheable) {
    memo_key = ScoreCache::KeyFor(request);
    if (std::optional<RankResponse> memo = score_cache_.Lookup(memo_key)) {
      return std::move(*memo);
    }
  }

  // The shared parameter validation keeps this mode's errors identical
  // to D2prEngine::Rank; the two mode-specific rejections come after it
  // so they cost no O(|E|) build and no cache eviction.
  D2PR_RETURN_NOT_OK(ValidateRankRequestParameters(request));
  if (request.top_k > 0) {
    // The block solve produces one distributed score vector; certified
    // truncation would need the whole vector gathered anyway, and the
    // serving win of top-k (bounded push) does not exist in this mode.
    // Fail cleanly instead of silently serving the full-vector cost.
    return Status::InvalidArgument(
        "top-k is not supported in partitioned-subgraph routing; "
        "use a replicated router");
  }
  if (request.method == SolverMethod::kForwardPush) {
    // Forward push walks the whole forward adjacency from its seeds; it
    // has no block formulation here. Fail cleanly instead of serving a
    // silently different algorithm.
    return Status::InvalidArgument(
        "forward push is not supported in partitioned-subgraph routing; "
        "use power or gauss-seidel, or a replicated router");
  }
  if (request.method == SolverMethod::kGaussSeidel) {
    D2PR_RETURN_NOT_OK(ValidateBlockGaussSeidelPolicy(request.dangling));
  }

  std::vector<double> seeded;
  std::span<const double> teleport;
  if (!request.seeds.empty()) {
    Result<std::vector<double>> built =
        SeededTeleport(graph_->num_nodes(), request.seeds);
    if (!built.ok()) return built.status();
    seeded = std::move(built).value();
    teleport = seeded;
  } else {
    teleport = partition_uniform_teleport_;
  }

  TransitionKey key;
  key.p = request.p;
  key.beta = graph_->weighted() ? request.beta : 0.0;
  key.metric = ResolveMetric(*graph_, request.metric);
  bool cache_hit = false;
  bool store_hit = false;
  Result<std::shared_ptr<const TransitionSlices>> slices =
      PartitionSlices(key, &cache_hit, &store_hit);
  if (!slices.ok()) return slices.status();

  PagerankOptions solver;
  solver.alpha = request.alpha;
  solver.tolerance = request.tolerance;
  solver.max_iterations = request.max_iterations;
  solver.dangling = request.dangling;

  // Shard sweeps write disjoint owned slices, so they fan out across the
  // worker pool when the caller is not itself a pool worker.
  BlockParallelFor parallel;
  if (allow_pool && partition_->num_shards() > 1) {
    parallel = [this](size_t count, const std::function<void(size_t)>& fn) {
      std::latch done(static_cast<ptrdiff_t>(count));
      std::mutex sweep_mu;
      std::exception_ptr sweep_error;
      for (size_t i = 0; i < count; ++i) {
        pool_.Submit([&done, &fn, &sweep_mu, &sweep_error, i] {
          // Count down even if fn throws: a lost tick would deadlock the
          // waiting solve (the pool survives task exceptions by design).
          struct Tick {
            std::latch& latch;
            ~Tick() { latch.count_down(); }
          } tick{done};
          try {
            fn(i);
          } catch (...) {
            // Captured and rethrown on the waiting thread: a sweep that
            // died must fail the solve, not leave its slice silently
            // unwritten under a converged-looking response.
            std::lock_guard<std::mutex> lock(sweep_mu);
            if (!sweep_error) sweep_error = std::current_exception();
          }
        });
      }
      done.wait();
      if (sweep_error) std::rethrow_exception(sweep_error);
    };
  }

  Result<PagerankResult> solved = [&]() -> Result<PagerankResult> {
    try {
      return request.method == SolverMethod::kGaussSeidel
                 ? SolveGaussSeidelPartitioned(**slices, *partition_,
                                               teleport, solver, parallel)
                 : SolvePagerankPartitioned(**slices, *partition_,
                                            teleport, solver, parallel);
    } catch (const std::exception& e) {
      return Status::Internal(
          StrCat("partitioned shard sweep threw: ", e.what()));
    } catch (...) {
      return Status::Internal("partitioned shard sweep threw");
    }
  }();
  if (!solved.ok()) return solved.status();

  RankResponse response;
  response.method = request.method;
  response.iterations = solved->iterations;
  response.converged = solved->converged;
  response.residual = solved->residual;
  response.scores = std::move(solved->scores);
  response.transition_cache_hit = cache_hit;
  response.transition_store_hit = store_hit;
  response.served_partitioned = true;
  // Warm starts are a whole-graph engine construct; tagged requests
  // solve cold here and warm_start_hit stays false.
  if (cacheable) score_cache_.Insert(memo_key, response);
  return response;
}

Result<RankResponse> EngineRouter::Rank(const RankRequest& request) {
  if (partition_) return RankPartitioned(request, /*allow_pool=*/true);
  const bool cacheable =
      score_cache_.enabled() && request.warm_start_tag.empty();
  std::string key;
  std::optional<RankResponse> memo;
  if (cacheable) {
    key = ScoreCache::KeyFor(request);
    memo = score_cache_.Lookup(key);
  }

  // The virtual reference LRU advances only for requests that succeed —
  // memo hits included — because the sequential engine validates before
  // touching its cache: a failing request must not leave a key (or, for
  // NaN parameters, an unmatchable junk key) in the reference trace.
  auto advance_reference = [this, &request] {
    std::lock_guard<std::mutex> lock(route_mu_);
    return AdvanceReferenceLruLocked(shards_[0]->ResolveKey(request));
  };

  if (memo) {
    memo->transition_cache_hit = advance_reference();
    return std::move(*memo);
  }

  size_t shard = 0;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    std::vector<size_t> planned_load(shards_.size(), 0);
    shard = RouteLocked(request, planned_load);
  }

  Result<RankResponse> response = shards_[shard]->Rank(request);
  if (!response.ok()) return response;
  if (cacheable) score_cache_.Insert(key, *response);
  response->transition_cache_hit = advance_reference();
  return response;
}

Result<std::vector<RankResponse>> EngineRouter::RankBatch(
    std::span<const RankRequest> requests) {
  std::vector<RankResponse> responses(requests.size());
  if (requests.empty()) return responses;

  if (partition_) {
    // Partitioned-subgraph batches run in submission order, fail-fast —
    // exactly the sequential single-engine contract. Each solve already
    // parallelizes internally across the shard sweeps, so request-level
    // fan-out would only fight it for the same workers.
    for (size_t i = 0; i < requests.size(); ++i) {
      Result<RankResponse> response =
          RankPartitioned(requests[i], /*allow_pool=*/true);
      if (!response.ok()) return response.status();
      responses[i] = std::move(response).value();
    }
    return responses;
  }

  // Memo probes run before planning so the O(num_nodes) response copies
  // happen outside route_mu_. Duplicate memoizable requests within one
  // batch solve once: only the first occurrence of a cache key is probed
  // and routed, the rest alias to its response afterwards (the batched
  // analogue of ServingRuntime's single-flight).
  constexpr size_t kNoAlias = std::numeric_limits<size_t>::max();
  const bool cache_on = score_cache_.enabled();
  std::vector<char> memoized(requests.size(), 0);
  std::vector<size_t> alias_of(requests.size(), kNoAlias);
  std::vector<std::string> keys(requests.size());
  if (cache_on) {
    std::unordered_map<std::string, size_t> first_key_index;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].warm_start_tag.empty()) continue;
      keys[i] = ScoreCache::KeyFor(requests[i]);
      auto [it, inserted] = first_key_index.try_emplace(keys[i], i);
      if (!inserted) {
        alias_of[i] = it->second;
        continue;
      }
      if (std::optional<RankResponse> memo = score_cache_.Lookup(keys[i])) {
        responses[i] = std::move(*memo);
        memoized[i] = 1;
      }
    }
  }

  // Plan the whole batch atomically: shard assignment happens in
  // submission order. Each chain lists request indices in that order.
  std::vector<std::vector<size_t>> chains(shards_.size());
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    std::vector<size_t> planned_load(shards_.size(), 0);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (memoized[i] || alias_of[i] != kNoAlias) continue;
      chains[RouteLocked(requests[i], planned_load)].push_back(i);
    }
  }

  std::mutex error_mu;
  size_t first_error_index = requests.size();
  Status first_error = Status::OK();

  ptrdiff_t active_chains = 0;
  for (const std::vector<size_t>& chain : chains) {
    if (!chain.empty()) ++active_chains;
  }
  std::latch done(active_chains);
  for (size_t shard = 0; shard < chains.size(); ++shard) {
    if (chains[shard].empty()) continue;
    pool_.Submit([this, requests, &responses, &error_mu, &first_error_index,
                  &first_error, &done, shard,
                  chain = std::move(chains[shard])] {
      // RAII tick: the pool contains task exceptions, so a throw past
      // a plain trailing count_down() would strand done.wait() forever.
      struct Tick {
        std::latch& latch;
        ~Tick() { latch.count_down(); }
      } tick{done};
      for (size_t i : chain) {
        Result<RankResponse> response = shards_[shard]->Rank(requests[i]);
        if (!response.ok()) {
          // Mirror the sequential fail-fast error: of all failing
          // requests, the lowest index wins; the rest of this shard's
          // chain would never have run, so stop it.
          std::lock_guard<std::mutex> lock(error_mu);
          if (i < first_error_index) {
            first_error_index = i;
            first_error = response.status();
          }
          break;
        }
        // Each request index sits in exactly one chain: writes never
        // collide.
        responses[i] = std::move(response).value();
      }
    });
  }
  done.wait();

  // The reference LRU advances for exactly the successful prefix — the
  // requests whose transitions the sequential single-engine reference
  // would have fetched before failing fast (a failing request validates
  // before touching the cache, so it never advances it).
  const size_t replayed =
      first_error_index < requests.size() ? first_error_index
                                          : requests.size();
  std::vector<bool> expected_hits(requests.size(), false);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    for (size_t i = 0; i < replayed; ++i) {
      expected_hits[i] =
          AdvanceReferenceLruLocked(shards_[0]->ResolveKey(requests[i]));
    }
  }
  if (first_error_index < requests.size()) return first_error;

  for (size_t i = 0; i < requests.size(); ++i) {
    if (memoized[i] || alias_of[i] != kNoAlias) continue;
    if (cache_on && requests[i].warm_start_tag.empty()) {
      score_cache_.Insert(keys[i], responses[i]);
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (alias_of[i] != kNoAlias) responses[i] = responses[alias_of[i]];
    responses[i].transition_cache_hit = expected_hits[i];
  }
  return responses;
}

std::future<Result<RankResponse>> EngineRouter::RankAsync(
    RankRequest request) {
  auto promise = std::make_shared<std::promise<Result<RankResponse>>>();
  std::future<Result<RankResponse>> future = promise->get_future();
  // Rank() executes entirely inline (no nested pool submits), so async
  // tasks can never deadlock the fixed-size pool. The partitioned path
  // is told it runs on a worker: its shard sweeps stay inline rather
  // than submitting nested waits that could exhaust the pool.
  pool_.Submit([this, promise, request = std::move(request)] {
    promise->set_value(partition_
                           ? RankPartitioned(request, /*allow_pool=*/false)
                           : Rank(request));
  });
  return future;
}

void EngineRouter::RankAsync(RankRequest request,
                             std::function<void(Result<RankResponse>)> done,
                             std::function<Status()> gate) {
  pool_.Submit([this, request = std::move(request), done = std::move(done),
                gate = std::move(gate)]() mutable {
    if (gate) {
      Status admitted = gate();
      if (!admitted.ok()) {
        done(std::move(admitted));
        return;
      }
    }
    done(partition_ ? RankPartitioned(request, /*allow_pool=*/false)
                    : Rank(request));
  });
}

}  // namespace d2pr
