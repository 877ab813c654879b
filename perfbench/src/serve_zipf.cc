// serve_zipf: personalized top-10 queries (p = 0.5, bounded forward push)
// with Zipf-popular seeds, sent in a closed loop over 2 loopback
// connections to an RpcServer whose ServingRuntime has 2 workers and a
// response memo large enough never to evict. One operation is one
// request; the run repeats whole rounds of the same request sequence,
// each round on a fresh runtime and server (empty memo) over one
// long-lived engine, whose transition is therefore always a cache hit.

#include <atomic>
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common.h"
#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "datagen/distributions.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "reference.h"
#include "serve/serving_runtime.h"
#include "topk/degree_bound.h"
#include "topk/topk_solver.h"

namespace perfbench {

using namespace d2pr;

namespace {

constexpr double kP = 0.5;
// alpha = 0.5 (the low end of the paper's range) and a 1e-5 push floor
// keep a cold query near 5k pushes on the 100k-node graph, so a round of
// 2000 requests takes about a second and a run holds many rounds; at
// alpha = 0.85 and 1e-6 a cold query averages ~700k pushes.
constexpr double kAlpha = 0.5;
constexpr double kEpsilon = 1e-5;
constexpr int kTopK = 10;
constexpr double kZipfS = 1.3;
constexpr size_t kConnections = 2;
constexpr size_t kWorkers = 2;

RankRequest QueryFor(NodeId seed) {
  RankRequest request;
  request.p = kP;
  request.alpha = kAlpha;
  request.method = SolverMethod::kForwardPush;
  request.push_epsilon = kEpsilon;
  request.top_k = kTopK;
  request.seeds = {seed};
  return request;
}

/// Decorates a RankBackend with per-request timings: queue wait (submit
/// to the worker's gate, which runs right before the memo lookup and the
/// solve) and backend time (gate to completion).
class TracingBackend : public RankBackend {
 public:
  explicit TracingBackend(RankBackend& inner) : inner_(inner) {}

  void RankAsync(RankRequest request,
                 std::function<void(Result<RankResponse>)> done,
                 std::function<Status()> gate) override {
    const double submitted = Now();
    auto gated = std::make_shared<double>(submitted);
    inner_.RankAsync(
        std::move(request),
        [this, submitted, gated, done = std::move(done)](Result<RankResponse> r) {
          const double finished = Now();
          {
            std::lock_guard<std::mutex> lock(mu_);
            queue_wait_ms_.push_back((*gated - submitted) * 1e3);
            backend_ms_.push_back((finished - *gated) * 1e3);
          }
          done(std::move(r));
        },
        [gated, gate = std::move(gate)]() -> Status {
          *gated = Now();
          return gate ? gate() : Status::OK();
        });
  }
  int64_t queue_depth() override { return inner_.queue_depth(); }
  ServerInfo info() override { return inner_.info(); }

  std::vector<double> queue_wait_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_wait_ms_;
  }
  std::vector<double> backend_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return backend_ms_;
  }

 private:
  RankBackend& inner_;
  std::mutex mu_;
  std::vector<double> queue_wait_ms_;
  std::vector<double> backend_ms_;
};

/// What one connection saw in one round.
struct ConnectionLog {
  std::vector<double> latency_ms;
  std::vector<std::pair<NodeId, RankResponse>> responses;
  int64_t failed = 0;
  std::string first_error;
};

struct RoundResult {
  bool ran = false;
  double seconds = 0.0;
  std::vector<ConnectionLog> logs;
  ScoreCacheStats memo;
  int64_t coalesce_joins = 0;
};

/// One round: a fresh runtime + server over `engine`, `kConnections`
/// closed-loop clients each sending its share of `sequence`.
/// With `trace`, the server fronts a TracingBackend whose timings are
/// appended to `queue_wait_ms` and `backend_ms`.
RoundResult RunRound(D2prEngine& engine, const std::vector<NodeId>& sequence,
                     bool trace, std::vector<double>* queue_wait_ms,
                     std::vector<double>* backend_ms) {
  RoundResult round;
  ServingOptions serving;
  serving.num_threads = kWorkers;
  serving.score_cache_capacity = sequence.size();  // never evicts
  ServingRuntime runtime = ServingRuntime::Borrowing(engine, serving);
  std::unique_ptr<RankBackend> backend = MakeBackend(runtime);
  TracingBackend tracing(*backend);
  RpcServer server(trace ? static_cast<RankBackend&>(tracing) : *backend);
  if (!server.Start().ok()) return round;

  std::vector<RpcClient> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = RpcClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) return round;
    clients.push_back(std::move(client).value());
  }
  round.logs.resize(kConnections);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnectionLog& log = round.logs[c];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = c; i < sequence.size(); i += kConnections) {
        const double t0 = Now();
        Result<RankResponse> response = clients[c].Rank(QueryFor(sequence[i]));
        const double t1 = Now();
        if (!response.ok()) {
          if (log.failed++ == 0) log.first_error = response.status().ToString();
          continue;
        }
        log.latency_ms.push_back((t1 - t0) * 1e3);
        log.responses.emplace_back(sequence[i], std::move(response).value());
      }
    });
  }
  const double start = Now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  round.seconds = Now() - start;
  server.Stop();
  round.memo = runtime.score_cache().stats();
  round.coalesce_joins = server.stats().coalesce_joins.load();
  if (trace) {
    auto q = tracing.queue_wait_ms();
    auto b = tracing.backend_ms();
    queue_wait_ms->insert(queue_wait_ms->end(), q.begin(), q.end());
    backend_ms->insert(backend_ms->end(), b.begin(), b.end());
  }
  round.ran = true;
  return round;
}

}  // namespace

Outcome RunServeZipf(const Args& args, Report* report) {
  Outcome outcome;
  const NodeId num_nodes = args.small ? 5000 : 100000;
  const size_t round_requests = args.small ? 200 : 2000;

  // --- set-up: graph, engine, request sequence, warm-up ---
  const double gen_start = Now();
  Rng graph_rng(args.seed);
  Result<CsrGraph> generated = BarabasiAlbert(num_nodes, 4, &graph_rng);
  if (!generated.ok()) {
    std::fprintf(stderr, "serve_zipf: %s\n", generated.status().ToString().c_str());
    return outcome;
  }
  const double datagen_s = Now() - gen_start;
  auto graph = std::make_shared<const CsrGraph>(std::move(generated).value());
  D2prEngine engine(graph);

  // Zipf rank k -> node k-1: on a Barabasi-Albert graph the oldest nodes
  // are the hubs, so the most popular seeds are also the costliest pushes.
  Rng zipf_rng(args.seed ^ 0x5eedf00dULL);
  const ZipfSampler zipf(num_nodes, kZipfS);
  std::vector<NodeId> sequence(round_requests);
  for (NodeId& seed : sequence) seed = static_cast<NodeId>(zipf.Sample(&zipf_rng) - 1);

  if (!engine.Rank(QueryFor(sequence[0])).ok()) {
    std::fprintf(stderr, "serve_zipf: warm-up query failed\n");
    return outcome;
  }
  std::vector<double> unused_q, unused_b;
  const std::vector<NodeId> warm(sequence.begin(), sequence.begin() + 50);
  if (!RunRound(engine, warm, false, &unused_q, &unused_b).ran) {
    std::fprintf(stderr, "serve_zipf: warm-up round failed\n");
    return outcome;
  }
  const double setup_s = SinceStart();

  // --- measured loop: whole rounds until the time budget is spent ---
  Checks checks;
  std::map<NodeId, RankResponse> first;  // seed -> first answer seen
  std::vector<double> latency_ms, round_qps, queue_wait_ms, backend_ms;
  int64_t rounds = 0, memo_hits = 0, memo_lookups = 0, joins = 0;
  const EngineStats before = engine.stats();
  const double deadline = Now() + args.seconds;
  do {
    RoundResult round =
        RunRound(engine, sequence, args.trace, &queue_wait_ms, &backend_ms);
    if (!round.ran) {
      std::fprintf(stderr, "serve_zipf: could not start a round\n");
      return outcome;
    }
    ++rounds;
    outcome.attempted += static_cast<int64_t>(sequence.size());
    int64_t ok = 0;
    for (ConnectionLog& log : round.logs) {
      outcome.failed += log.failed;
      if (log.failed > 0) {
        std::fprintf(stderr, "serve_zipf: %lld failed, first: %s\n",
                     static_cast<long long>(log.failed), log.first_error.c_str());
      }
      ok += static_cast<int64_t>(log.latency_ms.size());
      latency_ms.insert(latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
      for (auto& [seed, response] : log.responses) {
        auto [it, inserted] = first.try_emplace(seed, response);
        if (!inserted) {
          // A memo hit or a coalesced join must carry the cold answer.
          checks.Expect(response.top == it->second.top &&
                            response.uncertainty_gap == it->second.uncertainty_gap,
                        "seed " + std::to_string(seed) +
                            ": repeated answer differs from the first");
        }
      }
    }
    round_qps.push_back(static_cast<double>(ok) / round.seconds);
    checks.Expect(round.memo.evictions == 0, "response memo evicted an entry");
    memo_hits += round.memo.hits;
    memo_lookups += round.memo.hits + round.memo.misses;
    joins += round.coalesce_joins;
  } while (Now() < deadline);
  const EngineStats after = engine.stats();
  const double engine_solves =
      static_cast<double>(after.requests.load() - before.requests.load());
  const double pushes =
      static_cast<double>(after.push_operations.load() - before.push_operations.load());
  const double cache_hits = static_cast<double>(after.transition_cache_hits.load() -
                                                before.transition_cache_hits.load());
  const double requests = static_cast<double>(outcome.attempted);
  // Read before the checks below, which hold whole-graph vectors.
  const double peak_rss_mb = SelfPeakRssMb();

  // --- output checks, against the benchmark's own power iteration ---
  int64_t certified = 0;
  for (const auto& [seed, response] : first) {
    checks.Expect(response.truncated && response.top.size() == kTopK,
                  "seed " + std::to_string(seed) + ": not a top-10 answer");
    for (const RankedEntry& entry : response.top) certified += entry.certified;
  }
  // A fixed sample: the 4 lowest ids (the most popular Zipf ranks, and
  // on this graph the hubs with the largest pushes) and 3 more spread
  // over the rest of the distinct seeds.
  std::vector<NodeId> sample;
  for (const auto& [seed, response] : first) {
    if (sample.size() < 4) sample.push_back(seed);
  }
  const size_t distinct = first.size();
  auto it = first.begin();
  for (size_t i = 0; i < distinct; ++i, ++it) {
    if (i >= 4 && (i % (distinct / 4 + 1)) == 0) sample.push_back(it->first);
  }
  const std::vector<double> probs = DecoupledProbs(*graph, kP);
  std::vector<std::vector<double>> exact(sample.size());
  {
    std::vector<std::thread> workers;
    for (size_t s = 0; s < sample.size(); ++s) {
      workers.emplace_back([&, s] {
        std::vector<double> teleport(static_cast<size_t>(num_nodes), 0.0);
        teleport[static_cast<size_t>(sample[s])] = 1.0;
        exact[s] = PowerIterate(*graph, probs, teleport, kAlpha, 1e-15, 400);
      });
      if (workers.size() == 4) {
        for (std::thread& w : workers) w.join();
        workers.clear();
      }
    }
    for (std::thread& w : workers) w.join();
  }
  for (size_t s = 0; s < sample.size(); ++s) {
    const std::string where = "seed " + std::to_string(sample[s]);
    std::vector<double> sorted = exact[s];
    std::nth_element(sorted.begin(), sorted.begin() + (kTopK - 1), sorted.end(),
                     std::greater<double>());
    const double kth = sorted[kTopK - 1];
    for (const RankedEntry& entry : first[sample[s]].top) {
      const double truth = exact[s][static_cast<size_t>(entry.node)];
      checks.Expect(entry.score <= truth + 1e-12,
                    where + ": served score above the exact score at node " +
                        std::to_string(entry.node));
      if (entry.certified) {
        checks.Expect(truth >= kth - 1e-10,
                      where + ": certified node " + std::to_string(entry.node) +
                          " is not in the exact top-10");
      }
    }
  }
  outcome.correct = checks.ok();

  // Frame bytes per request: both directions, headers included.
  double frame_bytes = 0.0, response_bytes = 0.0;
  for (NodeId seed : sequence) {
    WireRankRequest wire;
    wire.request = QueryFor(seed);
    const double down = static_cast<double>(EncodeRankResponse(first[seed]).size() +
                                            kFrameHeaderBytes);
    frame_bytes += static_cast<double>(EncodeRankRequest(wire).size() +
                                       kFrameHeaderBytes) + down;
    response_bytes += down;
  }
  frame_bytes /= static_cast<double>(sequence.size());
  response_bytes /= static_cast<double>(sequence.size());

  const double p50 = Median(latency_ms);
  report->Metric("setup_s", setup_s, "s");
  report->Metric("op_ms", p50, "ms");
  report->Metric("ops_per_s", Median(round_qps), "1/s");
  report->Metric("work_per_op", pushes / engine_solves, "count");
  report->Metric("moved_kb_per_op", frame_bytes / 1024.0, "KB");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");

  report->Metric("datagen.graphs_s", datagen_s, "s");
  report->Metric("api.transition_lookups", engine_solves / requests, "count");
  report->Metric("api.transition_cache_hits", cache_hits / requests, "count");
  report->Metric("topk.pushes_per_query", pushes / engine_solves, "count");
  report->Metric("topk.certified_share",
                 static_cast<double>(certified) / (kTopK * static_cast<double>(distinct)),
                 "share");
  report->Metric("serve.memo_hits", memo_hits / requests, "count");
  report->Metric("serve.memo_lookups", memo_lookups / requests, "count");
  report->Metric("serve.engine_solves", engine_solves / requests, "count");
  report->Metric("serve.coalesce_joins", joins / requests, "count");
  report->Metric("net.response_bytes", response_bytes, "bytes");
  report->Metric("trace.op_ms", p50, "ms");
  if (args.trace) {
    std::vector<double> server_ms(queue_wait_ms.size());
    for (size_t i = 0; i < server_ms.size(); ++i) server_ms[i] = queue_wait_ms[i] + backend_ms[i];
    report->Metric("serve.queue_wait_ms_p50", Median(queue_wait_ms), "ms");
    report->Metric("serve.backend_ms_p50", Median(backend_ms), "ms");
    report->Metric("net.overhead_ms_p50", p50 - Median(server_ms), "ms");

    // The top-k layer alone: the benchmark's own SolveTopK calls on the
    // distinct seeds, with the seed vector built outside the timing.
    const double build_start = Now();
    Result<TransitionMatrix> transition = TransitionMatrix::Build(*graph, {kP, 0.0, DegreeMetric::kAuto});
    const double build_ms = (Now() - build_start) * 1e3;
    if (transition.ok()) {
      report->Metric("core.transition_build_ms", build_ms, "ms");
      const DegreeBoundIndex bounds = DegreeBoundIndex::Build(*graph, *transition);
      TopKOptions options;
      options.k = kTopK;
      options.alpha = kAlpha;
      options.epsilon = kEpsilon;
      std::vector<double> solve_ms;
      for (const auto& [seed, response] : first) {
        std::vector<double> teleport(static_cast<size_t>(num_nodes), 0.0);
        teleport[static_cast<size_t>(seed)] = 1.0;
        const double t0 = Now();
        Result<TopKResult> solved = SolveTopK(*graph, *transition, bounds, teleport, options);
        if (solved.ok()) solve_ms.push_back((Now() - t0) * 1e3);
      }
      report->Metric("topk.solve_ms_p50", Quantile(solve_ms, 0.5), "ms");
      report->Metric("topk.solve_ms_p90", Quantile(solve_ms, 0.9), "ms");
    }
  }
  std::fprintf(stderr,
               "serve_zipf: %lld rounds of %zu requests, %zu distinct seeds, "
               "p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, %.1f req/s\n",
               static_cast<long long>(rounds), sequence.size(), distinct, p50,
               Quantile(latency_ms, 0.9), Quantile(latency_ms, 0.99),
               Median(round_qps));
  return outcome;
}

}  // namespace perfbench
