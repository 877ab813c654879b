// paper_sweep: the paper's own evaluation loop (Figures 2-4) at the repro
// scale. One operation is one pass of the 17-point p grid over all eight
// registry graphs: per (graph, p) a transition resolve that always misses
// (every p is a new key), a whole-graph power solve and a Spearman
// correlation with the graph's node significance.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/transition_resolver.h"
#include "common.h"
#include "core/pagerank.h"
#include "core/sweeps.h"
#include "core/teleport.h"
#include "datagen/dataset_registry.h"
#include "eval/experiment.h"
#include "reference.h"
#include "stats/correlation.h"

namespace perfbench {

using namespace d2pr;

namespace {

constexpr double kFlatTolerance = 0.02;
constexpr double kGroupCheckScale = 4.0;

struct Point {
  std::vector<double> scores;
  int iterations = 0;
  bool converged = false;
  double rho = 0.0;
};

/// One cold p-grid pass over one graph, through the same calls the timed
/// loop makes; the Spearman correlation at each point, or fewer entries
/// when a point fails.
std::vector<double> CorrelationSeries(const DataGraph& data,
                                      const std::vector<double>& grid,
                                      const PagerankOptions& solver) {
  const CsrGraph& graph = data.unweighted;
  TransitionResolver resolver(
      std::shared_ptr<const CsrGraph>(&graph, [](const CsrGraph*) {}), {});
  const std::vector<double> teleport = UniformTeleport(graph.num_nodes());
  std::vector<double> rhos;
  for (double p : grid) {
    TransitionResolver::Outcome ignored;
    auto transition = resolver.Resolve(
        {p, 0.0, ResolveMetric(graph, DegreeMetric::kAuto)}, &ignored);
    if (!transition.ok()) break;
    auto solved = SolvePagerank(graph, **transition, teleport, solver);
    if (!solved.ok() || !solved->converged) break;
    rhos.push_back(SpearmanCorrelation(solved->scores, data.significance));
  }
  return rhos;
}

/// The paper-group rule of tests/integration_regimes_test.cc, on the best
/// point (highest correlation, ties to the smallest |p|): group A peaks at
/// p > 0 and beats p = 0 by more than 0.02, group B curves are flat around
/// 0 (paper Fig. 3) so no point beats p = 0 by more than 0.02, and group C
/// peaks at p <= 0.
void CheckGroup(const DataGraph& data, const std::vector<double>& grid,
                const std::vector<double>& rhos, Checks* checks) {
  size_t best = 0, zero = 0;
  for (size_t k = 0; k < grid.size(); ++k) {
    if (rhos[k] > rhos[best] ||
        (rhos[k] == rhos[best] && std::fabs(grid[k]) < std::fabs(grid[best]))) {
      best = k;
    }
    if (std::fabs(grid[k]) < 1e-12) zero = k;
  }
  const double p = grid[best];
  const double gain = rhos[best] - rhos[zero];
  const std::string what = data.name + " at 4x: best p = " + std::to_string(p) +
                           ", gain over p = 0 " + std::to_string(gain);
  switch (data.expected_group) {
    case ApplicationGroup::kPenalizationHelps:
      checks->Expect(p > 0 && gain > kFlatTolerance, what + " (group A)");
      break;
    case ApplicationGroup::kConventionalIdeal:
      checks->Expect(gain <= kFlatTolerance, what + " (group B)");
      break;
    case ApplicationGroup::kBoostingHelps:
      checks->Expect(p <= 0, what + " (group C)");
      break;
  }
}

}  // namespace

Outcome RunPaperSweep(const Args& args, Report* report) {
  Outcome outcome;
  RegistryOptions registry;
  registry.scale = 1.0;
  registry.seed = args.seed;

  // --- set-up: the eight graphs, then one warm-up point per graph ---
  const double gen_start = Now();
  std::vector<DataGraph> graphs;
  for (PaperGraphId id : AllPaperGraphIds()) {
    Result<DataGraph> graph = MakePaperGraph(id, registry);
    if (!graph.ok()) {
      std::fprintf(stderr, "paper_sweep: %s\n", graph.status().ToString().c_str());
      return outcome;
    }
    graphs.push_back(std::move(graph).value());
  }
  const double datagen_s = Now() - gen_start;

  const std::vector<double> grid = PaperPGrid();
  const PagerankOptions solver = ToPagerankOptions(BenchOptions());
  std::vector<std::shared_ptr<const CsrGraph>> shared;
  std::vector<std::vector<double>> teleports;
  for (const DataGraph& data : graphs) {
    shared.emplace_back(&data.unweighted, [](const CsrGraph*) {});
    teleports.push_back(UniformTeleport(data.unweighted.num_nodes()));
    TransitionResolver warm(shared.back(), {});
    TransitionResolver::Outcome ignored;
    auto transition = warm.Resolve(
        {0.0, 0.0, ResolveMetric(data.unweighted, DegreeMetric::kAuto)}, &ignored);
    if (transition.ok()) {
      (void)SolvePagerank(data.unweighted, **transition, teleports.back(), solver);
    }
  }
  const double setup_s = SinceStart();

  // --- measured loop: whole passes until the time budget is spent ---
  const size_t num_graphs = graphs.size();
  std::vector<std::vector<Point>> first(num_graphs);
  std::vector<std::vector<double>> pass_ms(num_graphs);
  Checks checks;
  int64_t passes = 0, iterations_first_pass = 0;
  double moved_bytes_first_pass = 0.0;
  double resolve_s = 0, solve_s = 0, spearman_s = 0, swept_bytes = 0;
  int64_t lookups = 0, hits = 0, sweeps = 0;
  const double deadline = Now() + args.seconds;
  do {
    for (size_t g = 0; g < num_graphs; ++g) {
      const CsrGraph& graph = graphs[g].unweighted;
      const double pass_start = Now();
      TransitionResolver resolver(shared[g], {});
      for (size_t k = 0; k < grid.size(); ++k) {
        ++outcome.attempted;
        const TransitionKey key{grid[k], 0.0,
                                ResolveMetric(graph, DegreeMetric::kAuto)};
        TransitionResolver::Outcome resolved;
        const double t0 = args.trace ? Now() : 0;
        auto transition = resolver.Resolve(key, &resolved);
        const double t1 = args.trace ? Now() : 0;
        if (!transition.ok()) {
          ++outcome.failed;
          continue;
        }
        auto solved = SolvePagerank(graph, **transition, teleports[g], solver);
        const double t2 = args.trace ? Now() : 0;
        if (!solved.ok()) {
          ++outcome.failed;
          continue;
        }
        const double rho = SpearmanCorrelation(solved->scores, graphs[g].significance);
        if (args.trace) {
          const double t3 = Now();
          resolve_s += t1 - t0;
          solve_s += t2 - t1;
          spearman_s += t3 - t2;
          sweeps += solved->iterations;
          swept_bytes += solved->iterations * SweepBytes(graph);
        }
        ++lookups;
        if (resolved.cache_hit) ++hits;
        if (passes == 0) {
          iterations_first_pass += solved->iterations;
          moved_bytes_first_pass += solved->iterations * SweepBytes(graph);
          first[g].push_back({std::move(solved->scores), solved->iterations,
                              solved->converged, rho});
        } else if (k < first[g].size()) {
          // Same inputs, same arithmetic: later passes must repeat the
          // first bit for bit.
          checks.Expect(solved->iterations == first[g][k].iterations &&
                            rho == first[g][k].rho,
                        graphs[g].name + ": pass " + std::to_string(passes) +
                            " differs from the first at p=" +
                            std::to_string(grid[k]));
        }
      }
      pass_ms[g].push_back((Now() - pass_start) * 1e3);
    }
    ++passes;
  } while (Now() < deadline);

  // Read before the checks below, which load larger graphs.
  const double peak_rss_mb = SelfPeakRssMb();

  // --- output checks, against the benchmark's own arithmetic ---
  const double tolerance = solver.tolerance;
  for (size_t g = 0; g < num_graphs; ++g) {
    const DataGraph& data = graphs[g];
    if (first[g].size() != grid.size()) continue;  // counted in failed
    for (size_t k = 0; k < grid.size(); ++k) {
      const Point& point = first[g][k];
      const std::string where = data.name + " p=" + std::to_string(grid[k]);
      checks.Expect(point.converged, where + ": did not converge");
      double sum = 0.0, smallest = 0.0;
      for (double s : point.scores) {
        sum += s;
        smallest = std::min(smallest, s);
      }
      checks.Expect(smallest >= 0.0, where + ": negative score");
      checks.Expect(std::fabs(sum - 1.0) <= 1e-9, where + ": scores sum to " +
                                                     std::to_string(sum));
      // The solver stops once an iterate moves less than `tolerance` in
      // L1; the PageRank map contracts by alpha, so one more application
      // moves the returned vector by less than alpha * tolerance.
      const std::vector<double> probs = DecoupledProbs(data.unweighted, grid[k]);
      const double residual = StationarityResidual(
          data.unweighted, probs, teleports[g], solver.alpha, point.scores);
      checks.Expect(residual <= tolerance,
                    where + ": stationarity residual " + std::to_string(residual));
      const double rho = Spearman(point.scores, data.significance);
      checks.Expect(std::fabs(rho - point.rho) <= 1e-9,
                    where + ": Spearman " + std::to_string(point.rho) +
                        " vs own " + std::to_string(rho));
    }
  }

  // The paper groups are a property of graphs large enough for the
  // degree-significance coupling to dominate: at 1x, lastfm_artist_artist
  // peaks at p = +0.5 for seeds 25 and 41. So the group rule is checked on
  // one extra, untimed pass over the same graphs at 4x, where it holds for
  // seeds 0-41 and two large seeds.
  RegistryOptions large = registry;
  large.scale = kGroupCheckScale;
  for (PaperGraphId id : AllPaperGraphIds()) {
    Result<DataGraph> data = MakePaperGraph(id, large);
    if (!data.ok()) {
      checks.Expect(false, "4x graph: " + data.status().ToString());
      continue;
    }
    const std::vector<double> rhos = CorrelationSeries(*data, grid, solver);
    checks.Expect(rhos.size() == grid.size(), data->name + " at 4x: a point failed");
    if (rhos.size() == grid.size()) CheckGroup(*data, grid, rhos, &checks);
  }
  outcome.correct = checks.ok();

  // --- metrics ---
  // Each graph's fastest pass: the rest of a run's passes mostly measure
  // how busy the machine's other tenants were (see README).
  double op_ms = 0.0;
  for (size_t g = 0; g < num_graphs; ++g) {
    op_ms += *std::min_element(pass_ms[g].begin(), pass_ms[g].end());
  }
  const double points_per_pass = static_cast<double>(grid.size() * num_graphs);
  report->Metric("setup_s", setup_s, "s");
  report->Metric("op_ms", op_ms, "ms");
  // From the same per-graph minima as op_ms: a mean over all passes
  // lets one disturbed pass move it.
  report->Metric("ops_per_s", points_per_pass / (op_ms / 1e3), "1/s");
  report->Metric("work_per_op", static_cast<double>(iterations_first_pass), "count");
  report->Metric("moved_kb_per_op", moved_bytes_first_pass / 1024.0, "KB");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");

  report->Metric("datagen.graphs_s", datagen_s, "s");
  if (args.trace && lookups > 0 && sweeps > 0) {
    report->Metric("core.transition_build_ms", resolve_s / lookups * 1e3, "ms");
    report->Metric("core.power_sweep_us", solve_s / sweeps * 1e6, "us");
    report->Metric("core.sweep_bytes", swept_bytes / sweeps, "bytes");
    report->Metric("core.sweep_gbps", swept_bytes / solve_s / 1e9, "GB/s");
    report->Metric("stats.spearman_ms", spearman_s / lookups * 1e3, "ms");
  }
  report->Metric("api.transition_lookups", static_cast<double>(lookups) / passes, "count");
  report->Metric("api.transition_cache_hits", static_cast<double>(hits) / passes, "count");
  report->Metric("trace.op_ms", op_ms, "ms");
  std::fprintf(stderr,
               "paper_sweep: %lld passes over %zu graphs, %lld iterations per "
               "pass, pass %.1f ms\n",
               static_cast<long long>(passes), num_graphs,
               static_cast<long long>(iterations_first_pass), op_ms);
  return outcome;
}

}  // namespace perfbench
