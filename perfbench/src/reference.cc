#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace perfbench {

using d2pr::CsrGraph;
using d2pr::EdgeIndex;
using d2pr::NodeId;

std::vector<double> DecoupledProbs(const CsrGraph& graph, double p) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> probs(static_cast<size_t>(graph.num_arcs()), 0.0);
  std::vector<double> exponent;
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    const EdgeIndex begin = graph.ArcBegin(i);
    const auto neighbours = graph.OutNeighbors(i);
    if (neighbours.empty()) continue;
    exponent.assign(neighbours.size(), 0.0);
    double top = -kInf;
    for (size_t k = 0; k < neighbours.size(); ++k) {
      const double degree = static_cast<double>(graph.OutDegree(neighbours[k]));
      if (degree > 0) {
        exponent[k] = -p * std::log(degree);
      } else {
        exponent[k] = p > 0 ? kInf : (p < 0 ? -kInf : 0.0);
      }
      top = std::max(top, exponent[k]);
    }
    double total = 0.0;
    for (double& e : exponent) {
      if (top == kInf) {
        e = e == kInf ? 1.0 : 0.0;
      } else {
        e = e == -kInf ? 0.0 : std::exp(e - top);
      }
      total += e;
    }
    if (total == 0.0) {
      std::fill(exponent.begin(), exponent.end(), 1.0);
      total = static_cast<double>(exponent.size());
    }
    for (size_t k = 0; k < neighbours.size(); ++k) {
      probs[static_cast<size_t>(begin) + k] = exponent[k] / total;
    }
  }
  return probs;
}

void ApplyPagerank(const CsrGraph& graph, std::span<const double> probs,
                   std::span<const double> teleport, double alpha,
                   std::span<const double> x, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  double dangling = 0.0;
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    const auto neighbours = graph.OutNeighbors(i);
    const double mass = x[static_cast<size_t>(i)];
    if (neighbours.empty()) {
      dangling += mass;
      continue;
    }
    const size_t begin = static_cast<size_t>(graph.ArcBegin(i));
    for (size_t k = 0; k < neighbours.size(); ++k) {
      out[static_cast<size_t>(neighbours[k])] += mass * probs[begin + k];
    }
  }
  const double restart = alpha * dangling + (1.0 - alpha);
  for (size_t v = 0; v < out.size(); ++v) {
    out[v] = alpha * out[v] + restart * teleport[v];
  }
}

double StationarityResidual(const CsrGraph& graph,
                            std::span<const double> probs,
                            std::span<const double> teleport, double alpha,
                            std::span<const double> x) {
  std::vector<double> next(x.size());
  ApplyPagerank(graph, probs, teleport, alpha, x, next);
  return L1Distance(next, x);
}

std::vector<double> PowerIterate(const CsrGraph& graph,
                                 std::span<const double> probs,
                                 std::span<const double> teleport,
                                 double alpha, double tolerance,
                                 int max_iterations) {
  std::vector<double> x(teleport.begin(), teleport.end());
  std::vector<double> next(x.size());
  for (int it = 0; it < max_iterations; ++it) {
    ApplyPagerank(graph, probs, teleport, alpha, x, next);
    const double change = L1Distance(next, x);
    x.swap(next);
    if (change < tolerance) break;
  }
  return x;
}

namespace {

std::vector<double> AverageRanks(std::span<const double> values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) ++j;
    const double rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double Spearman(std::span<const double> x, std::span<const double> y) {
  const std::vector<double> rx = AverageRanks(x);
  const std::vector<double> ry = AverageRanks(y);
  const double n = static_cast<double>(rx.size());
  const double mean = (n + 1.0) / 2.0;  // mean of any tie-averaged ranking
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mean) * (ry[i] - mean);
    sxx += (rx[i] - mean) * (rx[i] - mean);
    syy += (ry[i] - mean) * (ry[i] - mean);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double L1Distance(std::span<const double> a, std::span<const double> b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) total += std::fabs(a[i] - b[i]);
  return total;
}

}  // namespace perfbench
