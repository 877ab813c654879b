// The benchmark's own arithmetic, written apart from the library so that
// output checks do not compare the program with itself: the paper's
// deg^-p transition, a power iteration, a stationarity residual and a
// tie-averaged Spearman correlation.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace perfbench {

/// Per-arc probabilities of the paper's unweighted D2PR walk (Eq. 1):
/// from node i, step to neighbour j with probability proportional to
/// outdeg(j)^-p. A neighbour of out-degree 0 takes the whole row when
/// p > 0 and none of it when p < 0 (the limit of the formula); a row with
/// no weight left falls back to uniform.
std::vector<double> DecoupledProbs(const d2pr::CsrGraph& graph, double p);

/// One application of the PageRank map:
///   out = alpha * T x + (alpha * dangling_mass(x) + 1 - alpha) * teleport
/// where dangling nodes are those without out-arcs.
void ApplyPagerank(const d2pr::CsrGraph& graph, std::span<const double> probs,
                   std::span<const double> teleport, double alpha,
                   std::span<const double> x, std::span<double> out);

/// L1 norm of ApplyPagerank(x) - x: how far x is from stationary.
double StationarityResidual(const d2pr::CsrGraph& graph,
                            std::span<const double> probs,
                            std::span<const double> teleport, double alpha,
                            std::span<const double> x);

/// Power iteration from the teleport vector until the L1 change is below
/// `tolerance` (or `max_iterations`).
std::vector<double> PowerIterate(const d2pr::CsrGraph& graph,
                                 std::span<const double> probs,
                                 std::span<const double> teleport,
                                 double alpha, double tolerance,
                                 int max_iterations);

/// Spearman's rho: Pearson correlation of tie-averaged ranks.
double Spearman(std::span<const double> x, std::span<const double> y);

double L1Distance(std::span<const double> a, std::span<const double> b);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
