// Shard-local transition slices: the per-arc probabilities each
// partition shard streams during a block sweep, materialized contiguously
// in the shard's in-CSR order (graph/partition.h declares the
// TransitionSlices container; this header owns its construction).
//
// Why slices exist: a slice is the `probs` operand of the shared row
// kernels (core/sweep_kernel.h), read in lockstep with the in-CSR
// sources. Gathering `probs[shard.in_arc_index[idx]]` through the O(|E|)
// global arc index instead has a random stride that defeats the hardware
// prefetcher once the arc arrays leave L2 (2-3x slower at 100k nodes);
// the slice makes that read sequential.
//
// Two construction paths, bitwise identical by construction:
//
//   * BuildTransitionSlices — permute a resolved whole-graph
//     TransitionMatrix through the partition's arc index. One copy, no
//     arithmetic: in_probs[s][idx] = probs[in_arc_index[idx]].
//   * BuildTransitionSlicesLocal — the distributed path: no whole-graph
//     TransitionMatrix is ever materialized (a test pins this via
//     TransitionMatrix::BuildCount()). Each shard computes, from its own
//     rows, the O(|V|) per-source normalization state of the de-coupled
//     softmax (max exponent, row sum, uniform-fallback flag, out-strength
//     for the beta blend); that state plus the O(|V|) log-metric vector is
//     what a deployment would broadcast. Every shard then fills its slice
//     by recomputing each in-arc's probability from the broadcast state —
//     through the same out-of-line arc kernel TransitionMatrix::Build
//     uses (DecoupledArcExponent / DecoupledArcNumerator /
//     BlendedArcProb), so every float matches the matrix path bit for
//     bit. Per transition key, a shard holds only its slice plus O(|V|)
//     vectors; the only O(|E|)-shaped inputs are static graph structure
//     (the in-CSR itself and, for weighted beta blends, the arc weights
//     that ride with it), never transition state.
//
// Both paths also carry the dangling view (ascending list + bitmap) so
// the block solvers never need a TransitionMatrix at all.

#ifndef D2PR_CORE_TRANSITION_SLICES_H_
#define D2PR_CORE_TRANSITION_SLICES_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/transition.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {

/// \brief How a serving layer constructs its per-shard slices.
enum class SliceBuild {
  /// Resolve (or load) the whole-graph TransitionMatrix, then slice it.
  /// The matrix stays cacheable and persistable (api/TransitionResolver),
  /// so this is the single-machine serving default.
  kFromMatrix,
  /// Build slices shard-locally from the shard rows plus broadcast O(|V|)
  /// metric state; no whole-graph matrix exists. The distributed mode —
  /// it bypasses the persistent store (there is no matrix to spill).
  kSubgraph,
};

/// \brief Human-readable slice-build name ("matrix", "subgraph").
const char* SliceBuildName(SliceBuild build);

/// \brief Slices `transition` through `partition`'s in-CSR arc index.
/// InvalidArgument when the node counts disagree.
Result<TransitionSlices> BuildTransitionSlices(
    const GraphPartition& partition, const TransitionMatrix& transition);

/// \brief Builds the slices shard-locally under `config`, never
/// materializing a whole-graph TransitionMatrix. Rejects exactly the
/// configs TransitionMatrix::Build rejects (shared validation), plus a
/// partition/graph node-count mismatch. The result is bitwise identical
/// to BuildTransitionSlices over TransitionMatrix::Build(graph, config).
Result<TransitionSlices> BuildTransitionSlicesLocal(
    const CsrGraph& graph, const GraphPartition& partition,
    const TransitionConfig& config);

/// \brief Builds ONE shard's probability slice from a loaded cut file and
/// the broadcast global metric vector — no CsrGraph, no GraphPartition,
/// no whole-graph anything (the --shard-file worker's only build path).
///
/// `metric_values` is the full O(|V|) per-node metric vector
/// (MetricValues on the coordinator side, shipped in the solve-begin
/// frame); it must hold exactly cut.meta.num_nodes values. The returned
/// vector is aligned with cut.shard.in_sources — bitwise identical to
/// BuildTransitionSlicesLocal's in_probs[shard] for the same graph,
/// scheme, and config, because owned rows fold in the same arc order the
/// whole-graph pass uses and boundary rows fold over the cut's ghost
/// rows, which are those sources' rows verbatim.
///
/// Rejects exactly what the whole-graph builders reject (shared
/// validation against cut.meta.weighted) plus a wrong-sized metric
/// vector.
Result<std::vector<double>> BuildShardSliceFromCut(
    const ShardCut& cut, std::span<const double> metric_values,
    const TransitionConfig& config);

}  // namespace d2pr

#endif  // D2PR_CORE_TRANSITION_SLICES_H_
