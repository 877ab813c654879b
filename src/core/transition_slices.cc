#include "core/transition_slices.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/string_util.h"

namespace d2pr {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The O(|V|) per-source state the subgraph path broadcasts: everything a
/// destination shard needs to recompute any in-arc's probability without
/// seeing the source's row. Each field is written only by the source
/// node's owner shard (from its own rows) — the in-process stand-in for
/// a per-key broadcast round.
struct RowState {
  std::vector<double> log_metric;       ///< log(metric(v)); -inf at 0.
  std::vector<double> max_exponent;     ///< Row softmax max.
  std::vector<double> row_sum;          ///< Softmax denominator.
  std::vector<uint8_t> uniform_row;     ///< All-vanished fallback rows.
  std::vector<double> strength_total;   ///< Θ(v); only when beta > 0.
};

/// Allocates slices shaped for `partition` with the dangling view filled
/// from the graph's out-degrees (ascending by construction — the fold
/// order the solvers' bit-parity contract requires).
TransitionSlices ShapedSlices(const CsrGraph& graph,
                              const GraphPartition& partition) {
  TransitionSlices slices;
  slices.num_nodes = graph.num_nodes();
  slices.in_probs.resize(partition.num_shards());
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    slices.in_probs[s].resize(
        static_cast<size_t>(partition.shard(s).num_in_arcs()));
  }
  slices.is_dangling.assign(static_cast<size_t>(graph.num_nodes()), 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.OutDegree(v) == 0) {
      slices.is_dangling[static_cast<size_t>(v)] = 1;
      slices.dangling.push_back(v);
    }
  }
  return slices;
}

}  // namespace

const char* SliceBuildName(SliceBuild build) {
  switch (build) {
    case SliceBuild::kFromMatrix:
      return "matrix";
    case SliceBuild::kSubgraph:
      return "subgraph";
  }
  return "unknown";
}

Result<TransitionSlices> BuildTransitionSlices(
    const GraphPartition& partition, const TransitionMatrix& transition) {
  if (partition.num_nodes() != transition.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("partition covers ", partition.num_nodes(),
               " nodes but transition matrix has ", transition.num_nodes()));
  }
  TransitionSlices slices;
  slices.num_nodes = transition.num_nodes();
  slices.in_probs.resize(partition.num_shards());
  const auto probs = transition.probs();
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    std::vector<double>& slice = slices.in_probs[s];
    slice.resize(shard.in_arc_index.size());
    // A pure permutation copy: position idx of the slice is the
    // probability the sweep used to gather at in_arc_index[idx].
    for (size_t idx = 0; idx < shard.in_arc_index.size(); ++idx) {
      slice[idx] = probs[static_cast<size_t>(shard.in_arc_index[idx])];
    }
  }
  slices.is_dangling.assign(static_cast<size_t>(transition.num_nodes()), 0);
  slices.dangling = transition.DanglingNodes();
  for (NodeId v : slices.dangling) {
    slices.is_dangling[static_cast<size_t>(v)] = 1;
  }
  return slices;
}

Result<TransitionSlices> BuildTransitionSlicesLocal(
    const CsrGraph& graph, const GraphPartition& partition,
    const TransitionConfig& config) {
  D2PR_RETURN_NOT_OK(ValidateTransitionConfig(graph, config));
  if (partition.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrCat("partition covers ", partition.num_nodes(),
               " nodes but the graph has ", graph.num_nodes()));
  }
  const DegreeMetric metric = ResolveMetric(graph, config.metric);
  // Beta folds to 0 on unweighted graphs, exactly as in
  // TransitionMatrix::Build (see the comment there).
  const double beta = graph.weighted() ? config.beta : 0.0;
  const double p = config.p;
  const NodeId n = graph.num_nodes();

  // --- Broadcast state, O(|V|). ---
  // log_metric is the broadcast global-metric vector: row probabilities
  // depend on *destination* metrics, which a shard cannot derive from its
  // own rows (a boundary target's degree is invisible locally).
  RowState state;
  {
    const std::vector<double> metric_values = MetricValues(graph, metric);
    state.log_metric.resize(static_cast<size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      state.log_metric[static_cast<size_t>(v)] =
          metric_values[static_cast<size_t>(v)] > 0.0
              ? std::log(metric_values[static_cast<size_t>(v)])
              : kNegInf;
    }
  }
  state.max_exponent.assign(static_cast<size_t>(n), kNegInf);
  state.row_sum.assign(static_cast<size_t>(n), 0.0);
  state.uniform_row.assign(static_cast<size_t>(n), 0);
  if (beta > 0.0) state.strength_total.assign(static_cast<size_t>(n), 0.0);

  // Pass 1 — every shard normalizes its OWN rows (this loop nests
  // shard-then-owned rather than scanning nodes so the data flow it
  // documents is the distributed one: a shard touches only its rows).
  // The per-arc numerators are recomputed in pass 2 instead of stored:
  // that trades one exp per arc for never holding O(|E|) state.
  const auto targets = graph.targets();
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    for (NodeId i : partition.shard(s).owned) {
      const EdgeIndex begin = graph.ArcBegin(i);
      const EdgeIndex end = begin + graph.OutDegree(i);
      if (begin == end) continue;  // dangling: no row to normalize
      double max_exponent = kNegInf;
      for (EdgeIndex e = begin; e < end; ++e) {
        const NodeId j = targets[static_cast<size_t>(e)];
        max_exponent = std::max(
            max_exponent,
            DecoupledArcExponent(state.log_metric[static_cast<size_t>(j)],
                                 p));
      }
      // Summed in ascending arc order — the same left-to-right fold
      // TransitionMatrix::Build performs, so the denominator is the same
      // double bit for bit.
      double row_sum = 0.0;
      for (EdgeIndex e = begin; e < end; ++e) {
        const NodeId j = targets[static_cast<size_t>(e)];
        row_sum += DecoupledArcNumerator(
            DecoupledArcExponent(state.log_metric[static_cast<size_t>(j)],
                                 p),
            max_exponent);
      }
      if (row_sum == 0.0) {
        // All destinations vanished in the limit (metric 0, p < 0): the
        // row falls back to uniform, mirroring Build.
        state.uniform_row[static_cast<size_t>(i)] = 1;
        row_sum = static_cast<double>(end - begin);
      }
      state.max_exponent[static_cast<size_t>(i)] = max_exponent;
      state.row_sum[static_cast<size_t>(i)] = row_sum;
      if (beta > 0.0) {
        state.strength_total[static_cast<size_t>(i)] = graph.OutStrength(i);
      }
    }
  }

  // Pass 2 — every shard fills its own slice by streaming its in-CSR.
  // Each probability is a pure function of the broadcast state, the
  // destination's log-metric (an owned node), and — for weighted beta
  // blends — the arc's weight, static structure that rides with the
  // in-CSR. The kernel calls are the same out-of-line functions Build
  // uses, so the recomputed numerator and blend match its bits exactly.
  TransitionSlices slices = ShapedSlices(graph, partition);
  const auto weights = graph.weighted() ? graph.weights()
                                        : std::span<const double>{};
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    std::vector<double>& slice = slices.in_probs[s];
    for (size_t k = 0; k < shard.owned.size(); ++k) {
      const NodeId dst = shard.owned[k];
      const double dst_exponent_input =
          state.log_metric[static_cast<size_t>(dst)];
      const EdgeIndex begin = shard.in_offsets[k];
      const EdgeIndex end = shard.in_offsets[k + 1];
      for (EdgeIndex idx = begin; idx < end; ++idx) {
        const NodeId src =
            shard.in_sources[static_cast<size_t>(idx)];
        const size_t si = static_cast<size_t>(src);
        const double numerator =
            state.uniform_row[si]
                ? 1.0
                : DecoupledArcNumerator(
                      DecoupledArcExponent(dst_exponent_input, p),
                      state.max_exponent[si]);
        const double arc_weight =
            beta > 0.0
                ? weights[static_cast<size_t>(
                      shard.in_arc_index[static_cast<size_t>(idx)])]
                : 0.0;
        slice[static_cast<size_t>(idx)] = BlendedArcProb(
            numerator, state.row_sum[si], beta, arc_weight,
            beta > 0.0 ? state.strength_total[si] : 0.0);
      }
    }
  }
  return slices;
}

Result<std::vector<double>> BuildShardSliceFromCut(
    const ShardCut& cut, std::span<const double> metric_values,
    const TransitionConfig& config) {
  D2PR_RETURN_NOT_OK(ValidateTransitionConfig(cut.meta.weighted, config));
  if (metric_values.size() != static_cast<size_t>(cut.meta.num_nodes)) {
    return Status::InvalidArgument(
        StrCat("metric vector holds ", metric_values.size(),
               " values but the cut's graph has ", cut.meta.num_nodes,
               " nodes"));
  }
  const double beta = cut.meta.weighted ? config.beta : 0.0;
  const double p = config.p;
  const PartitionShard& shard = cut.shard;

  // log_metric over the FULL broadcast vector: pass 1 folds the rows of
  // owned and boundary sources, whose targets are arbitrary global ids.
  std::vector<double> log_metric(metric_values.size());
  for (size_t v = 0; v < metric_values.size(); ++v) {
    log_metric[v] = metric_values[v] > 0.0 ? std::log(metric_values[v])
                                           : kNegInf;
  }

  // Pass 1 over a compact slot space — slot k < owned for owned[k], slot
  // owned + b for boundary_sources[b] — since those are the only sources
  // the in-CSR can name. Each row folds in ascending arc order through
  // the shared kernels, so every double matches the whole-graph pass bit
  // for bit; ghost rows ARE the boundary sources' rows, in row order.
  const size_t num_owned = shard.owned.size();
  const size_t num_slots = num_owned + cut.boundary_sources.size();
  std::vector<double> max_exponent(num_slots, kNegInf);
  std::vector<double> row_sum(num_slots, 0.0);
  std::vector<uint8_t> uniform_row(num_slots, 0);
  std::vector<double> strength_total;
  if (beta > 0.0) strength_total.assign(num_slots, 0.0);

  const auto fold_row = [&](size_t slot, std::span<const NodeId> targets,
                            std::span<const double> weights) {
    if (targets.empty()) return;  // dangling: no row to normalize
    double row_max = kNegInf;
    for (NodeId j : targets) {
      row_max = std::max(
          row_max,
          DecoupledArcExponent(log_metric[static_cast<size_t>(j)], p));
    }
    double sum = 0.0;
    for (NodeId j : targets) {
      sum += DecoupledArcNumerator(
          DecoupledArcExponent(log_metric[static_cast<size_t>(j)], p),
          row_max);
    }
    if (sum == 0.0) {
      uniform_row[slot] = 1;
      sum = static_cast<double>(targets.size());
    }
    max_exponent[slot] = row_max;
    row_sum[slot] = sum;
    if (beta > 0.0) {
      // The ascending-arc-order weight sum CsrGraph::OutStrength
      // performs, replayed over the cut's copy of the row.
      double theta = 0.0;
      for (double w : weights) theta += w;
      strength_total[slot] = theta;
    }
  };

  for (size_t k = 0; k < num_owned; ++k) {
    const size_t begin = static_cast<size_t>(shard.out_offsets[k]);
    const size_t end = static_cast<size_t>(shard.out_offsets[k + 1]);
    fold_row(k,
             std::span<const NodeId>(shard.out_targets)
                 .subspan(begin, end - begin),
             beta > 0.0 ? std::span<const double>(cut.out_weights)
                              .subspan(begin, end - begin)
                        : std::span<const double>{});
  }
  for (size_t b = 0; b < cut.boundary_sources.size(); ++b) {
    const size_t begin = static_cast<size_t>(cut.ghost_offsets[b]);
    const size_t end = static_cast<size_t>(cut.ghost_offsets[b + 1]);
    fold_row(num_owned + b,
             std::span<const NodeId>(cut.ghost_targets)
                 .subspan(begin, end - begin),
             beta > 0.0 ? std::span<const double>(cut.ghost_weights)
                              .subspan(begin, end - begin)
                        : std::span<const double>{});
  }

  // Pass 2 — stream the in-CSR; the kernel calls and operand values are
  // the ones BuildTransitionSlicesLocal's pass 2 would produce.
  const std::vector<NodeId> slots =
      ShardSourceSlots(shard, cut.boundary_sources);
  std::vector<double> slice(shard.in_sources.size());
  for (size_t k = 0; k < num_owned; ++k) {
    const double dst_exponent_input =
        log_metric[static_cast<size_t>(shard.owned[k])];
    const size_t begin = static_cast<size_t>(shard.in_offsets[k]);
    const size_t end = static_cast<size_t>(shard.in_offsets[k + 1]);
    for (size_t idx = begin; idx < end; ++idx) {
      const size_t slot = static_cast<size_t>(slots[idx]);
      const double numerator =
          uniform_row[slot]
              ? 1.0
              : DecoupledArcNumerator(
                    DecoupledArcExponent(dst_exponent_input, p),
                    max_exponent[slot]);
      const double arc_weight = beta > 0.0 ? cut.in_weights[idx] : 0.0;
      slice[idx] = BlendedArcProb(numerator, row_sum[slot], beta, arc_weight,
                                  beta > 0.0 ? strength_total[slot] : 0.0);
    }
  }
  return slice;
}

}  // namespace d2pr
