#include "core/block_solver.h"

#include <vector>

#include "common/string_util.h"
#include "core/sweep_kernel.h"
#include "linalg/vec_ops.h"

namespace d2pr {

namespace {

/// Runs fn(0) .. fn(count - 1): through `parallel_for` when provided,
/// sequentially inline otherwise.
void RunShards(const BlockParallelFor& parallel_for, size_t count,
               const std::function<void(size_t)>& fn) {
  if (parallel_for) {
    parallel_for(count, fn);
    return;
  }
  for (size_t i = 0; i < count; ++i) fn(i);
}

/// The single-graph solvers' shared validation plus the slice shape
/// contract (GraphPartition::ValidateSlices).
Status ValidateBlockInputs(const TransitionSlices& slices,
                           const GraphPartition& partition,
                           std::span<const double> teleport,
                           const PagerankOptions& options) {
  D2PR_RETURN_NOT_OK(ValidatePagerankOptions(options));
  D2PR_RETURN_NOT_OK(partition.ValidateSlices(slices));
  return ValidateTeleportVector(teleport, slices.num_nodes);
}

/// global[owned[k]] for every owned row k.
template <typename T>
std::vector<T> GatherOwned(std::span<const T> global,
                           const std::vector<NodeId>& owned) {
  std::vector<T> local(owned.size());
  for (size_t k = 0; k < owned.size(); ++k) {
    local[k] = global[static_cast<size_t>(owned[k])];
  }
  return local;
}

/// One shard's row-local sweep inputs for one solve.
struct ShardRowInputs {
  std::vector<double> teleport;
  std::vector<uint8_t> dangling;

  ShardRowInputs(const PartitionShard& shard, std::span<const double> t,
                 const TransitionSlices& slices)
      : teleport(GatherOwned(t, shard.owned)),
        dangling(GatherOwned(std::span<const uint8_t>(slices.is_dangling),
                             shard.owned)) {}

  SweepRows Rows(const PartitionShard& shard, std::span<const double> probs,
                 std::span<const NodeId> sources) const {
    return {shard.in_offsets, sources, probs, teleport, dangling};
  }
};

/// Dangling mass of `x`, folded over the ascending dangling list exactly
/// as the reference solvers fold it.
double DanglingMass(const TransitionSlices& slices,
                    const std::vector<double>& x) {
  double mass = 0.0;
  for (NodeId v : slices.dangling) mass += x[static_cast<size_t>(v)];
  return mass;
}

}  // namespace

Status ValidateBlockGaussSeidelPolicy(DanglingPolicy dangling) {
  if (dangling == DanglingPolicy::kRenormalize) {
    // The renormalized Gauss-Seidel fixed point is sweep-order dependent
    // whenever dangling mass is dropped (see the header); a block sweep
    // cannot reproduce the single-graph order, so fail loudly instead of
    // serving a silently different solution.
    return Status::InvalidArgument(
        "block Gauss-Seidel does not support DanglingPolicy::kRenormalize "
        "(its fixed point depends on the sweep order); use kTeleport or "
        "power iteration");
  }
  return Status::OK();
}

Result<PagerankResult> SolvePagerankPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for) {
  D2PR_RETURN_NOT_OK(
      ValidateBlockInputs(slices, partition, teleport, options));
  const NodeId n = slices.num_nodes;

  PagerankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  std::vector<double> current(teleport.begin(), teleport.end());
  NormalizeL1(current);  // mirrors the reference's defensive normalize
  std::vector<double> next(static_cast<size_t>(n), 0.0);

  const size_t num_shards = partition.num_shards();
  std::vector<ShardRowInputs> inputs;
  inputs.reserve(num_shards);
  std::vector<std::vector<double>> out(num_shards);
  std::vector<std::vector<double>> previous(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    inputs.emplace_back(partition.shard(s), teleport, slices);
    out[s].resize(partition.shard(s).owned.size());
    if (options.dangling == DanglingPolicy::kSelfLoop) {
      previous[s].resize(partition.shard(s).owned.size());
    }
  }

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Known before the sweeps start, so each shard can finish its owned
    // slice end-to-end.
    const SweepTerms terms{options.alpha, options.dangling,
                           DanglingMass(slices, current)};

    // One block sweep: every shard runs the power kernel with global
    // source ids against the frozen `current`, then publishes its rows
    // into disjoint entries of `next` — so the sweeps compose in any
    // order (or concurrently) without changing a bit.
    RunShards(parallel_for, num_shards, [&](size_t s) {
      const PartitionShard& shard = partition.shard(s);
      if (options.dangling == DanglingPolicy::kSelfLoop) {
        for (size_t k = 0; k < shard.owned.size(); ++k) {
          previous[s][k] = current[static_cast<size_t>(shard.owned[k])];
        }
      }
      PowerSweep(inputs[s].Rows(shard, slices.in_probs[s], shard.in_sources),
                 terms, current, previous[s], out[s]);
      for (size_t k = 0; k < shard.owned.size(); ++k) {
        next[static_cast<size_t>(shard.owned[k])] = out[s][k];
      }
    });
    if (options.dangling == DanglingPolicy::kRenormalize) {
      NormalizeL1(next);
    }

    result.iterations = iter;
    result.residual = DiffL1(next, current);
    current.swap(next);
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(current);
  return result;
}

Result<PagerankResult> SolveGaussSeidelPartitioned(
    const TransitionSlices& slices, const GraphPartition& partition,
    std::span<const double> teleport, const PagerankOptions& options,
    const BlockParallelFor& parallel_for) {
  D2PR_RETURN_NOT_OK(
      ValidateBlockInputs(slices, partition, teleport, options));
  D2PR_RETURN_NOT_OK(ValidateBlockGaussSeidelPolicy(options.dangling));
  const NodeId n = slices.num_nodes;

  PagerankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  std::vector<double> x(teleport.begin(), teleport.end());
  std::vector<double> next(static_cast<size_t>(n), 0.0);

  // Each shard sweeps a row-local [owned | boundary] copy of the iterate
  // through its source slots — the shard worker's layout.
  const size_t num_shards = partition.num_shards();
  std::vector<ShardRowInputs> inputs;
  inputs.reserve(num_shards);
  std::vector<std::vector<NodeId>> boundary(num_shards);
  std::vector<std::vector<NodeId>> slots(num_shards);
  std::vector<std::vector<double>> vals(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    inputs.emplace_back(partition.shard(s), teleport, slices);
  }
  RunShards(parallel_for, num_shards, [&](size_t s) {
    const PartitionShard& shard = partition.shard(s);
    boundary[s] = ShardBoundarySources(shard);
    slots[s] = ShardSourceSlots(shard, boundary[s]);
    vals[s].resize(shard.owned.size() + boundary[s].size());
  });

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Lagged dangling mass, as in the single-graph Gauss-Seidel sweep.
    const SweepTerms terms{options.alpha, options.dangling,
                           DanglingMass(slices, x)};

    // One block sweep: every shard copies its owned and boundary values
    // out of `x`, sweeps them Gauss-Seidel style (owned sources read the
    // in-sweep updated values, boundary sources the copy — block Jacobi
    // across shards), and publishes its rows into `next`. No shard writes
    // `x`, so every shard's boundary copy is the sweep-start iterate.
    RunShards(parallel_for, num_shards, [&](size_t s) {
      const PartitionShard& shard = partition.shard(s);
      const size_t num_owned = shard.owned.size();
      std::vector<double>& v = vals[s];
      for (size_t k = 0; k < num_owned; ++k) {
        v[k] = x[static_cast<size_t>(shard.owned[k])];
      }
      for (size_t b = 0; b < boundary[s].size(); ++b) {
        v[num_owned + b] = x[static_cast<size_t>(boundary[s][b])];
      }
      GaussSeidelSweep(inputs[s].Rows(shard, slices.in_probs[s], slots[s]),
                       terms, v);
      for (size_t k = 0; k < num_owned; ++k) {
        next[static_cast<size_t>(shard.owned[k])] = v[k];
      }
    });
    NormalizeL1(next);

    result.iterations = iter;
    result.residual = DiffL1(next, x);
    x.swap(next);
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(x);
  return result;
}

}  // namespace d2pr
