// The pull-sweep row kernels: one power loop and one Gauss-Seidel loop,
// shared by every solver that sweeps a block of in-CSR rows — the
// in-process block solvers (core/block_solver.h) and the distributed
// shard worker (dist/shard_worker.h). The whole-graph reference solvers
// (core/pagerank.h, core/gauss_seidel.h) keep their own loops on purpose:
// they are the independent referees the parity suites compare against.
//
// A kernel sees one block of rows in a caller-chosen layout:
//
//   * `in_offsets` / `sources` / `probs` — the block's in-CSR: row k's
//     arcs are positions [in_offsets[k], in_offsets[k + 1]), each naming
//     the index of its source in the value array the sweep reads and
//     carrying the arc's transition probability (a contiguous slice,
//     core/transition_slices.h);
//   * `teleport` / `dangling` — row-local: entry k belongs to row k's
//     node.
//
// What `sources` indexes is the caller's choice. The in-process block
// power solve passes global source ids and reads the global iterate; the
// shard worker and the in-process block Gauss-Seidel pass slots into a
// row-local [owned | boundary] copy (graph/partition.h,
// ShardSourceSlots), whose owned prefix the Gauss-Seidel kernel updates
// in place.
//
// Bit-parity: each row folds its arcs left to right from +0.0 in in-CSR
// order (ascending global source), then applies the dangling policy and
// the teleport blend with exactly the operations of the reference
// solvers. Two callers that feed the same values in the same order get
// the same bits — which is how the block power solve and the distributed
// power solve stay memcmp-identical to SolvePagerank.

#ifndef D2PR_CORE_SWEEP_KERNEL_H_
#define D2PR_CORE_SWEEP_KERNEL_H_

#include <cstdint>
#include <span>

#include "core/pagerank.h"
#include "graph/types.h"

namespace d2pr {

/// \brief One block of in-CSR rows plus the row-local sweep inputs.
struct SweepRows {
  /// Row boundaries into sources / probs; size rows + 1.
  std::span<const EdgeIndex> in_offsets;
  /// Per arc: index of its source in the value array the sweep reads.
  std::span<const NodeId> sources;
  /// Per arc: transition probability, aligned with sources.
  std::span<const double> probs;
  /// Per row: the row node's teleport entry.
  std::span<const double> teleport;
  /// Per row: nonzero iff the row node has no out-arcs.
  std::span<const uint8_t> dangling;

  size_t num_rows() const { return teleport.size(); }
};

/// \brief The per-sweep scalars.
struct SweepTerms {
  double alpha = 0.85;
  DanglingPolicy policy = DanglingPolicy::kTeleport;
  /// Dangling mass of the previous iterate, folded globally by the caller
  /// (read under kTeleport only).
  double dangling_mass = 0.0;
};

/// \brief One power sweep:
/// out[k] = α·(Σ values[sources[i]]·probs[i] + dangling term) + (1-α)·t_k.
/// The dangling term is dangling_mass·t_k under kTeleport (when the mass
/// is positive), previous[k] for dangling rows under kSelfLoop, nothing
/// under kRenormalize. `previous` is row-local and read only under
/// kSelfLoop (it may be empty otherwise).
void PowerSweep(const SweepRows& rows, const SweepTerms& terms,
                std::span<const double> values,
                std::span<const double> previous, std::span<double> out);

/// \brief One Gauss-Seidel sweep, in place: row k's new value is written
/// to values[k] before row k + 1 folds, so sources whose index is a row
/// of this block read the updated value and the rest read whatever the
/// caller staged there. The dangling term is α·dangling_mass·t_k under
/// kTeleport and a division by (1-α) for dangling rows under kSelfLoop.
void GaussSeidelSweep(const SweepRows& rows, const SweepTerms& terms,
                      std::span<double> values);

}  // namespace d2pr

#endif  // D2PR_CORE_SWEEP_KERNEL_H_
