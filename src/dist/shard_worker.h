// ShardWorker: one partition shard's side of the distributed block
// solve — the service a `d2pr_server --shard-role` process hosts and a
// DistributedCoordinator drives through the v2 frames of
// net/shard_wire.h.
//
// A worker owns one PartitionShard (in-CSR only) plus its matrix-free
// transition slice (BuildTransitionSlicesLocal — no whole-graph
// TransitionMatrix is ever materialized on the shard). It comes into
// being two ways: Create() derives the shard from a whole CsrGraph
// in-process (tests, single-machine fleets), and CreateFromCutFile()
// loads one pre-cut shard file (graph/shard_cut.h) — the deployment
// path, where no whole-graph structure of ANY kind exists in the
// process (tests/dist_cut_test.cc pins this via GraphBuilder::
// BuildCount and TransitionMatrix::BuildCount). A cut-loaded worker
// defers its transition-slice build until the first kSolveBegin, whose
// trailing section carries the O(|V|) global metric vector the ack
// requested (needs_metric_values); the slice it builds is bitwise the
// one the whole-graph path builds. Per solve it
// retains its owned slice of the iterate across sweeps, so a sweep
// request carries only the O(boundary) remote values, the globally
// folded dangling mass, and — after iterations the coordinator
// L1-normalized globally — the exact 1/norm scalar to replay on the
// retained slice. Each sweep is one call of the shared row kernels in
// core/sweep_kernel.h — the same calls core/block_solver.cc makes, over
// the same [owned | boundary] slot layout its Gauss-Seidel uses — which
// is what makes the distributed power solve bitwise identical to
// SolvePagerankPartitioned and block Gauss-Seidel identical to its
// in-process form (tests/dist_parity_test.cc).
//
// Handshake rejections are deliberately distinct so a mis-wired cluster
// diagnoses itself from status codes alone:
//
//   wrong shard id for this worker          -> NotFound
//   wrong shard count                       -> OutOfRange
//   wrong partition scheme / slice build    -> FailedPrecondition
//   graph fingerprint mismatch              -> FailedPrecondition
//   transition key mismatch (p/beta/metric) -> InvalidArgument
//   shard already claimed by a live session -> AlreadyExists
//
// Every reply the worker produces is safe to resend: a sweep request
// repeating the last executed sweep returns the cached reply without
// re-executing, so coordinator retries after a timeout (and duplicated
// frames from a flaky transport) cannot double-advance the iterate.
//
// Thread model: Handle() is serialized by an internal mutex. Multiple
// connections may talk to one worker concurrently (that is how the
// duplicate-claim rejection is exercised), but only the claiming session
// can start solves and sweep.

#ifndef D2PR_DIST_SHARD_WORKER_H_
#define D2PR_DIST_SHARD_WORKER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "core/transition.h"
#include "dist/channel.h"
#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"

namespace d2pr {

/// \brief What a shard worker hosts.
struct ShardWorkerOptions {
  size_t shard_id = 0;
  size_t num_shards = 1;
  PartitionScheme scheme = PartitionScheme::kRange;
  /// Transition model; metric may be kAuto (resolved against the graph,
  /// exactly as the engine normalizes its cache key, so coordinator and
  /// worker agree on the resolved key bitwise).
  TransitionConfig config;
};

/// \brief One shard's solve service.
class ShardWorker {
 public:
  /// Builds the worker's shard of `graph` (in-CSR only) and its
  /// matrix-free transition slice. Errors surface from the partition
  /// build, the slice build, or shard_id >= num_shards.
  static Result<std::unique_ptr<ShardWorker>> Create(
      const CsrGraph& graph, const ShardWorkerOptions& options);

  /// Loads one pre-cut shard file (`d2pr_partition_cut` output) instead
  /// of deriving the shard from a whole graph: shard id, shard count,
  /// scheme, fingerprint, and node/arc totals all come from the cut's
  /// validated metadata; only the transition config is the caller's.
  /// The transition slice is NOT built here — it needs the global
  /// metric vector, which the coordinator ships in the first
  /// kSolveBegin after the handshake ack sets needs_metric_values.
  /// Errors surface from the cut load/validation or an invalid config.
  static Result<std::unique_ptr<ShardWorker>> CreateFromCutFile(
      const std::string& path, const TransitionConfig& config);

  /// Handles one frame from logical connection `session_id` and returns
  /// the reply frame — application errors (handshake rejections, order
  /// violations, undecodable payloads) come back as kStatus frames, so
  /// an OK Result does NOT mean the request succeeded. A non-OK Result
  /// means the frame is not answerable at all (a type this service never
  /// accepts) and the hosting connection must close.
  Result<ShardFrame> Handle(const ShardFrame& request, uint64_t session_id);

  /// Releases `session_id`'s claim (and its solve state) — the hosting
  /// server calls this when the connection dies, so a crashed
  /// coordinator does not wedge the shard forever.
  void CloseSession(uint64_t session_id);

  uint64_t graph_fingerprint() const { return graph_fingerprint_; }
  size_t shard_id() const { return options_.shard_id; }
  const PartitionShard& shard() const { return live_shard(); }

  /// Sweeps executed (cache hits from retried sweeps excluded).
  int64_t sweeps_executed() const;

  /// Bytes of graph-shaped structure resident in this worker right now:
  /// the shard's CSR arrays, boundary/slot indexes, and — until the
  /// first solve builds the slice — the cut's ghost rows and weights.
  /// The per-worker evidence behind the ~1/N resident-memory claim
  /// (tests/dist_cut_test.cc, results/dist_bench.md). Excludes the
  /// transition slice and iterate (per-key solve state, not graph).
  int64_t resident_graph_bytes() const;

  /// Bytes of graph-shaped INPUT this worker consumed at creation:
  /// the whole graph's CSR bytes for Create(), the cut file's payload
  /// for CreateFromCutFile() — the build-time contrast the pre-cut
  /// pipeline exists to win.
  int64_t build_input_bytes() const { return build_input_bytes_; }

 private:
  /// The worker's resolved transition key fields (compared bitwise
  /// against the handshake).
  struct ResolvedKey {
    double p = 0.0;
    double beta = 0.0;
    DegreeMetric metric = DegreeMetric::kOutDegree;
  };

  ShardWorker(ShardWorkerOptions options, uint64_t fingerprint,
              ResolvedKey key);

  /// The shard structure to read from: the cut's copy before the first
  /// slice build (CreateFromCutFile keeps the loaded cut intact so
  /// BuildShardSliceFromCut sees ghost rows and weights together), the
  /// worker's own afterwards.
  const PartitionShard& live_shard() const {
    return cut_ ? cut_->shard : shard_;
  }

  /// Fills owned_dangling_, boundary_sources_, and src_slot_ from a
  /// shard's in-CSR (shared by both factories).
  void InitDerivedIndexes(const PartitionShard& shard);

  ShardFrame StatusReply(uint64_t request_id, const Status& status) const;

  ShardFrame HandleHandshake(const ShardFrame& request, uint64_t session_id);
  ShardFrame HandleSolveBegin(const ShardFrame& request, uint64_t session_id);
  ShardFrame HandleSweep(const ShardFrame& request, uint64_t session_id);
  ShardFrame HandleSolveEnd(const ShardFrame& request, uint64_t session_id);

  /// Executes one sweep over the retained slice through the shared
  /// kernels (core/sweep_kernel.h).
  void ExecuteSweep(double dangling_mass, bool has_rescale, double rescale,
                    const std::vector<double>& boundary);

  ShardWorkerOptions options_;
  uint64_t graph_fingerprint_ = 0;
  ResolvedKey key_;
  uint64_t num_nodes_ = 0;
  uint64_t num_arcs_ = 0;

  PartitionShard shard_;
  /// Held only between CreateFromCutFile and the first solve begin;
  /// its PartitionShard moves into shard_ once the slice is built and
  /// the ghost rows / weights are dropped.
  std::unique_ptr<ShardCut> cut_;
  /// True once probs_ holds this shard's slice (immediately for
  /// Create(); after the first metric-carrying solve begin for
  /// CreateFromCutFile()).
  bool slice_ready_ = false;
  int64_t build_input_bytes_ = 0;
  /// This shard's contiguous in-CSR-aligned probability slice.
  std::vector<double> probs_;
  /// dangling flag per owned local index (ascending owned order).
  std::vector<uint8_t> owned_dangling_;
  /// Distinct boundary sources, ascending global ids (the handshake ack
  /// publishes this; sweep-request boundary vectors use this order).
  std::vector<NodeId> boundary_sources_;
  /// Slot of each in-CSR position in vals_ (ShardSourceSlots).
  std::vector<NodeId> src_slot_;

  mutable std::mutex mu_;
  /// Session currently claiming the shard; 0 = unclaimed.
  uint64_t claimed_by_ = 0;

  // --- per-solve state (valid while solve_active_) ---
  bool solve_active_ = false;
  uint64_t solve_id_ = 0;
  uint32_t method_ = 0;
  DanglingPolicy dangling_policy_ = DanglingPolicy::kTeleport;
  double alpha_ = 0.85;
  /// Owned slice of the teleport vector.
  std::vector<double> teleport_;
  /// Iterate scratch: [owned values | boundary values], indexed by
  /// src_slot_. The owned prefix is the retained slice.
  std::vector<double> vals_;
  /// Power's double buffer for the new owned slice (GS sweeps in place).
  std::vector<double> next_;
  /// Last executed sweep (0 before the first) and its cached reply
  /// payload, re-sent verbatim when the coordinator retries.
  uint32_t last_sweep_ = 0;
  std::vector<uint8_t> cached_reply_;

  int64_t sweeps_executed_ = 0;
};

}  // namespace d2pr

#endif  // D2PR_DIST_SHARD_WORKER_H_
