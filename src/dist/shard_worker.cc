#include "dist/shard_worker.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "api/rank_request.h"
#include "common/string_util.h"
#include "core/block_solver.h"
#include "core/sweep_kernel.h"
#include "core/transition_slices.h"
#include "graph/graph_fingerprint.h"
#include "net/shard_wire.h"

namespace d2pr {

namespace {

/// Bitwise double comparison (NaN-safe: a key is built from finite
/// request fields, but memcmp semantics keep the contract exact).
bool SameBits(double a, double b) {
  uint64_t ab = 0;
  uint64_t bb = 0;
  static_assert(sizeof(ab) == sizeof(a));
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.size() * sizeof(T));
}

int64_t ShardBytes(const PartitionShard& shard) {
  return VectorBytes(shard.owned) + VectorBytes(shard.out_offsets) +
         VectorBytes(shard.out_targets) + VectorBytes(shard.out_arc_begin) +
         VectorBytes(shard.in_offsets) + VectorBytes(shard.in_sources) +
         VectorBytes(shard.in_arc_index) + VectorBytes(shard.in_interior) +
         VectorBytes(shard.dangling_owned);
}

}  // namespace

ShardWorker::ShardWorker(ShardWorkerOptions options, uint64_t fingerprint,
                         ResolvedKey key)
    : options_(std::move(options)),
      graph_fingerprint_(fingerprint),
      key_(key) {}

Result<std::unique_ptr<ShardWorker>> ShardWorker::Create(
    const CsrGraph& graph, const ShardWorkerOptions& options) {
  if (options.shard_id >= options.num_shards) {
    return Status::InvalidArgument(
        StrCat("shard_id ", options.shard_id, " not below num_shards ",
               options.num_shards));
  }

  PartitionOptions popts;
  popts.scheme = options.scheme;
  popts.num_shards = options.num_shards;
  // The pull-side block sweep never reads the forward slice.
  popts.build_out_csr = false;
  Result<GraphPartition> partition = GraphPartition::Build(graph, popts);
  if (!partition.ok()) return partition.status();

  TransitionSlices slices;
  D2PR_ASSIGN_OR_RETURN(
      slices, BuildTransitionSlicesLocal(graph, *partition, options.config));

  // Normalize the transition key exactly as D2prEngine does before cache
  // lookups, so the coordinator's handshake key (normalized the same
  // way) compares bitwise.
  ResolvedKey key;
  key.p = options.config.p;
  key.beta = graph.weighted() ? options.config.beta : 0.0;
  key.metric = ResolveMetric(graph, options.config.metric);

  auto worker = std::unique_ptr<ShardWorker>(
      new ShardWorker(options, GraphFingerprint(graph), key));
  worker->num_nodes_ = static_cast<uint64_t>(graph.num_nodes());
  worker->num_arcs_ = static_cast<uint64_t>(graph.num_arcs());
  worker->shard_ = partition->shard(options.shard_id);
  worker->probs_ = std::move(slices.in_probs[options.shard_id]);
  worker->slice_ready_ = true;
  // The whole graph's CSR bytes: what this path forces every shard
  // process to ingest (the cut path's build_input_bytes is its cut).
  worker->build_input_bytes_ =
      static_cast<int64_t>((graph.num_nodes() + 1) * sizeof(EdgeIndex)) +
      static_cast<int64_t>(graph.num_arcs()) *
          static_cast<int64_t>(sizeof(NodeId) +
                               (graph.weighted() ? sizeof(double) : 0));
  worker->InitDerivedIndexes(worker->shard_);
  return worker;
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::CreateFromCutFile(
    const std::string& path, const TransitionConfig& config) {
  Result<ShardCut> loaded = LoadShardCut(path);
  if (!loaded.ok()) return loaded.status();
  auto cut = std::make_unique<ShardCut>(std::move(*loaded));

  // Fail a bad config at create time, not at the first solve.
  if (Status s = ValidateTransitionConfig(cut->meta.weighted, config);
      !s.ok()) {
    return s;
  }

  ShardWorkerOptions options;
  options.shard_id = cut->meta.shard_id;
  options.num_shards = cut->meta.num_shards;
  options.scheme = cut->meta.scheme;
  options.config = config;

  // Same normalization as the graph path, resolved from the cut's
  // weightedness — bitwise the key Create() would compute for the
  // source graph.
  ResolvedKey key;
  key.p = config.p;
  key.beta = cut->meta.weighted ? config.beta : 0.0;
  key.metric = ResolveMetric(cut->meta.weighted, config.metric);

  auto worker = std::unique_ptr<ShardWorker>(
      new ShardWorker(options, cut->meta.graph_fingerprint, key));
  worker->num_nodes_ = static_cast<uint64_t>(cut->meta.num_nodes);
  worker->num_arcs_ = static_cast<uint64_t>(cut->meta.num_arcs);
  worker->build_input_bytes_ = cut->payload_bytes();
  worker->InitDerivedIndexes(cut->shard);
  // The cut stays intact (ghost rows + weights next to the shard) until
  // the first solve begin ships the metric vector and the slice builds;
  // until then live_shard() reads through it.
  worker->cut_ = std::move(cut);
  return worker;
}

void ShardWorker::InitDerivedIndexes(const PartitionShard& shard) {
  owned_dangling_.assign(shard.owned.size(), 0);
  for (NodeId v : shard.dangling_owned) {
    const auto it =
        std::lower_bound(shard.owned.begin(), shard.owned.end(), v);
    owned_dangling_[static_cast<size_t>(it - shard.owned.begin())] = 1;
  }

  boundary_sources_ = ShardBoundarySources(shard);
  src_slot_ = ShardSourceSlots(shard, boundary_sources_);
}

ShardFrame ShardWorker::StatusReply(uint64_t request_id,
                                    const Status& status) const {
  ShardFrame reply;
  reply.type = FrameType::kStatus;
  reply.request_id = request_id;
  reply.payload = EncodeStatusPayload(status);
  return reply;
}

Result<ShardFrame> ShardWorker::Handle(const ShardFrame& request,
                                       uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (request.type) {
    case FrameType::kShardHandshake:
      return HandleHandshake(request, session_id);
    case FrameType::kSolveBegin:
      return HandleSolveBegin(request, session_id);
    case FrameType::kSweepRequest:
      return HandleSweep(request, session_id);
    case FrameType::kSolveEnd:
      return HandleSolveEnd(request, session_id);
    default:
      // Not part of the shard vocabulary at all — the stream is confused
      // about who it is talking to; the connection must close.
      return Status::InvalidArgument(
          StrCat("shard worker received frame type ",
                 static_cast<int>(request.type)));
  }
}

ShardFrame ShardWorker::HandleHandshake(const ShardFrame& request,
                                        uint64_t session_id) {
  Result<ShardHandshake> decoded = DecodeShardHandshake(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  const ShardHandshake& h = *decoded;

  // Distinct rejection codes, checked most-specific first (see header).
  if (h.shard_id != options_.shard_id) {
    return StatusReply(
        request.request_id,
        Status::NotFound(StrCat("this worker hosts shard ", options_.shard_id,
                                ", not shard ", h.shard_id)));
  }
  if (h.num_shards != options_.num_shards) {
    return StatusReply(
        request.request_id,
        Status::OutOfRange(StrCat("worker partitioned for ",
                                  options_.num_shards, " shards, handshake ",
                                  "declares ", h.num_shards)));
  }
  if (h.scheme != options_.scheme) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(StrCat(
                           "worker partitioned with scheme ",
                           PartitionSchemeName(options_.scheme),
                           ", handshake declares ",
                           PartitionSchemeName(h.scheme))));
  }
  if (h.slice_build != SliceBuild::kSubgraph) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "shard workers build slices shard-locally "
                           "(SliceBuild::kSubgraph only)"));
  }
  if (h.graph_fingerprint != graph_fingerprint_) {
    return StatusReply(
        request.request_id,
        Status::FailedPrecondition(StrCat(
            "graph fingerprint mismatch: worker holds ", graph_fingerprint_,
            ", handshake declares ", h.graph_fingerprint)));
  }
  if (!SameBits(h.p, key_.p) || !SameBits(h.beta, key_.beta) ||
      h.metric != key_.metric) {
    // The comparison is bitwise, so the report must be too: default
    // stream precision prints 0.1 and 0.1+1ulp as the same "0.1",
    // which made real mismatches read as absurd self-contradictions.
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat(
            "transition key mismatch: worker resolved (p=",
            FormatExactDouble(key_.p), ", beta=", FormatExactDouble(key_.beta),
            ", metric=", static_cast<int>(key_.metric),
            "), handshake declares (p=", FormatExactDouble(h.p),
            ", beta=", FormatExactDouble(h.beta),
            ", metric=", static_cast<int>(h.metric), ")")));
  }
  if (claimed_by_ != 0 && claimed_by_ != session_id) {
    return StatusReply(
        request.request_id,
        Status::AlreadyExists(StrCat("shard ", options_.shard_id,
                                     " already claimed by a live session")));
  }
  claimed_by_ = session_id;

  const PartitionShard& shard = live_shard();
  ShardHandshakeAck ack;
  ack.num_nodes = num_nodes_;
  ack.num_arcs = num_arcs_;
  ack.num_owned = shard.owned.size();
  ack.boundary_in_arcs = static_cast<uint64_t>(shard.boundary_in_arcs);
  ack.dangling_owned = shard.dangling_owned;
  ack.boundary_sources = boundary_sources_;
  // A cut-loaded worker asks for the metric vector until its first
  // slice build; a whole-graph worker never does.
  ack.needs_metric_values = !slice_ready_;

  ShardFrame reply;
  reply.type = FrameType::kShardHandshakeAck;
  reply.request_id = request.request_id;
  reply.payload = EncodeShardHandshakeAck(ack);
  return reply;
}

ShardFrame ShardWorker::HandleSolveBegin(const ShardFrame& request,
                                         uint64_t session_id) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "solve begin from a session that never "
                           "completed a handshake"));
  }
  Result<ShardSolveBegin> decoded = DecodeShardSolveBegin(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  ShardSolveBegin begin = std::move(*decoded);

  if (begin.initial.size() != live_shard().owned.size()) {
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat(
            "solve begin carries ", begin.initial.size(),
            " owned values, shard owns ", live_shard().owned.size(),
            " nodes")));
  }
  if (begin.method == static_cast<uint32_t>(SolverMethod::kGaussSeidel)) {
    if (Status s = ValidateBlockGaussSeidelPolicy(begin.dangling); !s.ok()) {
      return StatusReply(request.request_id, s);
    }
  }

  if (!slice_ready_) {
    // Cut-loaded worker, first solve: build the slice from the cut plus
    // the broadcast metric vector the ack asked for. Wrong-sized (or
    // otherwise bad) vectors reject from BuildShardSliceFromCut with
    // its own message.
    if (begin.metric_values.empty()) {
      return StatusReply(
          request.request_id,
          Status::FailedPrecondition(
              "worker loaded from a cut file has no transition slice yet; "
              "solve begin must carry the global metric vector the "
              "handshake ack requested (needs_metric_values)"));
    }
    Result<std::vector<double>> slice =
        BuildShardSliceFromCut(*cut_, begin.metric_values, options_.config);
    if (!slice.ok()) return StatusReply(request.request_id, slice.status());
    probs_ = std::move(*slice);
    // The cut has served its purpose: keep the shard, drop the ghost
    // rows, weights, and the forward slice the sweeps never read.
    shard_ = std::move(cut_->shard);
    cut_.reset();
    shard_.out_offsets = std::vector<EdgeIndex>();
    shard_.out_targets = std::vector<NodeId>();
    shard_.out_arc_begin = std::vector<EdgeIndex>();
    slice_ready_ = true;
  }

  solve_active_ = true;
  solve_id_ = begin.solve_id;
  method_ = begin.method;
  dangling_policy_ = begin.dangling;
  alpha_ = begin.alpha;
  teleport_ = std::move(begin.teleport);
  vals_.assign(shard_.owned.size() + boundary_sources_.size(), 0.0);
  std::copy(begin.initial.begin(), begin.initial.end(), vals_.begin());
  next_.assign(shard_.owned.size(), 0.0);
  last_sweep_ = 0;
  cached_reply_.clear();

  return StatusReply(request.request_id, Status::OK());
}

ShardFrame ShardWorker::HandleSweep(const ShardFrame& request,
                                    uint64_t session_id) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "sweep from a session that never completed a "
                           "handshake"));
  }
  Result<ShardSweepRequest> decoded = DecodeShardSweepRequest(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  const ShardSweepRequest& sweep = *decoded;

  if (!solve_active_ || sweep.solve_id != solve_id_) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(StrCat(
                           "sweep for unknown solve ", sweep.solve_id)));
  }
  if (sweep.boundary.size() != boundary_sources_.size()) {
    return StatusReply(
        request.request_id,
        Status::InvalidArgument(StrCat(
            "sweep carries ", sweep.boundary.size(), " boundary values, ",
            "shard pulls ", boundary_sources_.size(), " sources")));
  }
  if (sweep.sweep == last_sweep_ && !cached_reply_.empty()) {
    // Idempotent retry: the coordinator (or a duplicating transport)
    // re-sent a sweep that already executed. Resend the cached reply —
    // re-executing would double-advance the iterate.
    ShardFrame reply;
    reply.type = FrameType::kSweepResponse;
    reply.request_id = request.request_id;
    reply.payload = cached_reply_;
    return reply;
  }
  if (sweep.sweep != last_sweep_ + 1) {
    return StatusReply(
        request.request_id,
        Status::FailedPrecondition(StrCat("sweep ", sweep.sweep,
                                          " out of order (last executed ",
                                          last_sweep_, ")")));
  }

  ExecuteSweep(sweep.dangling_mass, sweep.has_rescale, sweep.rescale,
               sweep.boundary);
  last_sweep_ = sweep.sweep;
  ++sweeps_executed_;

  ShardSweepResponse response;
  response.solve_id = solve_id_;
  response.sweep = last_sweep_;
  response.owned.assign(vals_.begin(),
                        vals_.begin() + static_cast<long>(next_.size()));
  // Advisory partials: the shard's own fold grouping (telemetry; the
  // coordinator recomputes the canonical global folds).
  response.dangling_partial = 0.0;
  for (size_t k = 0; k < owned_dangling_.size(); ++k) {
    if (owned_dangling_[k]) response.dangling_partial += vals_[k];
  }
  response.residual_partial = 0.0;
  for (size_t k = 0; k < next_.size(); ++k) {
    response.residual_partial += std::abs(vals_[k] - next_[k]);
  }
  cached_reply_ = EncodeShardSweepResponse(response);

  ShardFrame reply;
  reply.type = FrameType::kSweepResponse;
  reply.request_id = request.request_id;
  reply.payload = cached_reply_;
  return reply;
}

void ShardWorker::ExecuteSweep(double dangling_mass, bool has_rescale,
                               double rescale,
                               const std::vector<double>& boundary) {
  const size_t num_owned = shard_.owned.size();
  if (has_rescale) {
    // Replay the coordinator's NormalizeL1 on the retained slice:
    // Scale(1.0/norm) multiplies every element by the same scalar, so
    // multiplying the slice is bitwise the slice of the multiplied
    // vector.
    for (size_t k = 0; k < num_owned; ++k) vals_[k] *= rescale;
  }
  std::copy(boundary.begin(), boundary.end(), vals_.begin() + num_owned);

  // `next_` keeps the pre-sweep owned slice afterwards, for the
  // advisory residual partial.
  const SweepRows rows{shard_.in_offsets, src_slot_, probs_, teleport_,
                       owned_dangling_};
  const SweepTerms terms{alpha_, dangling_policy_, dangling_mass};
  const std::span<double> owned(vals_.data(), num_owned);
  if (method_ == static_cast<uint32_t>(SolverMethod::kPower)) {
    PowerSweep(rows, terms, vals_, owned, next_);
    std::swap_ranges(owned.begin(), owned.end(), next_.begin());
    return;
  }
  // Block Gauss-Seidel in place on the owned prefix; the boundary slots
  // hold the coordinator's frozen exchange copy.
  std::copy(owned.begin(), owned.end(), next_.begin());
  GaussSeidelSweep(rows, terms, vals_);
}

ShardFrame ShardWorker::HandleSolveEnd(const ShardFrame& request,
                                       uint64_t session_id) {
  if (claimed_by_ != session_id) {
    return StatusReply(request.request_id,
                       Status::FailedPrecondition(
                           "solve end from a session that never completed "
                           "a handshake"));
  }
  Result<ShardSolveEnd> decoded = DecodeShardSolveEnd(request.payload);
  if (!decoded.ok()) return StatusReply(request.request_id, decoded.status());
  if (solve_active_ && decoded->solve_id == solve_id_) {
    solve_active_ = false;
    teleport_.clear();
    vals_.clear();
    next_.clear();
    cached_reply_.clear();
  }
  // Ending an unknown (or already-ended) solve is OK — the coordinator
  // may retry a lost end frame.
  return StatusReply(request.request_id, Status::OK());
}

void ShardWorker::CloseSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (claimed_by_ != session_id) return;
  claimed_by_ = 0;
  solve_active_ = false;
  teleport_.clear();
  vals_.clear();
  next_.clear();
  cached_reply_.clear();
}

int64_t ShardWorker::sweeps_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sweeps_executed_;
}

int64_t ShardWorker::resident_graph_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t bytes = ShardBytes(live_shard()) + VectorBytes(boundary_sources_) +
                  VectorBytes(src_slot_) + VectorBytes(owned_dangling_);
  if (cut_) {
    bytes += VectorBytes(cut_->boundary_sources) +
             VectorBytes(cut_->ghost_offsets) +
             VectorBytes(cut_->ghost_targets) + VectorBytes(cut_->out_weights) +
             VectorBytes(cut_->in_weights) + VectorBytes(cut_->ghost_weights);
  }
  return bytes;
}

}  // namespace d2pr
