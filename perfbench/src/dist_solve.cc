// dist_solve: repeated global power solves (p = 0.5) over a 4-shard fleet
// of `d2pr_server --shard-role --shard-file` processes, cut beforehand by
// `d2pr_partition_cut` (hash scheme) and driven over loopback by a
// DistributedCoordinator in this process. One operation is one solve.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/block_solver.h"
#include "core/pagerank.h"
#include "core/teleport.h"
#include "core/transition_slices.h"
#include "datagen/classic_generators.h"
#include "dist/channel.h"
#include "dist/coordinator.h"
#include "dist/shard_worker.h"
#include "graph/graph_fingerprint.h"
#include "graph/partition.h"
#include "graph/shard_cut.h"
#include "net/shard_wire.h"
#include "reference.h"

namespace perfbench {

using namespace d2pr;
namespace fs = std::filesystem;

namespace {

constexpr size_t kShards = 4;
constexpr int32_t kEdgesPerNode = 8;
constexpr double kP = 0.5;
constexpr PartitionScheme kScheme = PartitionScheme::kHash;

PagerankOptions SolveOptions() {
  PagerankOptions options;
  options.alpha = 0.85;
  options.tolerance = 1e-10;
  options.max_iterations = 200;
  return options;
}

/// Decorates a ShardChannel: counts frame bytes both ways and, when
/// timing, the wall time of each sweep call and of the shard-wire codec
/// work its two frames carry (re-run by the benchmark on copies).
class TracingChannel : public ShardChannel {
 public:
  TracingChannel(ShardChannel& inner, bool timing)
      : inner_(inner), timing_(timing) {}

  Result<ShardFrame> Call(const ShardFrame& request, int64_t deadline_ms) override {
    const double t0 = timing_ ? Now() : 0.0;
    Result<ShardFrame> reply = inner_.Call(request, deadline_ms);
    const double t1 = timing_ ? Now() : 0.0;
    bytes_down += static_cast<double>(request.payload.size() + kFrameHeaderBytes);
    if (reply.ok()) {
      bytes_up += static_cast<double>(reply->payload.size() + kFrameHeaderBytes);
    }
    if (timing_ && request.type == FrameType::kSweepRequest && reply.ok()) {
      sweep_call_s += t1 - t0;
      const double c0 = Now();
      auto req = DecodeShardSweepRequest(request.payload);
      auto rep = DecodeShardSweepResponse(reply->payload);
      if (req.ok()) (void)EncodeShardSweepRequest(*req);
      if (rep.ok()) (void)EncodeShardSweepResponse(*rep);
      codec_s += Now() - c0;
    }
    return reply;
  }

  double bytes_down = 0, bytes_up = 0;
  double sweep_call_s = 0, codec_s = 0;

 private:
  ShardChannel& inner_;
  bool timing_;
};

struct Fleet {
  std::vector<std::unique_ptr<ChildProcess>> processes;
  std::vector<std::unique_ptr<ShardChannel>> sockets;
  std::vector<std::unique_ptr<TracingChannel>> channels;

  std::vector<ShardChannel*> raw() const {
    std::vector<ShardChannel*> out;
    for (const auto& c : channels) out.push_back(c.get());
    return out;
  }
  double Sum(double TracingChannel::*field) const {
    double total = 0;
    for (const auto& c : channels) total += (*c).*field;
    return total;
  }
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

Outcome RunDistSolve(const Args& args, Report* report) {
  Outcome outcome;
  const NodeId num_nodes = args.small ? 4000 : 50000;
  // The cut tool takes the generator seed as a flag; keep it in int range.
  const int64_t gen_seed = static_cast<int64_t>(args.seed % 2147483647ULL);
  const std::string bin = args.bin_dir + "/";
  const fs::path cut_dir = fs::path(args.work_dir) / "cuts";

  // --- set-up: graph, cut files, shard processes, handshake, warm-up ---
  const double gen_start = Now();
  Rng rng(static_cast<uint64_t>(gen_seed));
  Result<CsrGraph> generated = BarabasiAlbert(num_nodes, kEdgesPerNode, &rng);
  if (!generated.ok()) {
    std::fprintf(stderr, "dist_solve: %s\n", generated.status().ToString().c_str());
    return outcome;
  }
  const CsrGraph graph = std::move(generated).value();
  const double datagen_s = Now() - gen_start;
  const uint64_t fingerprint = GraphFingerprint(graph);

  std::string error;
  {
    ChildProcess cut;
    if (!cut.Start({bin + "d2pr_partition_cut", "--out-dir=" + cut_dir.string(),
                    "--shards=" + std::to_string(kShards), "--scheme=hash",
                    "--nodes=" + std::to_string(num_nodes),
                    "--edges-per-node=" + std::to_string(kEdgesPerNode),
                    "--gen-seed=" + std::to_string(gen_seed)},
                   &error) ||
        cut.Wait(120.0) != 0) {
      std::fprintf(stderr, "dist_solve: d2pr_partition_cut failed %s\n", error.c_str());
      return outcome;
    }
  }

  Fleet fleet;
  for (size_t s = 0; s < kShards; ++s) {
    // The file name carries the fingerprint, so finding it proves the tool
    // cut the same graph this process generated.
    const fs::path file = cut_dir / ShardCutFileName(fingerprint, kScheme, kShards, s);
    if (!fs::exists(file)) {
      std::fprintf(stderr, "dist_solve: missing cut %s\n", file.c_str());
      return outcome;
    }
    auto process = std::make_unique<ChildProcess>();
    if (!process->Start({bin + "d2pr_server", "--shard-role",
                         "--shard-file=" + file.string(), "--p=0.5"},
                        &error)) {
      std::fprintf(stderr, "dist_solve: %s\n", error.c_str());
      return outcome;
    }
    fleet.processes.push_back(std::move(process));
  }
  for (size_t s = 0; s < kShards; ++s) {
    std::string line;
    const std::string prefix = "listening on 127.0.0.1:";
    if (!fleet.processes[s]->ReadLine(60.0, &line) || line.rfind(prefix, 0) != 0) {
      std::fprintf(stderr, "dist_solve: shard %zu did not start\n", s);
      return outcome;
    }
    const uint16_t port = static_cast<uint16_t>(std::stoi(line.substr(prefix.size())));
    auto channel = SocketShardChannel::Connect("127.0.0.1", port);
    if (!channel.ok()) {
      std::fprintf(stderr, "dist_solve: %s\n", channel.status().ToString().c_str());
      return outcome;
    }
    fleet.sockets.push_back(std::move(channel).value());
    fleet.channels.push_back(
        std::make_unique<TracingChannel>(*fleet.sockets.back(), args.trace));
  }

  CoordinatorOptions options;
  options.scheme = kScheme;
  options.num_nodes = num_nodes;
  options.graph_fingerprint = fingerprint;
  options.key = ResolveTransitionKey(graph, {kP, 0.0, DegreeMetric::kAuto});
  options.metric_values = MetricValues(graph, options.key.metric);
  DistributedCoordinator coordinator(fleet.raw(), options);
  const Status handshake = coordinator.Handshake();
  if (!handshake.ok()) {
    std::fprintf(stderr, "dist_solve: handshake: %s\n", handshake.ToString().c_str());
    return outcome;
  }
  const std::vector<double> teleport = UniformTeleport(num_nodes);
  // The first solve ships the metric vector and builds each shard's slice.
  Result<PagerankResult> warm = coordinator.Solve(SolverMethod::kPower, teleport, SolveOptions());
  if (!warm.ok()) {
    std::fprintf(stderr, "dist_solve: warm-up solve: %s\n", warm.status().ToString().c_str());
    return outcome;
  }
  const double setup_s = SinceStart();

  // --- measured loop: whole solves until the time budget is spent ---
  Checks checks;
  std::vector<double> solve_ms;
  const int64_t sweeps_before = coordinator.stats().sweeps;
  const double down_before = fleet.Sum(&TracingChannel::bytes_down);
  const double up_before = fleet.Sum(&TracingChannel::bytes_up);
  const double deadline = Now() + args.seconds;
  do {
    ++outcome.attempted;
    const double t0 = Now();
    Result<PagerankResult> solved = coordinator.Solve(SolverMethod::kPower, teleport, SolveOptions());
    const double t1 = Now();
    if (!solved.ok()) {
      ++outcome.failed;
      std::fprintf(stderr, "dist_solve: %s\n", solved.status().ToString().c_str());
      continue;
    }
    solve_ms.push_back((t1 - t0) * 1e3);
    checks.Expect(SameBits(solved->scores, warm->scores) &&
                      solved->iterations == warm->iterations,
                  "a repeated solve differs from the first");
  } while (Now() < deadline);
  const double solves = static_cast<double>(solve_ms.size());
  const double rounds = static_cast<double>(coordinator.stats().sweeps - sweeps_before);
  const double bytes_down = fleet.Sum(&TracingChannel::bytes_down) - down_before;
  const double bytes_up = fleet.Sum(&TracingChannel::bytes_up) - up_before;

  // Read before the checks below, which build a reference partition.
  const double driver_rss = SelfPeakRssMb();
  double shard_rss = 0.0, shard_rss_max = 0.0;
  for (const auto& process : fleet.processes) {
    const double rss = PeakRssMb(process->pid());
    shard_rss += rss;
    shard_rss_max = std::max(shard_rss_max, rss);
  }
  for (auto& process : fleet.processes) process->Stop();

  // --- output checks ---
  PartitionOptions popts;
  popts.scheme = kScheme;
  popts.num_shards = kShards;
  Result<GraphPartition> partition = GraphPartition::Build(graph, popts);
  Result<TransitionSlices> slices = Status::Internal("no partition");
  if (partition.ok()) slices = BuildTransitionSlicesLocal(graph, *partition, {kP, 0.0, DegreeMetric::kAuto});
  std::vector<double> slice_sweep_us;
  if (!slices.ok()) {
    checks.Expect(false, "reference partition: " + slices.status().ToString());
  } else {
    BlockParallelFor timed = [&](size_t count, const std::function<void(size_t)>& fn) {
      for (size_t s = 0; s < count; ++s) {
        const double t0 = Now();
        fn(s);
        slice_sweep_us.push_back((Now() - t0) * 1e6);
      }
    };
    Result<PagerankResult> reference = SolvePagerankPartitioned(
        *slices, *partition, teleport, SolveOptions(), args.trace ? timed : BlockParallelFor{});
    checks.Expect(reference.ok() && SameBits(reference->scores, warm->scores) &&
                      reference->iterations == warm->iterations,
                  "distributed scores are not bitwise SolvePagerankPartitioned");
  }
  const std::vector<double> probs = DecoupledProbs(graph, kP);
  const std::vector<double> own = PowerIterate(graph, probs, teleport, 0.85, 1e-14, 400);
  const double l1 = L1Distance(own, warm->scores);
  checks.Expect(l1 <= 1e-9, "distributed scores are " + std::to_string(l1) +
                                " from the benchmark's own power iteration (L1)");

  report->Metric("setup_s", setup_s, "s");
  report->Metric("op_ms", Median(solve_ms), "ms");
  report->Metric("ops_per_s", solves / (Sum(solve_ms) / 1e3), "1/s");
  report->Metric("work_per_op", warm->iterations, "count");
  report->Metric("moved_kb_per_op", (bytes_down + bytes_up) / solves / 1024.0, "KB");
  report->Metric("peak_rss_mb", driver_rss + shard_rss, "MB");

  report->Metric("datagen.graphs_s", datagen_s, "s");
  report->Metric("dist.bytes_down", bytes_down / solves, "bytes");
  report->Metric("dist.bytes_up", bytes_up / solves, "bytes");
  report->Metric("dist.shard_rss_mb", shard_rss_max, "MB");
  report->Metric("trace.op_ms", Median(solve_ms), "ms");
  if (args.trace) {
    const double round_ms = Sum(solve_ms) / rounds;
    const double wait_ms = fleet.Sum(&TracingChannel::sweep_call_s) * 1e3 / rounds;
    report->Metric("dist.round_ms", round_ms, "ms");
    report->Metric("dist.channel_wait_ms", wait_ms, "ms");
    report->Metric("dist.coordinator_self_ms", round_ms - wait_ms, "ms");
    report->Metric("dist.codec_ms", fleet.Sum(&TracingChannel::codec_s) * 1e3 / rounds, "ms");
    report->Metric("core.slice_sweep_us", Median(slice_sweep_us), "us");

    // The graph layer's cut I/O, on the benchmark's own calls.
    const fs::path trace_dir = fs::path(args.work_dir) / "trace_cuts";
    fs::create_directories(trace_dir);
    PartitionOptions cut_opts = popts;
    cut_opts.build_out_csr = true;
    Result<GraphPartition> cut_partition = GraphPartition::Build(graph, cut_opts);
    double write_s = 0, load_s = 0;
    std::vector<std::string> paths;
    for (size_t s = 0; cut_partition.ok() && s < kShards; ++s) {
      paths.push_back((trace_dir / ShardCutFileName(fingerprint, kScheme, kShards, s)).string());
      const double t0 = Now();
      const Status saved = SaveShardCut(graph, *cut_partition, s, paths.back());
      write_s += Now() - t0;
      checks.Expect(saved.ok(), "SaveShardCut: " + saved.ToString());
      const double t1 = Now();
      const bool loaded = LoadShardCut(paths.back()).ok();
      load_s += Now() - t1;
      checks.Expect(loaded, "LoadShardCut failed");
    }
    report->Metric("graph.cut_write_s", write_s, "s");
    report->Metric("graph.cut_load_s", load_s, "s");

    // Worker time per round: the same fleet in-process, no sockets.
    std::vector<std::unique_ptr<ShardWorker>> workers;
    std::vector<std::unique_ptr<InProcessShardChannel>> direct;
    std::vector<std::unique_ptr<TracingChannel>> timed;
    std::vector<ShardChannel*> raw;
    for (const std::string& path : paths) {
      auto worker = ShardWorker::CreateFromCutFile(path, {kP, 0.0, DegreeMetric::kAuto});
      if (!worker.ok()) break;
      workers.push_back(std::move(worker).value());
      direct.push_back(std::make_unique<InProcessShardChannel>(*workers.back()));
      timed.push_back(std::make_unique<TracingChannel>(*direct.back(), true));
      raw.push_back(timed.back().get());
    }
    if (raw.size() == kShards) {
      DistributedCoordinator local(raw, options);
      if (local.Handshake().ok() &&
          local.Solve(SolverMethod::kPower, teleport, SolveOptions()).ok()) {
        double call_s = 0;
        for (const auto& c : timed) call_s -= c->sweep_call_s;
        const int64_t before = local.stats().sweeps;
        constexpr int kLocalSolves = 3;
        for (int i = 0; i < kLocalSolves; ++i) {
          (void)local.Solve(SolverMethod::kPower, teleport, SolveOptions());
        }
        for (const auto& c : timed) call_s += c->sweep_call_s;
        report->Metric("dist.worker_ms",
                       call_s * 1e3 / static_cast<double>(local.stats().sweeps - before), "ms");
      }
    }
    fs::remove_all(trace_dir);

    const double build_start = Now();
    Result<TransitionMatrix> transition = TransitionMatrix::Build(graph, {kP, 0.0, DegreeMetric::kAuto});
    report->Metric("core.transition_build_ms", (Now() - build_start) * 1e3, "ms");
    if (transition.ok()) {
      const double t0 = Now();
      Result<PagerankResult> whole = SolvePagerank(graph, *transition, teleport, SolveOptions());
      const double solve_s = Now() - t0;
      if (whole.ok() && whole->iterations > 0) {
        const double bytes = SweepBytes(graph);
        report->Metric("core.power_sweep_us", solve_s / whole->iterations * 1e6, "us");
        report->Metric("core.sweep_bytes", bytes, "bytes");
        report->Metric("core.sweep_gbps", bytes * whole->iterations / solve_s / 1e9, "GB/s");
      }
    }
  }
  outcome.correct = checks.ok();
  std::fprintf(stderr,
               "dist_solve: %zu solves, %d iterations each, median %.2f ms, "
               "L1 to own iteration %.3g\n",
               solve_ms.size(), warm->iterations, Median(solve_ms), l1);
  return outcome;
}

}  // namespace perfbench
