#include "common.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

namespace perfbench {
namespace {

double g_start = 0.0;

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MarkStart() { g_start = Now(); }

double SinceStart() { return Now() - g_start; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double SweepBytes(const d2pr::CsrGraph& graph) {
  const double n = graph.num_nodes();
  const double m = static_cast<double>(graph.num_arcs());
  return (n + 1) * sizeof(d2pr::EdgeIndex) +
         m * (sizeof(d2pr::NodeId) + sizeof(double)) + 3 * n * sizeof(double);
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Checks::Expect(bool condition, const std::string& what) {
  if (condition) return;
  // Report the first few failures; one is enough to fail the run.
  if (++failures_ <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

bool Report::Complete(
    const std::vector<std::pair<std::string, std::string>>& wanted,
    bool zero_fill) {
  std::map<std::string, std::pair<double, std::string>> kept;
  bool complete = true;
  for (const auto& [name, unit] : wanted) {
    auto it = metrics_.find(name);
    if (it != metrics_.end()) {
      kept[name] = it->second;
    } else if (zero_fill) {
      kept[name] = {0.0, unit};
    } else {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      complete = false;
    }
  }
  metrics_ = std::move(kept);
  return complete;
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(value, sizeof(value), "%.12g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

ChildProcess::~ChildProcess() { Stop(); }

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> raw;
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execv(raw[0], raw.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  return true;
}

bool ChildProcess::ReadLine(double timeout_s, std::string* line) {
  const double deadline = Now() + timeout_s;
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    const double left = deadline - Now();
    if (left <= 0 || out_fd_ < 0) return false;
    struct pollfd pfd {out_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

int ChildProcess::Wait(double timeout_s) {
  if (pid_ < 0) return -1;
  const double deadline = Now() + timeout_s;
  while (true) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (out_fd_ >= 0) close(out_fd_);
      out_fd_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (Now() > deadline) {
      Stop();
      return -1;
    }
    usleep(2000);
  }
}

void ChildProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    const double deadline = Now() + 5.0;
    bool reaped = false;
    while (!reaped && Now() < deadline) {
      const pid_t done = waitpid(pid_, nullptr, WNOHANG);
      reaped = done == pid_ || (done < 0 && errno != EINTR);
      if (!reaped) usleep(2000);
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"op_ms", "ms"},
      {"ops_per_s", "1/s"},      {"work_per_op", "count"},
      {"moved_kb_per_op", "KB"}, {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"datagen.graphs_s", "s"},
      {"graph.cut_write_s", "s"},
      {"graph.cut_load_s", "s"},
      {"core.transition_build_ms", "ms"},
      {"core.power_sweep_us", "us"},
      {"core.sweep_bytes", "bytes"},
      {"core.sweep_gbps", "GB/s"},
      {"core.slice_sweep_us", "us"},
      {"api.transition_lookups", "count"},
      {"api.transition_cache_hits", "count"},
      {"stats.spearman_ms", "ms"},
      {"topk.pushes_per_query", "count"},
      {"topk.certified_share", "share"},
      {"topk.solve_ms_p50", "ms"},
      {"topk.solve_ms_p90", "ms"},
      {"serve.memo_hits", "count"},
      {"serve.memo_lookups", "count"},
      {"serve.engine_solves", "count"},
      {"serve.coalesce_joins", "count"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.backend_ms_p50", "ms"},
      {"net.overhead_ms_p50", "ms"},
      {"net.response_bytes", "bytes"},
      {"dist.round_ms", "ms"},
      {"dist.channel_wait_ms", "ms"},
      {"dist.coordinator_self_ms", "ms"},
      {"dist.codec_ms", "ms"},
      {"dist.worker_ms", "ms"},
      {"dist.bytes_down", "bytes"},
      {"dist.bytes_up", "bytes"},
      {"dist.shard_rss_mb", "MB"},
      {"trace.op_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace perfbench
