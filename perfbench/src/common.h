// Shared plumbing of the benchmark driver: arguments, statistics, the
// result line, resident-memory probes and child-process handling.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/csr_graph.h"

namespace perfbench {

/// Command-line arguments of the driver (run.py passes the first four
/// through and adds the last three).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smaller serve_zipf and dist_solve graphs: the benchmark's self-test.
  bool small = false;
  /// Directory holding d2pr_server and d2pr_partition_cut.
  std::string bin_dir;
  /// Scratch directory for cut files; removed by run.py afterwards.
  std::string work_dir;
};

/// Seconds on the steady clock.
double Now();

/// Seconds since the driver process entered main (the set-up clock).
double SinceStart();
void MarkStart();

double Median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Sum(const std::vector<double>& values);

/// Compulsory bytes one whole-graph scatter sweep streams, computed from
/// array sizes (not measured): CSR offsets, targets and per-arc
/// probabilities, the input iterate, and the output iterate written twice
/// (zero fill, final value).
double SweepBytes(const d2pr::CsrGraph& graph);

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double SelfPeakRssMb();
/// Peak resident set (VmHWM) of a live process, in MB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Collects output checks; a failed check is reported on stderr and
/// makes the run's `correct` false (and the exit code non-zero).
class Checks {
 public:
  void Expect(bool condition, const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// The driver's one result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Keeps exactly the metrics of `wanted`. A missing one is reported as 0
  /// when `zero_fill` (a layer the workload never enters) and otherwise
  /// makes this return false.
  bool Complete(const std::vector<std::pair<std::string, std::string>>& wanted,
                bool zero_fill);
  /// Prints {"correct", "attempted", "failed", "metrics"} as the last
  /// line of stdout.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// A child process whose stdout is a pipe to us. The destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it, so no child
/// outlives its owner; the child also gets SIGKILL if the driver dies.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Starts `argv[0]` with `argv`. Returns false (with `error` set) when
  /// the process cannot be started.
  bool Start(const std::vector<std::string>& argv, std::string* error);
  /// Reads one stdout line, waiting at most `timeout_s`; false on EOF or
  /// timeout.
  bool ReadLine(double timeout_s, std::string* line);
  /// Waits for the child to exit on its own; returns its exit code, or -1
  /// on a signal or after `timeout_s` (the child is then killed).
  int Wait(double timeout_s);
  /// SIGTERM, wait up to 5 s, then SIGKILL; always reaps.
  void Stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

/// What one workload run did. attempted == 0 means it could not run.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Each workload runs its set-up, the measured loop and the output checks,
/// and fills `report` with both metric sets.
Outcome RunPaperSweep(const Args& args, Report* report);
Outcome RunServeZipf(const Args& args, Report* report);
Outcome RunDistSolve(const Args& args, Report* report);

/// Every per-layer metric, so that each workload's traced run reports
/// the full set (0 for a layer the workload never enters).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// Every end-to-end metric, in the same shape.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
