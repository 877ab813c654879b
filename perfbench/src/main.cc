// perfbench_driver: runs one benchmark workload against the d2pr library
// and prints one JSON result line (see perfbench/README.md).
//
//   perfbench_driver --workload paper_sweep|serve_zipf|dist_solve
//                    --seed N --seconds S --trace 0|1
//                    [--small 0|1] --bin-dir DIR --work-dir DIR
//
// Exit code 0 when every output check passed, 1 when a check failed
// (the result line is still printed, with "correct": false), 2 on usage
// errors or when the workload could not run (no result line).

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--small 0|1] --bin-dir DIR "
               "--work-dir DIR\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--small") {
      args.small = value == "1";
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  Report report;
  Outcome outcome;
  if (args.workload == "paper_sweep") {
    outcome = RunPaperSweep(args, &report);
  } else if (args.workload == "serve_zipf") {
    outcome = RunServeZipf(args, &report);
  } else if (args.workload == "dist_solve") {
    if (args.bin_dir.empty() || args.work_dir.empty()) {
      return Usage("dist_solve needs --bin-dir and --work-dir");
    }
    outcome = RunDistSolve(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (outcome.attempted <= 0) {
    std::fprintf(stderr, "%s: no operation completed\n",
                 args.workload.c_str());
    return 2;
  }
  if (!report.Complete(args.trace ? PerLayerMetrics() : EndToEndMetrics(),
                       /*zero_fill=*/args.trace)) {
    return 2;
  }
  report.Print(outcome.correct, outcome.attempted, outcome.failed);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::MarkStart();
  return perfbench::Main(argc, argv);
}
