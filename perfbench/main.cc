// The repository benchmark's binary (built and launched by
// perfbench/run.py). One invocation runs one workload for --seconds and
// prints, as its last two stdout lines, the detailed report and the
// contract object. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work_dir DIR [--scale full|tiny] "
               "[--commit ID]\n"
               "workloads: live_scoring durable_recovery lineage_queries "
               "sharded_ingest\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  bool have_workload = false, have_seed = false, have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || options->seconds <= 0.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--work_dir") {
      options->work_dir = value;
      have_dir = true;
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") return false;
      options->tiny = value == "tiny";
    } else if (key == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_dir;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
#ifndef PERFBENCH_TRACED
  if (options.trace) {
    std::fprintf(stderr, "error: --trace 1 runs in perfbench_traced\n");
    return 2;
  }
#endif
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 1;
  }
  perfbench::Result result;
  int rc = 2;
  if (options.workload == "live_scoring") {
    rc = perfbench::RunLiveScoring(options, result);
  } else if (options.workload == "durable_recovery") {
    rc = perfbench::RunDurableRecovery(options, result);
  } else if (options.workload == "lineage_queries") {
    rc = perfbench::RunLineageQueries(options, result);
  } else if (options.workload == "sharded_ingest") {
    rc = perfbench::RunShardedIngest(options, result);
  } else {
    Usage();
  }
  if (rc != 0) return rc;
  std::printf("report %s\n", result.ReportJson(options).c_str());
  std::printf("%s\n", result.ContractJson().c_str());
  std::fflush(stdout);
  return 0;
}
