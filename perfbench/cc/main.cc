// perfbench: the repository benchmark.
//
//   perfbench --workload <tpcds_power|bi_concurrent|etl_mixed|mpp_tpcds>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt-digest] [--trace-out <dir>]
//
// Prints a metadata line, one "name = value unit" line per metric, and as
// the last line the JSON result {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when any result differs from the reference.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--corrupt-digest] "
               "[--trace-out <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--trace-out") {
        opt.trace_out = value();
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--corrupt-digest") {
        opt.corrupt_digest = true;
      } else {
        Usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) Usage("--seconds out of range");
  if (opt.trace) ::mkdir(opt.trace_out.c_str(), 0755);

  perfbench::RunResult r = perfbench::RunWorkload(opt);
  r.meta["workload"] = opt.workload;
  r.meta["seed"] = std::to_string(opt.seed);
  r.meta["seconds"] = std::to_string(opt.seconds);
  r.meta["trace"] = opt.trace ? "1" : "0";
  r.meta["host_cores"] = std::to_string(std::thread::hardware_concurrency());
  r.meta["compiler"] = PERFBENCH_COMPILER;
  r.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  if (const char* rev = std::getenv("PERFBENCH_COMMIT")) r.meta["commit"] = rev;
  if (opt.tiny) r.meta["scale"] += " (tiny)";

  std::printf("%s\n", perfbench::MetaJson(r).c_str());
  for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
  r.printed.push_back({"error_rate",
                       r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0,
                       "fraction"});
  for (const auto* list : {&r.metrics, &r.printed}) {
    for (const auto& m : *list) {
      std::printf("%-32s = %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("%s\n", perfbench::ResultJson(r).c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
