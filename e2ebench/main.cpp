// e2ebench: end-to-end and per-layer benchmark of the durable checkpoint
// path. Usage:
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --dir <scratch directory>
//
// A traced run prints its per-layer metric table, a details line
// ({"details": ...}), and as its last line the result: {"correct",
// "attempted", "failed", "metrics"}. An untraced run prints one details line
// holding its raw samples and its attempted and failed op counts; run.py, the
// benchmark's entry point, pools several such processes into the end-to-end
// metrics and prints the result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <path>\nworkloads:",
               why);
  for (const std::string& w : e2e::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(64);
}

e2e::RunOptions parse(int argc, char** argv) {
  e2e::RunOptions o;
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--dir") {
        o.dir = value;
        have_dir = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_dir) usage("--workload and --dir are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::RunOptions o = parse(argc, argv);
  e2e::Outcome out;
  try {
    std::filesystem::create_directories(o.dir);
    out = e2e::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }

  std::vector<std::pair<std::string, std::string>> details = {
      {"workload", e2e::json_string(o.workload)},
      {"attempted", std::to_string(out.attempted)},
      {"failed", std::to_string(out.failed)}};
  details.insert(details.end(), out.details.begin(), out.details.end());
  if (!o.trace) {
    std::printf("{\"details\":%s}\n", e2e::json_object(details).c_str());
    return 0;
  }

  std::printf("workload %s  seed %llu  seconds %g  trace 1\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds);
  for (const e2e::Metric& m : out.metrics)
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"details\":%s}\n", e2e::json_object(details).c_str());

  std::vector<std::pair<std::string, std::string>> metrics;
  for (const e2e::Metric& m : out.metrics)
    metrics.emplace_back(
        m.name, e2e::json_object({{"value", e2e::json_number(m.value)},
                                  {"unit", e2e::json_string(m.unit)}}));
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("%s\n",
              e2e::json_object(
                  {{"correct", correct ? "true" : "false"},
                   {"attempted", std::to_string(out.attempted)},
                   {"failed", std::to_string(out.failed)},
                   {"metrics", e2e::json_object(metrics)}})
                  .c_str());
  return 0;
}
