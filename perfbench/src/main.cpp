// The benchmark binary.  run.py builds it and calls it twice per fleet run:
//
//   rdtgc_perfbench measure --workload W --seed S --seconds T --trace 0|1
//                            --scratch DIR [--gc none] [--small]
//   rdtgc_perfbench gate    --workload W --scratch DIR [--trace 0|1]
//
// `measure` runs the workload and prints one JSON object (attempted,
// failed, errors, metrics, report) as its last stdout line; `gate`
// certifies the fleet episodes `measure` left under DIR and prints the same
// shape.  Exit status 0 means the invocation ran, not that the run was
// correct: the failed count says that.
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

constexpr const char* kWorkloads[] = {"fleet-steady", "fleet-chaos",
                                      "sim-gossip64", "sim-log-ckpt"};

int usage(const char* why) {
  std::cerr << "rdtgc_perfbench: " << why
            << "\nusage: rdtgc_perfbench measure|gate --workload "
               "fleet-steady|fleet-chaos|sim-gossip64|sim-log-ckpt "
               "--scratch DIR [--seed N] [--seconds S] [--trace 0|1] "
               "[--gc rdt-lgc|none] [--small]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
    return usage("refusing to measure a non-Release build "
                 "(CMAKE_BUILD_TYPE='" PERFBENCH_BUILD_TYPE "')");
  if (argc < 2) return usage("missing mode");
  const std::string mode = argv[1];
  perfbench::RunOptions options;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--small") {
        options.small = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--scratch") {
        options.scratch = value;
      } else if (flag == "--gc") {
        options.gc = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= options.workload == w;
  if (!known) return usage("unknown workload");
  if (options.scratch.empty()) return usage("missing --scratch");
  if (options.gc != "rdt-lgc" && options.gc != "none")
    return usage("--gc must be rdt-lgc or none");
  const bool fleet = options.workload.rfind("fleet-", 0) == 0;

  perfbench::Results results;
  try {
    if (mode == "measure") {
      if (fleet) {
        perfbench::run_fleet(options, results);
      } else {
        perfbench::run_sim(options, results);
      }
    } else if (mode == "gate" && fleet) {
      perfbench::gate_fleet(options, results);
    } else {
      return usage("unknown mode for this workload");
    }
  } catch (const std::exception& e) {
    results.fail(results.attempted() > 0 ? results.attempted() : 1,
                 std::string("exception: ") + e.what());
  }
  std::cout << results.to_json() << std::endl;
  return 0;
}
