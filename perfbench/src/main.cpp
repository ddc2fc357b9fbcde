// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file>]
//
// Runs one workload and prints human-readable lines followed, as the last
// line of stdout, by one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when any verdict was wrong or missing, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "perfbench.h"
#include "stats.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_honest|fleet_adversarial|ingest_audit "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string_view flag{argv[i]};
      const std::string value{argv[i + 1]};
      if (flag == "--workload") {
        const auto w = perfbench::parse_workload(value);
        if (!w) return usage();
        options.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || argc % 2 == 0 || options.seconds <= 0.0) return usage();

  const perfbench::Result result = perfbench::run_workload(options);
  std::printf("workload: %s, seed %llu, %.3f s, trace %d\n",
              perfbench::to_string(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : result.log) std::printf("%s\n", line.c_str());
  std::printf("input_digest: %s\n", result.input_digest.c_str());
  std::printf("error_pct: %.6f (%llu of %llu operations)\n",
              perfbench::error_pct(result.failed, result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", perfbench::result_json(result).c_str());
  std::fflush(stdout);
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
