#include <charconv>
#include <cmath>

#include "common.h"

namespace perfbench {

namespace {

constexpr std::pair<Workload, std::string_view> kWorkloads[] = {
    {Workload::kFleetHonest, "fleet_honest"},
    {Workload::kFleetAdversarial, "fleet_adversarial"},
    {Workload::kIngestAudit, "ingest_audit"},
};

void append_number(std::string& out, double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);  // shortest round-trip
  out.append(buf, ec == std::errc{} ? end : buf);
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto& [w, n] : kWorkloads) {
    if (n == name) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload workload) noexcept {
  for (const auto& [w, n] : kWorkloads) {
    if (w == workload) return n.data();
  }
  return "unknown";
}

const Metric* Result::find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Result run_workload(const Options& options) {
  return options.workload == Workload::kIngestAudit ? run_ingest(options)
                                                    : run_fleet(options);
}

std::string result_json(const Result& result) {
  bool finite = true;
  for (const Metric& m : result.metrics) finite = finite && std::isfinite(m.value);
  const bool correct = finite && result.attempted > 0 && result.failed == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) out += ", ";
    append_string(out, m.name);
    out += ": {\"value\": ";
    append_number(out, std::isfinite(m.value) ? m.value : 0.0);
    out += ", \"unit\": ";
    append_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
