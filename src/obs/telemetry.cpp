#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>

#include "obs/export.h"
#include "obs/slo.h"

namespace seccloud::obs {
namespace {

std::uint64_t get_u64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? static_cast<std::uint64_t>(v->number) : 0;
}

double get_f64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : 0.0;
}

}  // namespace

const char* to_string(TelemetryRecordType type) noexcept {
  switch (type) {
    case TelemetryRecordType::kEpochSnapshot: return "epoch-snapshot";
    case TelemetryRecordType::kSloAlert: return "slo-alert";
    case TelemetryRecordType::kLedgerEntry: return "ledger-entry";
  }
  return "unknown";
}

// --- epoch snapshot JSON codec ---------------------------------------------

std::string EpochSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("epoch").value(epoch);
  w.key("epoch_ms").value(epoch_ms);
  w.key("telemetry_ms").value(telemetry_ms);
  w.key("requests").value(requests);
  w.key("stale_rejected").value(stale_rejected);
  w.key("unkeyed_rejected").value(unkeyed_rejected);
  w.key("entries").value(entries);
  w.key("batches").value(batches);
  w.key("verified_requests").value(verified_requests);
  w.key("failed_requests").value(failed_requests);
  w.key("byzantine_users").value(byzantine_users);
  w.key("assembly_pairings").value(assembly_pairings);
  w.key("verify_pairings").value(verify_pairings);
  w.key("pairings_per_batch").value(pairings_per_batch);
  w.key("bisection_oracle_calls").value(bisection_oracle_calls);
  w.key("bisection_max_depth").value(bisection_max_depth);
  w.key("queue_depth_at_drain").value(queue_depth_at_drain);
  w.key("queue_admitted").value(queue_admitted);
  w.key("queue_rejected").value(queue_rejected);
  w.key("retry_after_epochs").value(retry_after_epochs);
  w.key("shards").begin_array();
  for (const ShardHeat& s : shards) {
    w.begin_object();
    w.key("users").value(s.users);
    w.key("keyed").value(s.keyed);
    w.key("table_slots").value(s.table_slots);
    w.key("probe_max").value(s.probe_max);
    w.key("probe_total").value(s.probe_total);
    w.end_object();
  }
  w.end_array();
  w.key("counter_deltas").begin_object();
  for (const auto& [name, delta] : counter_deltas) w.key(name).value(delta);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::optional<EpochSnapshot> EpochSnapshot::from_json(std::string_view json) {
  const auto parsed = json_parse(json);
  if (!parsed || !parsed->is_object()) return std::nullopt;
  const JsonValue& obj = *parsed;
  EpochSnapshot s;
  s.epoch = get_u64(obj, "epoch");
  s.epoch_ms = get_f64(obj, "epoch_ms");
  s.telemetry_ms = get_f64(obj, "telemetry_ms");
  s.requests = get_u64(obj, "requests");
  s.stale_rejected = get_u64(obj, "stale_rejected");
  s.unkeyed_rejected = get_u64(obj, "unkeyed_rejected");
  s.entries = get_u64(obj, "entries");
  s.batches = get_u64(obj, "batches");
  s.verified_requests = get_u64(obj, "verified_requests");
  s.failed_requests = get_u64(obj, "failed_requests");
  s.byzantine_users = get_u64(obj, "byzantine_users");
  s.assembly_pairings = get_u64(obj, "assembly_pairings");
  s.verify_pairings = get_u64(obj, "verify_pairings");
  s.pairings_per_batch = get_f64(obj, "pairings_per_batch");
  s.bisection_oracle_calls = get_u64(obj, "bisection_oracle_calls");
  s.bisection_max_depth = get_u64(obj, "bisection_max_depth");
  s.queue_depth_at_drain = get_u64(obj, "queue_depth_at_drain");
  s.queue_admitted = get_u64(obj, "queue_admitted");
  s.queue_rejected = get_u64(obj, "queue_rejected");
  s.retry_after_epochs = get_u64(obj, "retry_after_epochs");
  if (const JsonValue* shards = obj.find("shards"); shards != nullptr && shards->is_array()) {
    s.shards.reserve(shards->array.size());
    for (const JsonValue& e : shards->array) {
      if (!e.is_object()) return std::nullopt;
      ShardHeat heat;
      heat.users = get_u64(e, "users");
      heat.keyed = get_u64(e, "keyed");
      heat.table_slots = get_u64(e, "table_slots");
      heat.probe_max = get_u64(e, "probe_max");
      heat.probe_total = get_u64(e, "probe_total");
      s.shards.push_back(heat);
    }
  }
  if (const JsonValue* deltas = obj.find("counter_deltas");
      deltas != nullptr && deltas->is_object()) {
    for (const auto& [name, v] : deltas->object) {
      if (!v.is_number()) return std::nullopt;
      s.counter_deltas[name] = static_cast<std::uint64_t>(v.number);
    }
  }
  return s;
}

// --- the sink --------------------------------------------------------------

TelemetrySink::TelemetrySink(MetricsRegistry& registry, TelemetrySinkConfig config)
    : registry_(&registry), config_(config), stream_(kTelemetryFormat, config.stream_id) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  last_counters_ = registry_->snapshot().counters;
}

void TelemetrySink::capture(EpochSnapshot snapshot) {
  const auto t0 = std::chrono::steady_clock::now();
  snapshot.counter_deltas.clear();  // the sink owns this field, whole
  std::map<std::string, std::uint64_t> now = registry_->snapshot().counters;
  for (const auto& [name, value] : now) {
    const auto it = last_counters_.find(name);
    const std::uint64_t prev = it == last_counters_.end() ? 0 : it->second;
    // Counters are monotonic; a reset between captures shows up as the full
    // current value rather than a wrapped delta.
    const std::uint64_t delta = value >= prev ? value - prev : value;
    if (delta != 0) snapshot.counter_deltas[name] = delta;
  }
  last_counters_ = std::move(now);

  const std::string json = snapshot.to_json();
  append_record(TelemetryRecordType::kEpochSnapshot, json);
  ring_.push_back(std::move(snapshot));
  while (ring_.size() > config_.ring_capacity) ring_.pop_front();
  capture_ms_ += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
}

void TelemetrySink::alert(const SloAlert& alert) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string json = alert.to_json();
  append_record(TelemetryRecordType::kSloAlert, json);
  capture_ms_ += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
}

void TelemetrySink::append_record(TelemetryRecordType type, std::string_view json) {
  stream_.append(type, std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
}

}  // namespace seccloud::obs
