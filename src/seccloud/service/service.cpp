#include "seccloud/service/service.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "hash/framing.h"
#include "hash/hmac_drbg.h"
#include "hash/sha256.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "seccloud/client.h"
#include "seccloud/service/ledger.h"

namespace seccloud::service {

AuditService::AuditService(const PairingGroup& group, IdentityKey verifier,
                           IdentityKey attestor, ServiceConfig config)
    : group_(&group),
      config_([&] {
        // Every bound key is a serialized G1 point, fixed width 0x04‖X‖Y,
        // followed by its serialized pairwise key, two field elements.
        config.registry.key_width = group.curve().serialize(group.generator()).size();
        config.registry.prepared_width = group.gt_serialize(group.gt_one()).size();
        return config;
      }()),
      attestor_(group, attestor, std::span{&verifier.q_id, 1}),
      verifier_(group, verifier),
      attestor_key_(verifier_.pairwise_key(attestor.q_id)),
      registry_(config_.registry),
      queue_(config_.epoch),
      engine_(group, config_.threads) {}

UserHandle AuditService::register_user(std::string_view id) {
  return registry_.register_user(id);
}

UserHandle AuditService::register_user(std::string_view id, const Point& q_id) {
  const UserHandle handle = registry_.register_user(id);
  activate(handle, q_id);
  return handle;
}

bool AuditService::activate(UserHandle user, const Point& q_id) {
  return registry_.bind_key(user, group_->curve().serialize(q_id),
                            group_->gt_serialize(verifier_.pairwise_key(q_id)));
}

std::optional<Point> AuditService::user_q_id(UserHandle user) const {
  const auto blob = registry_.key(user);
  if (blob.empty()) return std::nullopt;
  return group_->curve().deserialize(blob);
}

Admission AuditService::submit(AuditRequest request) {
  // A handle the registry never issued is refused before the queue lock, so
  // it takes neither a slot nor a request id; filter() still files one that
  // reaches the queue another way as unkeyed.
  if (!registry_.issued(request.user)) return {.epoch = queue_.epoch()};
  return queue_.submit(std::move(request));
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint32_t us_between(Clock::time_point a, Clock::time_point b) {
  const double us = std::chrono::duration<double, std::micro>(b - a).count();
  return us <= 0.0 ? 0u : static_cast<std::uint32_t>(us);
}

double ms_since(Clock::time_point a) {
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

/// Pairings one batch spent: the attestation and the aggregate pair once
/// each and bisection adds one per oracle call, so summing the batches
/// reproduces verify_ops.pairings exactly.
std::uint64_t batch_pairings(const BatchResult& batch) {
  return 2 + batch.verdict.bisection.oracle_calls;
}

bool is_filtered(obs::Verdict verdict) {
  return verdict == obs::Verdict::kStaleReplay || verdict == obs::Verdict::kUnkeyed;
}

std::uint32_t& stage_us(obs::JourneyRecord& j, obs::JourneyStage stage) {
  return j.stage_us[static_cast<std::size_t>(stage)];
}

}  // namespace

/// What one epoch decided, filled stage by stage; the observers read it
/// instead of re-deriving verdicts, batches and isolation paths.
struct AuditService::EpochTrace {
  struct Outcome {  ///< one per drained request, settled once
    std::uint32_t batch = obs::kNoBatch;  ///< batch of its first entry
    obs::Verdict verdict = obs::Verdict::kVerified;
    std::uint8_t isolation_depth = 0;  ///< deepest descent over its entries
  };
  struct Admitted {
    std::size_t request_index;
    pairing::Gt pairwise_key;  ///< ê(Q_ID, sk_B), bound with the user's key
  };
  struct EntryRef {  ///< one per flattened entry: its origin and verdict
    std::size_t request_index;
    std::size_t block_index;
    obs::Verdict verdict = obs::Verdict::kVerified;
    IsolationPath isolation{};  ///< set when bisection isolated the entry
  };

  std::vector<AuditRequest> requests;
  std::vector<RequestMeta> meta;  ///< parallel to requests
  std::vector<Outcome> outcomes;  ///< parallel to requests
  std::vector<RejectedAdmission> rejected;
  std::size_t depth_at_drain = 0;
  std::vector<Admitted> admitted;
  // Reserved up front so spans and pointers into them stay stable.
  std::vector<core::Bytes> messages;
  std::vector<ibc::DvSignature> sigs;
  std::vector<ibc::BatchEntry> entries;
  std::vector<EntryRef> refs;  ///< parallel to entries
  // Phase boundaries: a handful of clock reads on the hot path.
  Clock::time_point start, drained, filtered, flattened, attested, verified, settled;
};

EpochReport AuditService::run_epoch() {
  EpochTrace t;
  EpochReport report;
  drain(t, report);
  filter(t, report);
  flatten(t, report);
  assemble(t, report);
  verify(t, report);
  settle(t, report);
  if (journeys_ == nullptr && ledger_ == nullptr && telemetry_ == nullptr) return report;
  const auto since = Clock::now();
  const std::vector<std::uint64_t> journey_ids = record_journeys(t, report);
  record_ledger(t, report, journey_ids);
  record_telemetry(t, report, since);
  report.telemetry_ms = ms_since(since);
  return report;
}

void AuditService::drain(EpochTrace& t, EpochReport& report) {
  t.start = Clock::now();
  report.epoch = queue_.epoch();
  report.retry_after_epochs = queue_.config().retry_after_epochs;
  t.depth_at_drain = queue_.depth();
  t.requests = queue_.drain(&t.meta, &t.rejected);
  report.requests = t.requests.size();
  t.drained = Clock::now();
}

// Stale replays and unkeyed users cost 0 pairings.
void AuditService::filter(EpochTrace& t, EpochReport& report) {
  t.outcomes.resize(t.requests.size());
  t.admitted.reserve(t.requests.size());
  // Highest version admitted per user in this epoch: a request at or below
  // it replays a version already in flight, exactly like a request at or
  // below the audited high-water mark replays one from an earlier epoch.
  std::unordered_map<UserHandle, std::uint64_t> admitted_version;
  for (std::size_t r = 0; r < t.requests.size(); ++r) {
    const AuditRequest& request = t.requests[r];
    obs::Verdict& verdict = t.outcomes[r].verdict;
    std::span<const std::uint8_t> key;
    try {
      key = registry_.prepared_key(request.user);
    } catch (const std::out_of_range&) {
      // A handle this registry never issued: filed as unkeyed, not thrown.
    }
    if (key.empty()) {
      ++report.unkeyed_rejected;
      verdict = obs::Verdict::kUnkeyed;
      continue;
    }
    const auto in_epoch = admitted_version.find(request.user);
    const std::uint64_t high_water =
        std::max(registry_.audited_version(request.user),
                 in_epoch != admitted_version.end() ? in_epoch->second : 0);
    if (request.version <= high_water) {
      ++report.stale_rejected;
      verdict = obs::Verdict::kStaleReplay;
      if (auto* c = m_stale_.load(std::memory_order_acquire)) c->inc();
      continue;
    }
    auto pairwise_key = group_->gt_deserialize(key);
    if (!pairwise_key || request.blocks.empty()) {
      ++report.unkeyed_rejected;
      verdict = obs::Verdict::kUnkeyed;
      continue;
    }
    t.admitted.push_back({r, std::move(*pairwise_key)});
    admitted_version[request.user] = request.version;
  }
  t.filtered = Clock::now();
}

// Admitted requests become one entry stream in admission order.
void AuditService::flatten(EpochTrace& t, EpochReport& report) const {
  std::size_t total_entries = 0;
  for (const auto& a : t.admitted) total_entries += t.requests[a.request_index].blocks.size();
  t.messages.reserve(total_entries);
  t.sigs.reserve(total_entries);
  t.entries.reserve(total_entries);
  t.refs.reserve(total_entries);
  const std::size_t cap = queue_.config().batch_capacity;
  for (const auto& a : t.admitted) {
    const AuditRequest& request = t.requests[a.request_index];
    t.outcomes[a.request_index].batch = static_cast<std::uint32_t>(t.entries.size() / cap);
    for (std::size_t b = 0; b < request.blocks.size(); ++b) {
      const core::SignedBlock& sb = request.blocks[b];
      t.messages.push_back(core::block_message_bytes(sb.block));
      t.sigs.push_back(config_.role == VerifierRole::kCloudServer ? sb.sig.for_cs()
                                                                  : sb.sig.for_da());
      t.entries.push_back({{}, t.messages.back(), &t.sigs.back(), &a.pairwise_key});
      t.refs.push_back({a.request_index, b});
    }
  }
  report.entries = t.entries.size();
  report.batches = (t.entries.size() + cap - 1) / cap;
  t.flattened = Clock::now();
}

// Batch digests and deterministic epoch attestations. The attestation over
// the batch digest is the service analogue of the paper's Sig_CS(R): its
// verification is the second pairing of every batch. Signing costs (one
// point_mul and one gt_exp per batch, no pairing) are attributed to
// assembly_ops, not the verify window the bench gate pins. Batches sign on
// the engine's lanes: each has its own DRBG seed and output slot, so the
// attestations do not depend on the thread count.
void AuditService::assemble(EpochTrace& t, EpochReport& report) {
  const pairing::OpCounters ops_before = group_->counters();
  const std::size_t cap = queue_.config().batch_capacity;
  report.results.resize(report.batches);
  engine_.for_each(report.batches, [&](std::size_t i) {
    BatchResult& batch = report.results[i];
    batch.first_entry = i * cap;
    batch.entries = std::min(t.entries.size(), batch.first_entry + cap) - batch.first_entry;
    hash::Sha256 sha;
    sha.update(std::string_view{"seccloud.service.batch.v1"});
    sha.update(framing::le_bytes(report.epoch));
    sha.update(framing::le_bytes<std::uint64_t>(i));
    for (std::size_t e = batch.first_entry; e < batch.first_entry + batch.entries; ++e) {
      sha.update(group_->curve().serialize(t.entries[e].sig->u));
      sha.update(framing::le_bytes<std::uint64_t>(t.entries[e].message.size()));
      sha.update(t.entries[e].message);
    }
    const hash::Digest digest = sha.finish();
    core::Bytes& msg = batch.attestation_message;
    msg.reserve(32 + 48);
    const std::string_view domain{"seccloud.epoch-attest.v1"};
    msg.insert(msg.end(), domain.begin(), domain.end());
    framing::put_le(msg, report.epoch);
    framing::put_le<std::uint64_t>(msg, i);
    msg.insert(msg.end(), digest.begin(), digest.end());

    core::Bytes drbg_seed;
    const std::string_view seed_domain{config_.attestor_seed};
    drbg_seed.insert(drbg_seed.end(), seed_domain.begin(), seed_domain.end());
    framing::put_le(drbg_seed, report.epoch);
    framing::put_le<std::uint64_t>(drbg_seed, i);
    hash::HmacDrbg drbg{std::span<const std::uint8_t>{drbg_seed}};
    batch.attestation = attestor_.sign(msg, drbg).for_verifier(0);
  });
  report.assembly_ops = group_->counters() - ops_before;
  t.attested = Clock::now();
}

// Batches verify in parallel, each batch serial in its own slot. Each worker
// carries the batch's first request id as its exemplar context, so the
// batch_verify_ms histogram links its hot buckets to a concrete journey.
void AuditService::verify(EpochTrace& t, EpochReport& report) {
  const pairing::OpCounters ops_before = group_->counters();
  engine_.for_each(report.batches, [&](std::size_t i) {
    const auto bt0 = Clock::now();
    BatchResult& batch = report.results[i];
    obs::ExemplarScope exemplar{t.meta[t.refs[batch.first_entry].request_index].request_id,
                                report.epoch};
    batch.verdict = ibc::dv_cross_user_verify(
        verifier_,
        std::span<const ibc::BatchEntry>{t.entries}.subspan(batch.first_entry, batch.entries),
        attestor_key_, batch.attestation_message, batch.attestation);
    if (auto* h = m_batch_verify_ms_.load(std::memory_order_acquire)) {
      h->observe(std::chrono::duration<double, std::milli>(Clock::now() - bt0).count());
    }
  });
  report.verify_ops = group_->counters() - ops_before;
  t.verified = Clock::now();
}

// Maps batch verdicts back to entries, requests and users, records verified
// audits against the freshness high-water marks, and stops the epoch clock.
void AuditService::settle(EpochTrace& t, EpochReport& report) {
  std::vector<UserHandle>& byzantine = report.byzantine_users;
  for (const BatchResult& batch : report.results) {
    const ibc::CrossUserVerdict& verdict = batch.verdict;
    report.bisection.oracle_calls += verdict.bisection.oracle_calls;
    report.bisection.max_depth =
        std::max(report.bisection.max_depth, verdict.bisection.max_depth);
    for (const std::size_t idx : verdict.invalid_entries) {
      EpochTrace::EntryRef& ref = t.refs[batch.first_entry + idx];
      EpochTrace::Outcome& outcome = t.outcomes[ref.request_index];
      ref.verdict = obs::Verdict::kInvalidSignature;
      ref.isolation = bisection_path(idx, batch.entries);
      outcome.isolation_depth = std::max(outcome.isolation_depth, ref.isolation.depth);
      if (outcome.verdict == obs::Verdict::kVerified) outcome.verdict = ref.verdict;
      const UserHandle user = t.requests[ref.request_index].user;
      report.invalid_entries.push_back({user, ref.request_index, ref.block_index});
      byzantine.push_back(user);
    }
    if (!verdict.attestation_valid) {
      // Without a valid epoch attestation nothing in the batch is trusted.
      for (std::size_t e = batch.first_entry; e < batch.first_entry + batch.entries; ++e) {
        t.refs[e].verdict = obs::Verdict::kAttestationFailed;
        t.refs[e].isolation = {};
        t.outcomes[t.refs[e].request_index].verdict = obs::Verdict::kAttestationFailed;
      }
    }
  }
  std::sort(byzantine.begin(), byzantine.end());
  byzantine.erase(std::unique(byzantine.begin(), byzantine.end()), byzantine.end());
  if (auto* c = m_byzantine_.load(std::memory_order_acquire)) c->inc(byzantine.size());

  for (const auto& a : t.admitted) {
    obs::Verdict& verdict = t.outcomes[a.request_index].verdict;
    if (verdict != obs::Verdict::kVerified) {
      ++report.failed_requests;
      if (auto* c = m_failed_.load(std::memory_order_acquire)) c->inc();
      continue;
    }
    const AuditRequest& request = t.requests[a.request_index];
    if (!registry_.record_audit(request.user, request.version)) {
      // The filter admits each user's versions in increasing order, so only
      // a mark advanced through registry() since the filter ran lands here:
      // the request is a stale replay after all, not a verified audit.
      ++report.stale_rejected;
      verdict = obs::Verdict::kStaleReplay;
      if (auto* c = m_stale_.load(std::memory_order_acquire)) c->inc();
      continue;
    }
    ++report.verified_requests;
    if (auto* c = m_verified_.load(std::memory_order_acquire)) c->inc();
  }
  // Filtered requests (stale/unkeyed) also count as failed outcomes.
  report.failed_requests += report.stale_rejected + report.unkeyed_rejected;

  t.settled = Clock::now();
  report.epoch_ms = std::chrono::duration<double, std::milli>(t.settled - t.start).count();
  if (auto* c = m_epochs_.load(std::memory_order_acquire)) c->inc();
  if (auto* h = m_epoch_ms_.load(std::memory_order_acquire)) {
    // The epoch's exemplar: the first admitted request — admission order
    // means it waited longest, so the bucket links to the epoch's slowest
    // end-to-end journey.
    const std::uint64_t exemplar_request =
        !t.admitted.empty() ? t.meta[t.admitted.front().request_index].request_id
        : !t.meta.empty()   ? t.meta.front().request_id
                            : 0;
    obs::ExemplarScope exemplar{exemplar_request, report.epoch};
    h->observe(report.epoch_ms);
  }
}

// One JourneyRecord per drained and per backpressure-rejected request.
std::vector<obs::JourneyRecord> AuditService::epoch_journeys(const EpochTrace& t,
                                                             const EpochReport& report) {
  std::vector<obs::JourneyRecord> journeys;
  journeys.reserve(t.requests.size() + t.rejected.size());
  for (std::size_t r = 0; r < t.requests.size(); ++r) {
    const RequestMeta& meta = t.meta[r];
    const EpochTrace::Outcome& outcome = t.outcomes[r];
    obs::JourneyRecord& j = journeys.emplace_back();
    j.request_id = meta.request_id;
    j.user = t.requests[r].user;
    j.epoch = report.epoch;
    j.request_index = static_cast<std::uint32_t>(r);
    j.blocks = static_cast<std::uint32_t>(t.requests[r].blocks.size());
    j.verdict = outcome.verdict;
    stage_us(j, obs::JourneyStage::kEnqueue) = static_cast<std::uint32_t>(meta.enqueue_us);
    stage_us(j, obs::JourneyStage::kAdmit) = us_between(meta.enqueued_at, t.drained);
    stage_us(j, obs::JourneyStage::kFilter) = us_between(t.drained, t.filtered);
    if (is_filtered(outcome.verdict)) {
      // Filtered: the journey ends at the filter verdict, so later stages
      // stay zero and the stage sum IS the end-to-end.
      j.end_to_end_us = static_cast<std::uint32_t>(j.stage_sum_us());
      continue;
    }
    // The verify wall splits into shared-check vs bisection descent by the
    // batch's pairing ratio, so the two stages still telescope to the whole
    // phase.
    const BatchResult& batch = report.results[outcome.batch];
    const std::uint64_t pairings = batch_pairings(batch);
    const std::uint32_t verify_us = us_between(t.attested, t.verified);
    const auto bisect_us = static_cast<std::uint32_t>(
        static_cast<double>(verify_us) *
        static_cast<double>(batch.verdict.bisection.oracle_calls) /
        static_cast<double>(pairings));
    stage_us(j, obs::JourneyStage::kFlatten) = us_between(t.filtered, t.flattened);
    stage_us(j, obs::JourneyStage::kAttest) = us_between(t.flattened, t.attested);
    stage_us(j, obs::JourneyStage::kVerify) = verify_us - bisect_us;
    stage_us(j, obs::JourneyStage::kBisect) = bisect_us;
    stage_us(j, obs::JourneyStage::kVerdict) = us_between(t.verified, t.settled);
    j.batch = outcome.batch;
    j.amortized_pairings_milli = static_cast<std::uint32_t>(pairings * 1000 / batch.entries);
    j.bisection_depth = outcome.isolation_depth;
    // Measured directly (entry → settled); the per-stage µs rounding keeps
    // it within one quantum per stage of the stage sum.
    j.end_to_end_us = static_cast<std::uint32_t>(meta.enqueue_us) +
                      us_between(meta.enqueued_at, t.settled);
  }
  for (const RejectedAdmission& rej : t.rejected) {
    obs::JourneyRecord& j = journeys.emplace_back();
    j.request_id = rej.request_id;
    j.user = rej.user;
    j.epoch = rej.epoch;
    j.retry_after_epochs = static_cast<std::uint32_t>(rej.retry_after_epochs);
    j.verdict = obs::Verdict::kRejectedAdmission;
    stage_us(j, obs::JourneyStage::kEnqueue) = static_cast<std::uint32_t>(rej.enqueue_us);
    j.end_to_end_us = static_cast<std::uint32_t>(j.stage_sum_us());
  }
  return journeys;
}

// The sampling policy over every journey of the epoch.
std::vector<std::uint64_t> AuditService::record_journeys(const EpochTrace& t,
                                                         EpochReport& report) {
  std::vector<std::uint64_t> journey_ids(t.requests.size(), 0);
  if (journeys_ == nullptr) return journey_ids;
  std::vector<obs::JourneyRecord> journeys = epoch_journeys(t, report);
  // Attribution runs over every journey, pre-sampling, so the percentiles
  // are unbiased by the sampling policy.
  report.attribution = obs::attribute_journeys(journeys);

  // Always keep anything that did not verify cleanly (rejected, filtered,
  // attestation-failed), anything bisection had to isolate, and the epoch's
  // slowest journey (ties go to the lowest request id); seeded coin for the
  // rest.
  const auto slowest = std::max_element(
      journeys.begin(), journeys.end(), [](const auto& a, const auto& b) {
        return a.end_to_end_us != b.end_to_end_us ? a.end_to_end_us < b.end_to_end_us
                                                  : a.request_id > b.request_id;
      });
  for (auto j = journeys.begin(); j != journeys.end(); ++j) {
    std::uint8_t bits = 0;
    if (j->verdict != obs::Verdict::kVerified) bits |= obs::kJourneySampledRejected;
    if (j->verdict == obs::Verdict::kInvalidSignature) bits |= obs::kJourneySampledBisected;
    if (j == slowest) bits |= obs::kJourneySampledSlowest;
    if (journeys_->sample_probabilistic(j->epoch, j->request_id)) {
      bits |= obs::kJourneySampledProbabilistic;
    }
    if (bits == 0) continue;
    j->sampled = bits;
    journeys_->record(*j);
    if (j->request_index != obs::kJourneyNoRequest) journey_ids[j->request_index] = j->request_id;
  }
  return journey_ids;
}

// One record per request filtered before batching, then one per flattened
// entry, batch by batch.
void AuditService::record_ledger(const EpochTrace& t, const EpochReport& report,
                                 const std::vector<std::uint64_t>& journey_ids) {
  if (ledger_ == nullptr) return;
  for (std::size_t r = 0; r < t.requests.size(); ++r) {
    if (!is_filtered(t.outcomes[r].verdict)) continue;
    ledger_->append({.epoch = report.epoch,
                     .user = t.requests[r].user,
                     .version = t.requests[r].version,
                     .request_index = static_cast<std::uint32_t>(r),
                     .verdict = t.outcomes[r].verdict,
                     .journey_id = journey_ids[r]});
  }
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const BatchResult& batch = report.results[i];
    for (std::size_t k = 0; k < batch.entries; ++k) {
      const EpochTrace::EntryRef& ref = t.refs[batch.first_entry + k];
      ledger_->append({.epoch = report.epoch,
                       .user = t.requests[ref.request_index].user,
                       .version = t.requests[ref.request_index].version,
                       .batch = static_cast<std::uint32_t>(i),
                       .request_index = static_cast<std::uint32_t>(ref.request_index),
                       .block_index = static_cast<std::uint32_t>(ref.block_index),
                       .entry_in_batch = static_cast<std::uint32_t>(k),
                       .verdict = ref.verdict,
                       .isolation_depth = ref.isolation.depth,
                       .isolation_path = ref.isolation.bits,
                       .batch_pairings = batch_pairings(batch),
                       .journey_id = journey_ids[ref.request_index]});
    }
  }
}

void AuditService::record_telemetry(const EpochTrace& t, const EpochReport& report,
                                    Clock::time_point since) {
  if (telemetry_ == nullptr) return;
  obs::EpochSnapshot snap;
  snap.epoch = report.epoch;
  snap.epoch_ms = report.epoch_ms;
  snap.requests = report.requests;
  snap.stale_rejected = report.stale_rejected;
  snap.unkeyed_rejected = report.unkeyed_rejected;
  snap.entries = report.entries;
  snap.batches = report.batches;
  snap.verified_requests = report.verified_requests;
  snap.failed_requests = report.failed_requests;
  snap.byzantine_users = report.byzantine_users.size();
  snap.assembly_pairings = report.assembly_ops.pairings;
  snap.verify_pairings = report.verify_ops.pairings;
  snap.pairings_per_batch =
      report.batches == 0 ? 0.0
                          : static_cast<double>(report.verify_ops.pairings) /
                                static_cast<double>(report.batches);
  snap.bisection_oracle_calls = report.bisection.oracle_calls;
  snap.bisection_max_depth = report.bisection.max_depth;
  snap.queue_depth_at_drain = t.depth_at_drain;
  const std::uint64_t admitted_now = queue_.admitted_total();
  const std::uint64_t rejected_now = queue_.rejected_total();
  snap.queue_admitted = admitted_now - last_queue_admitted_;
  snap.queue_rejected = rejected_now - last_queue_rejected_;
  last_queue_admitted_ = admitted_now;
  last_queue_rejected_ = rejected_now;
  snap.retry_after_epochs = report.retry_after_epochs;
  for (const ShardOccupancy& o : registry_.occupancy()) {
    snap.shards.push_back({o.users, o.keyed, o.table_slots, o.probe_max, o.probe_total});
  }
  snap.telemetry_ms = ms_since(since);  // everything but the final encode
  telemetry_->capture(std::move(snap));
}

std::string EpochReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("epoch").value(epoch);
  w.key("requests").value(static_cast<std::uint64_t>(requests));
  w.key("stale_rejected").value(static_cast<std::uint64_t>(stale_rejected));
  w.key("unkeyed_rejected").value(static_cast<std::uint64_t>(unkeyed_rejected));
  w.key("entries").value(static_cast<std::uint64_t>(entries));
  w.key("batches").value(static_cast<std::uint64_t>(batches));
  w.key("verified_requests").value(static_cast<std::uint64_t>(verified_requests));
  w.key("failed_requests").value(static_cast<std::uint64_t>(failed_requests));
  w.key("byzantine_users").begin_array();
  for (const UserHandle user : byzantine_users) w.value(static_cast<std::uint64_t>(user));
  w.end_array();
  w.key("invalid_entries").value(static_cast<std::uint64_t>(invalid_entries.size()));
  w.key("assembly_pairings").value(assembly_ops.pairings);
  w.key("verify_pairings").value(verify_ops.pairings);
  w.key("bisection_oracle_calls").value(static_cast<std::uint64_t>(bisection.oracle_calls));
  w.key("bisection_max_depth").value(static_cast<std::uint64_t>(bisection.max_depth));
  w.key("retry_after_epochs").value(retry_after_epochs);
  w.key("epoch_ms").value(epoch_ms);
  w.key("telemetry_ms").value(telemetry_ms);
  w.key("p99_attribution").begin_object();
  w.key("journeys").value(attribution.journeys);
  w.key("p99_end_to_end_us").value(attribution.p99_end_to_end_us);
  w.key("p99_request_id").value(attribution.p99_request_id);
  w.key("stages").begin_array();
  for (std::size_t i = 0; i < obs::kJourneyStageCount; ++i) {
    w.begin_object();
    w.key("stage").value(
        std::string_view{to_string(static_cast<obs::JourneyStage>(i))});
    w.key("p50_us").value(attribution.stages[i].p50_us);
    w.key("p95_us").value(attribution.stages[i].p95_us);
    w.key("p99_us").value(attribution.stages[i].p99_us);
    w.key("total_us").value(attribution.stages[i].total_us);
    w.key("p99_share").value(attribution.p99_share[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

void AuditService::bind_metrics(obs::MetricsRegistry& registry,
                                std::string_view prefix) {
  const std::string p{prefix};
  queue_.bind_metrics(registry, p + ".queue");
  engine_.bind_metrics(registry, p + ".engine");
  // Release-published so a racing submit()/run_epoch() never dereferences a
  // half-constructed metric (see epoch.cpp).
  m_verified_.store(&registry.counter(p + ".requests.verified"),
                    std::memory_order_release);
  m_failed_.store(&registry.counter(p + ".requests.failed"), std::memory_order_release);
  m_stale_.store(&registry.counter(p + ".requests.stale"), std::memory_order_release);
  m_byzantine_.store(&registry.counter(p + ".byzantine_users"),
                     std::memory_order_release);
  m_epochs_.store(&registry.counter(p + ".epochs"), std::memory_order_release);
  // Exemplar-enabled: the p99 buckets of these two link back to concrete
  // journey records (request id + epoch) via the thread-local context the
  // epoch driver and batch workers set.
  obs::Histogram& epoch_ms = registry.histogram(p + ".epoch_ms");
  epoch_ms.enable_exemplars();
  m_epoch_ms_.store(&epoch_ms, std::memory_order_release);
  obs::Histogram& batch_verify_ms = registry.histogram(p + ".batch_verify_ms");
  batch_verify_ms.enable_exemplars();
  m_batch_verify_ms_.store(&batch_verify_ms, std::memory_order_release);
}

}  // namespace seccloud::service
