#include "seccloud/service/service.h"

#include <algorithm>
#include <chrono>
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
  return queue_.submit(std::move(request));
}

EpochReport AuditService::run_epoch() {
  const auto t0 = std::chrono::steady_clock::now();
  EpochReport report;
  report.epoch = queue_.epoch();
  report.retry_after_epochs = queue_.config().retry_after_epochs;
  const std::size_t depth_at_drain = queue_.depth();
  std::vector<RequestMeta> meta;
  std::vector<RejectedAdmission> rejected_admissions;
  std::vector<AuditRequest> requests = queue_.drain(&meta, &rejected_admissions);
  report.requests = requests.size();
  // Journey phase boundaries: a handful of steady_clock reads on the hot
  // path; everything built from them happens after the t1 stamp.
  const auto t_drain = std::chrono::steady_clock::now();

  // --- admission filter: stale replays and unkeyed users cost 0 pairings ---
  struct Admitted {
    std::size_t request_index;
    pairing::Gt pairwise_key;  ///< ê(Q_ID, sk_B), bound with the user's key
  };
  std::vector<Admitted> admitted;
  admitted.reserve(requests.size());
  std::vector<std::uint8_t> failed(requests.size(), 0);
  // Pre-batch filter reason per request (0 = admitted), kept so the ledger
  // can attribute filtered requests without re-deriving the decision.
  constexpr std::uint8_t kReasonStale = 1;
  constexpr std::uint8_t kReasonUnkeyed = 2;
  std::vector<std::uint8_t> filter_reason(requests.size(), 0);
  // Highest version admitted per user in this epoch: a request at or below
  // it replays a version already in flight, exactly like a request at or
  // below the audited high-water mark replays one from an earlier epoch.
  std::unordered_map<UserHandle, std::uint64_t> admitted_version;
  std::size_t total_entries = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const AuditRequest& request = requests[r];
    const auto key = registry_.prepared_key(request.user);  // validates the handle
    if (key.empty()) {
      ++report.unkeyed_rejected;
      failed[r] = 1;
      filter_reason[r] = kReasonUnkeyed;
      continue;
    }
    const auto in_epoch = admitted_version.find(request.user);
    const std::uint64_t high_water =
        std::max(registry_.audited_version(request.user),
                 in_epoch != admitted_version.end() ? in_epoch->second : 0);
    if (request.version <= high_water) {
      ++report.stale_rejected;
      failed[r] = 1;
      filter_reason[r] = kReasonStale;
      if (auto* c = m_stale_.load(std::memory_order_acquire)) c->inc();
      continue;
    }
    auto pairwise_key = group_->gt_deserialize(key);
    if (!pairwise_key || request.blocks.empty()) {
      ++report.unkeyed_rejected;
      failed[r] = 1;
      filter_reason[r] = kReasonUnkeyed;
      continue;
    }
    admitted.push_back({r, std::move(*pairwise_key)});
    admitted_version[request.user] = request.version;
    total_entries += request.blocks.size();
  }
  const auto t_filter = std::chrono::steady_clock::now();

  // --- flatten admitted requests into one entry stream (admission order) ---
  // Reserved up front so spans/pointers into these vectors stay stable.
  struct FlatRef {
    std::size_t request_index;
    std::size_t block_index;
  };
  std::vector<core::Bytes> messages;
  std::vector<ibc::DvSignature> sigs;
  std::vector<ibc::BatchEntry> entries;
  std::vector<FlatRef> refs;
  messages.reserve(total_entries);
  sigs.reserve(total_entries);
  entries.reserve(total_entries);
  refs.reserve(total_entries);
  for (const Admitted& a : admitted) {
    const AuditRequest& request = requests[a.request_index];
    for (std::size_t b = 0; b < request.blocks.size(); ++b) {
      const core::SignedBlock& sb = request.blocks[b];
      messages.push_back(core::block_message_bytes(sb.block));
      sigs.push_back(config_.role == VerifierRole::kCloudServer ? sb.sig.for_cs()
                                                                : sb.sig.for_da());
      entries.push_back({{}, messages.back(), &sigs.back(), &a.pairwise_key});
      refs.push_back({a.request_index, b});
    }
  }
  report.entries = entries.size();
  const std::size_t cap = queue_.config().batch_capacity;
  const std::size_t batches = (entries.size() + cap - 1) / cap;
  report.batches = batches;
  const auto t_flatten = std::chrono::steady_clock::now();

  // --- assembly: batch digests + deterministic epoch attestations ---------
  // The attestation over the batch digest is the service analogue of the
  // paper's Sig_CS(R): its verification is the second pairing of every
  // batch. Signing costs (one point_mul and one gt_exp per batch, no
  // pairing) are attributed to assembly_ops, not the verify window the bench
  // gate pins. Batches sign
  // on the engine's lanes: each has its own DRBG seed and output slot, so the
  // attestations do not depend on the thread count.
  const pairing::OpCounters ops_before_assembly = group_->counters();
  std::vector<core::Bytes> attest_messages(batches);
  std::vector<ibc::DvSignature> attestations(batches);
  engine_.for_each(batches, [&](std::size_t i) {
    const std::size_t lo = i * cap;
    const std::size_t hi = std::min(entries.size(), lo + cap);
    hash::Sha256 sha;
    sha.update(std::string_view{"seccloud.service.batch.v1"});
    sha.update(framing::le_bytes(report.epoch));
    sha.update(framing::le_bytes<std::uint64_t>(i));
    for (std::size_t e = lo; e < hi; ++e) {
      sha.update(group_->curve().serialize(entries[e].sig->u));
      sha.update(framing::le_bytes<std::uint64_t>(entries[e].message.size()));
      sha.update(entries[e].message);
    }
    const hash::Digest digest = sha.finish();
    core::Bytes& msg = attest_messages[i];
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
    attestations[i] = attestor_.sign(msg, drbg).for_verifier(0);
  });
  report.assembly_ops = group_->counters() - ops_before_assembly;
  const auto t_attest = std::chrono::steady_clock::now();

  // --- verify: batches in parallel, each batch serial in its own slot -----
  // Each worker carries the batch's first request id as its exemplar
  // context, so the batch_verify_ms histogram links its hot buckets to a
  // concrete journey.
  const pairing::OpCounters ops_before_verify = group_->counters();
  std::vector<ibc::CrossUserVerdict> verdicts(batches);
  engine_.for_each(batches, [&](std::size_t i) {
    const auto bt0 = std::chrono::steady_clock::now();
    const std::size_t lo = i * cap;
    const std::size_t hi = std::min(entries.size(), lo + cap);
    const std::uint64_t first_request_id =
        lo < refs.size() ? meta[refs[lo].request_index].request_id : 0;
    obs::ExemplarScope exemplar{first_request_id, report.epoch};
    verdicts[i] = ibc::dv_cross_user_verify(
        verifier_, std::span<const ibc::BatchEntry>{entries}.subspan(lo, hi - lo),
        attestor_key_, attest_messages[i], attestations[i]);
    if (auto* h = m_batch_verify_ms_.load(std::memory_order_acquire)) {
      h->observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - bt0)
                     .count());
    }
  });
  report.verify_ops = group_->counters() - ops_before_verify;
  const auto t_verify = std::chrono::steady_clock::now();

  // --- map batch verdicts back to requests and users ----------------------
  std::vector<UserHandle> byzantine;
  for (std::size_t i = 0; i < batches; ++i) {
    const std::size_t lo = i * cap;
    const std::size_t hi = std::min(entries.size(), lo + cap);
    ibc::CrossUserVerdict& verdict = verdicts[i];
    report.bisection.oracle_calls += verdict.bisection.oracle_calls;
    report.bisection.max_depth =
        std::max(report.bisection.max_depth, verdict.bisection.max_depth);
    if (!verdict.attestation_valid) {
      // Without a valid epoch attestation nothing in the batch is trusted.
      for (std::size_t e = lo; e < hi; ++e) failed[refs[e].request_index] = 1;
    }
    for (const std::size_t idx : verdict.invalid_entries) {
      const FlatRef& ref = refs[lo + idx];
      failed[ref.request_index] = 1;
      const UserHandle user = requests[ref.request_index].user;
      report.invalid_entries.push_back({user, ref.request_index, ref.block_index});
      byzantine.push_back(user);
    }
    report.results.push_back(
        {lo, hi - lo, std::move(verdict), std::move(attest_messages[i]), attestations[i]});
  }
  std::sort(byzantine.begin(), byzantine.end());
  byzantine.erase(std::unique(byzantine.begin(), byzantine.end()), byzantine.end());
  report.byzantine_users = std::move(byzantine);
  if (auto* c = m_byzantine_.load(std::memory_order_acquire)) {
    if (!report.byzantine_users.empty()) c->inc(report.byzantine_users.size());
  }

  // --- outcome: record verified audits against the freshness high-water ---
  for (const Admitted& a : admitted) {
    if (failed[a.request_index]) {
      ++report.failed_requests;
      if (auto* c = m_failed_.load(std::memory_order_acquire)) c->inc();
      continue;
    }
    if (!registry_.record_audit(requests[a.request_index].user,
                                requests[a.request_index].version)) {
      // The filter admits each user's versions in increasing order, so only
      // a mark advanced through registry() since the filter ran lands here:
      // the request is a stale replay after all, not a verified audit.
      ++report.stale_rejected;
      filter_reason[a.request_index] = kReasonStale;
      if (auto* c = m_stale_.load(std::memory_order_acquire)) c->inc();
      continue;
    }
    ++report.verified_requests;
    if (auto* c = m_verified_.load(std::memory_order_acquire)) c->inc();
  }
  // Filtered requests (stale/unkeyed) also count as failed outcomes.
  report.failed_requests += report.stale_rejected + report.unkeyed_rejected;

  const auto t1 = std::chrono::steady_clock::now();
  report.epoch_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (auto* c = m_epochs_.load(std::memory_order_acquire)) c->inc();
  if (auto* h = m_epoch_ms_.load(std::memory_order_acquire)) {
    // The epoch's exemplar: the first admitted request — admission order
    // means it waited longest, so the bucket links to the epoch's slowest
    // end-to-end journey.
    const std::uint64_t exemplar_request =
        !admitted.empty() ? meta[admitted.front().request_index].request_id
        : !meta.empty()   ? meta.front().request_id
                          : 0;
    obs::ExemplarScope exemplar{exemplar_request, report.epoch};
    h->observe(report.epoch_ms);
  }

  // --- journeys + telemetry + forensic ledger: after the epoch clock stops -
  // Journey id per drained request (nonzero iff that request's journey was
  // sampled) — the ledger cross-link below stamps it into every record.
  std::vector<std::uint64_t> journey_ids(requests.size(), 0);
  if (journeys_ != nullptr || ledger_ != nullptr || telemetry_ != nullptr) {
    const auto tt0 = std::chrono::steady_clock::now();
    if (journeys_ != nullptr) {
      const auto us_between = [](std::chrono::steady_clock::time_point a,
                                 std::chrono::steady_clock::time_point b) -> std::uint32_t {
        const double us = std::chrono::duration<double, std::micro>(b - a).count();
        return us <= 0.0 ? 0u : static_cast<std::uint32_t>(us);
      };
      // Epoch phase walls every admitted request telescopes through.
      const std::uint32_t filter_us = us_between(t_drain, t_filter);
      const std::uint32_t flatten_us = us_between(t_filter, t_flatten);
      const std::uint32_t attest_us = us_between(t_flatten, t_attest);
      const std::uint32_t verify_phase_us = us_between(t_attest, t_verify);
      const std::uint32_t verdict_us = us_between(t_verify, t1);

      // Request → first batch, own bisection descent, attestation outcome.
      std::vector<std::uint32_t> req_batch(requests.size(), obs::kJourneyNoBatch);
      std::vector<std::uint8_t> req_depth(requests.size(), 0);
      std::vector<std::uint8_t> req_invalid(requests.size(), 0);
      std::vector<std::uint8_t> req_attest_failed(requests.size(), 0);
      for (std::size_t i = 0; i < report.results.size(); ++i) {
        const BatchResult& br = report.results[i];
        for (std::size_t k = 0; k < br.entries; ++k) {
          const FlatRef& ref = refs[br.first_entry + k];
          if (req_batch[ref.request_index] == obs::kJourneyNoBatch) {
            req_batch[ref.request_index] = static_cast<std::uint32_t>(i);
          }
          if (!br.verdict.attestation_valid) req_attest_failed[ref.request_index] = 1;
        }
        for (const std::size_t idx : br.verdict.invalid_entries) {
          const FlatRef& ref = refs[br.first_entry + idx];
          req_invalid[ref.request_index] = 1;
          req_depth[ref.request_index] =
              std::max(req_depth[ref.request_index],
                       bisection_path(idx, br.entries).depth);
        }
      }

      std::vector<obs::JourneyRecord> journeys;
      journeys.reserve(requests.size() + rejected_admissions.size());
      for (std::size_t r = 0; r < requests.size(); ++r) {
        obs::JourneyRecord j;
        j.request_id = meta[r].request_id;
        j.user = requests[r].user;
        j.epoch = report.epoch;
        j.request_index = static_cast<std::uint32_t>(r);
        j.blocks = static_cast<std::uint32_t>(requests[r].blocks.size());
        j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kEnqueue)] =
            static_cast<std::uint32_t>(meta[r].enqueue_us);
        j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kAdmit)] =
            us_between(meta[r].enqueued_at, t_drain);
        j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kFilter)] = filter_us;
        if (filter_reason[r] != 0) {
          // Filtered pre-batch: the journey ends at the filter verdict, so
          // later stages stay zero and the stage sum IS the end-to-end.
          j.verdict = filter_reason[r] == kReasonStale ? obs::JourneyVerdict::kStaleReplay
                                                       : obs::JourneyVerdict::kUnkeyed;
          j.end_to_end_us = static_cast<std::uint32_t>(j.stage_sum_us());
        } else {
          const std::uint32_t batch = req_batch[r];
          j.batch = batch;
          const std::uint64_t oracle =
              batch != obs::kJourneyNoBatch
                  ? report.results[batch].verdict.bisection.oracle_calls
                  : 0;
          const std::uint64_t batch_pairings = 2 + oracle;
          // The verify wall splits into shared-check vs bisection descent by
          // the batch's pairing ratio, so the two stages still telescope to
          // the whole phase.
          const auto bisect_us = static_cast<std::uint32_t>(
              static_cast<double>(verify_phase_us) * static_cast<double>(oracle) /
              static_cast<double>(batch_pairings));
          j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kFlatten)] = flatten_us;
          j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kAttest)] = attest_us;
          j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kVerify)] =
              verify_phase_us - bisect_us;
          j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kBisect)] = bisect_us;
          j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kVerdict)] = verdict_us;
          if (batch != obs::kJourneyNoBatch) {
            j.amortized_pairings_milli = static_cast<std::uint32_t>(
                batch_pairings * 1000 / report.results[batch].entries);
          }
          j.bisection_depth = req_depth[r];
          j.verdict = req_attest_failed[r] ? obs::JourneyVerdict::kAttestationFailed
                      : req_invalid[r]     ? obs::JourneyVerdict::kInvalidSignature
                                           : obs::JourneyVerdict::kVerified;
          // Measured directly (entry → t1); the per-stage µs rounding keeps
          // it within one quantum per stage of the stage sum.
          j.end_to_end_us =
              static_cast<std::uint32_t>(meta[r].enqueue_us) +
              us_between(meta[r].enqueued_at, t1);
        }
        journeys.push_back(j);
      }
      for (const RejectedAdmission& rej : rejected_admissions) {
        obs::JourneyRecord j;
        j.request_id = rej.request_id;
        j.user = rej.user;
        j.epoch = rej.epoch;
        j.retry_after_epochs = static_cast<std::uint32_t>(rej.retry_after_epochs);
        j.verdict = obs::JourneyVerdict::kRejectedAdmission;
        j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kEnqueue)] =
            static_cast<std::uint32_t>(rej.enqueue_us);
        j.end_to_end_us = static_cast<std::uint32_t>(j.stage_sum_us());
        journeys.push_back(j);
      }

      // Attribution runs over every journey, pre-sampling, so the
      // percentiles are unbiased by the sampling policy.
      report.attribution = obs::attribute_journeys(journeys);

      // Sampling policy: always keep anything that did not verify cleanly
      // (rejected, filtered, attestation-failed), anything bisection had to
      // isolate, and the epoch's slowest journey; seeded coin for the rest.
      std::size_t slowest = journeys.size();
      for (std::size_t i = 0; i < journeys.size(); ++i) {
        if (slowest == journeys.size() ||
            journeys[i].end_to_end_us > journeys[slowest].end_to_end_us ||
            (journeys[i].end_to_end_us == journeys[slowest].end_to_end_us &&
             journeys[i].request_id < journeys[slowest].request_id)) {
          slowest = i;
        }
      }
      for (std::size_t i = 0; i < journeys.size(); ++i) {
        obs::JourneyRecord& j = journeys[i];
        std::uint8_t bits = 0;
        if (j.verdict != obs::JourneyVerdict::kVerified) bits |= obs::kJourneySampledRejected;
        if (j.verdict == obs::JourneyVerdict::kInvalidSignature) {
          bits |= obs::kJourneySampledBisected;
        }
        if (i == slowest) bits |= obs::kJourneySampledSlowest;
        if (journeys_->sample_probabilistic(j.epoch, j.request_id)) {
          bits |= obs::kJourneySampledProbabilistic;
        }
        if (bits == 0) continue;
        j.sampled = bits;
        journeys_->record(j);
        if (j.request_index != obs::kJourneyNoRequest) {
          journey_ids[j.request_index] = j.request_id;
        }
      }
    }
    if (ledger_ != nullptr) {
      // Requests filtered before batching: one record each, no batch id.
      for (std::size_t r = 0; r < requests.size(); ++r) {
        if (filter_reason[r] == 0) continue;
        LedgerEntry le;
        le.epoch = report.epoch;
        le.user = requests[r].user;
        le.version = requests[r].version;
        le.batch = kNoBatch;
        le.request_index = static_cast<std::uint32_t>(r);
        le.verdict = filter_reason[r] == kReasonStale ? LedgerVerdict::kStaleReplay
                                                      : LedgerVerdict::kUnkeyed;
        le.journey_id = journey_ids[r];
        ledger_->append(le);
      }
      // Every flattened entry, batch by batch. Analytic pairing accounting:
      // attestation + aggregate always pair once each, bisection adds one
      // pairing per oracle call — so summing unique batches' batch_pairings
      // reproduces verify_ops.pairings exactly.
      for (std::size_t i = 0; i < report.results.size(); ++i) {
        const BatchResult& br = report.results[i];
        const std::uint64_t batch_pairings = 2 + br.verdict.bisection.oracle_calls;
        std::size_t next_invalid = 0;  // invalid_entries is ascending
        for (std::size_t k = 0; k < br.entries; ++k) {
          const std::size_t e = br.first_entry + k;
          const FlatRef& ref = refs[e];
          LedgerEntry le;
          le.epoch = report.epoch;
          le.user = requests[ref.request_index].user;
          le.version = requests[ref.request_index].version;
          le.batch = static_cast<std::uint32_t>(i);
          le.request_index = static_cast<std::uint32_t>(ref.request_index);
          le.block_index = static_cast<std::uint32_t>(ref.block_index);
          le.entry_in_batch = static_cast<std::uint32_t>(k);
          le.batch_pairings = batch_pairings;
          le.journey_id = journey_ids[ref.request_index];
          if (!br.verdict.attestation_valid) {
            le.verdict = LedgerVerdict::kAttestationFailed;
          } else if (next_invalid < br.verdict.invalid_entries.size() &&
                     br.verdict.invalid_entries[next_invalid] == k) {
            le.verdict = LedgerVerdict::kInvalidSignature;
            const IsolationPath path = bisection_path(k, br.entries);
            le.isolation_depth = path.depth;
            le.isolation_path = path.bits;
            ++next_invalid;
          } else {
            le.verdict = LedgerVerdict::kVerified;
          }
          ledger_->append(le);
        }
      }
    }
    if (telemetry_ != nullptr) {
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
      snap.queue_depth_at_drain = depth_at_drain;
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
      report.telemetry_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - tt0)
                                .count();
      snap.telemetry_ms = report.telemetry_ms;  // excludes only the final encode
      telemetry_->capture(std::move(snap));
    }
    report.telemetry_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - tt0)
                              .count();
  }
  return report;
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
