// Per-layer accounting: epoch replays through the public ibc/ec/hash calls,
// unit-cost probes of the lower layers, and the per-layer metric table built
// from the spans the benchmark records around its own calls.
#include <sys/resource.h>

#include <filesystem>
#include <fstream>

#include "common.h"
#include "hash/hmac_drbg.h"
#include "ibc/dvs.h"
#include "ibc/ibs.h"
#include "merkle/tree.h"
#include "pairing/precompute.h"
#include "seccloud/client.h"

namespace perfbench {

using namespace seccloud;

namespace {

void put_u64(core::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// Loop lengths for the ops too short to time one at a time.
constexpr std::size_t kFieldMulLoop = 4096;
constexpr std::size_t kGtMulLoop = 256;
constexpr std::size_t kShaBytes = std::size_t{1} << 20;

}  // namespace

void SpanClock::add(std::string_view name, double ms) {
  const std::lock_guard<std::mutex> lock(m_);
  auto it = totals_.find(name);
  if (it == totals_.end()) it = totals_.emplace(std::string{name}, Total{}).first;
  ++it->second.count;
  it->second.ms += ms;
}

SpanClock::Total SpanClock::total(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(m_);
  const auto it = totals_.find(name);
  return it == totals_.end() ? Total{} : it->second;
}

void SpanClock::clear() {
  const std::lock_guard<std::mutex> lock(m_);
  totals_.clear();
}

SpanClock& span_clock() {
  static SpanClock clock;
  return clock;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void put_u64(hash::Sha256& sha, std::uint64_t v) {
  std::array<std::uint8_t, 8> le{};
  for (std::size_t i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  sha.update(le);
}

void replay_epoch(const ReplayContext& ctx, const std::vector<service::AuditRequest>& admitted,
                  const service::EpochReport& report, double run_epoch_ms,
                  LayerTotals& totals) {
  const pairing::PairingGroup& g = *ctx.group;
  double layer_ms = 0.0;

  std::vector<pairing::Point> q_ids;
  q_ids.reserve(admitted.size());
  for (const service::AuditRequest& request : admitted) {
    TimedSpan span{"ec.deserialize"};
    auto q_id = g.curve().deserialize(ctx.registry->key(request.user));
    layer_ms += span.end();
    q_ids.push_back(q_id.value_or(pairing::Point::at_infinity()));
  }

  TimedSpan flatten{"replay.flatten"};
  std::size_t total = 0;
  for (const service::AuditRequest& request : admitted) total += request.blocks.size();
  // Reserved up front: entries hold spans/pointers into messages and sigs.
  std::vector<core::Bytes> messages;
  std::vector<ibc::DvSignature> sigs;
  std::vector<ibc::BatchEntry> entries;
  messages.reserve(total);
  sigs.reserve(total);
  entries.reserve(total);
  for (std::size_t r = 0; r < admitted.size(); ++r) {
    for (const core::SignedBlock& sb : admitted[r].blocks) {
      messages.push_back(core::block_message_bytes(sb.block));
      sigs.push_back(sb.sig.for_da());
      entries.push_back({q_ids[r], messages.back(), &sigs.back()});
    }
  }
  layer_ms += flatten.end();

  const std::size_t cap = ctx.batch_capacity;
  const std::size_t batches = (entries.size() + cap - 1) / cap;
  const auto batch_span = [&](std::size_t i) {
    const std::size_t lo = i * cap;
    return std::span<const ibc::BatchEntry>{entries}.subspan(
        lo, std::min(entries.size(), lo + cap) - lo);
  };
  std::vector<core::Bytes> attest_messages(batches);
  std::vector<ibc::DvSignature> attestations(batches);
  for (std::size_t i = 0; i < batches; ++i) {
    TimedSpan digest_span{"hash.batch_digest"};
    hash::Sha256 sha;
    sha.update(std::string_view{"perfbench.replay.batch.v1"});
    put_u64(sha, report.epoch);
    put_u64(sha, i);
    for (const ibc::BatchEntry& e : batch_span(i)) {
      sha.update(g.curve().serialize(e.sig->u));
      put_u64(sha, e.message.size());
      sha.update(e.message);
    }
    const hash::Digest digest = sha.finish();
    core::Bytes& msg = attest_messages[i];
    const std::string_view domain{"perfbench.replay.attest.v1"};
    msg.insert(msg.end(), domain.begin(), domain.end());
    put_u64(msg, report.epoch);
    put_u64(msg, i);
    msg.insert(msg.end(), digest.begin(), digest.end());
    layer_ms += digest_span.end();

    TimedSpan sign_span{"ibc.attest_sign"};
    hash::HmacDrbg drbg{std::span<const std::uint8_t>{msg}};
    const ibc::IbsSignature ibs = ibc::ibs_sign(g, *ctx.attestor, msg, drbg);
    attestations[i] = ibc::dv_transform(g, ibs, ctx.verifier->q_id);
    layer_ms += sign_span.end();
  }

  // The epoch's verify phase: batches across the engine pool, each batch the
  // serial cross-user check. Span names follow the epoch's own verdicts.
  std::vector<bool> accepted(batches, true);
  for (std::size_t i = 0; i < batches && i < report.results.size(); ++i) {
    accepted[i] = report.results[i].verdict.accepted;
  }
  std::vector<ibc::CrossUserVerdict> verdicts(batches);
  TimedSpan phase{"replay.verify_phase"};
  ctx.engine->for_each(batches, [&](std::size_t i) {
    TimedSpan span{accepted[i] ? "ibc.cross_user_verify" : "ibc.cross_user_reject"};
    verdicts[i] = ibc::dv_cross_user_verify(g, batch_span(i), *ctx.verifier,
                                            ctx.attestor->q_id, attest_messages[i],
                                            attestations[i]);
  });
  layer_ms += phase.end();
  totals.replayed_epoch_ms += run_epoch_ms;
  totals.replayed_layer_ms += layer_ms;
  for (std::size_t i = 0; i < batches; ++i) {
    if (accepted[i]) totals.accept_entries += batch_span(i).size();
    if (verdicts[i].accepted != accepted[i]) ++totals.replay_mismatches;
  }

  // Outside the epoch-equivalent sum: the 2-pairing check alone and the
  // isolation alone for each rejecting batch, or for one synthetic reject
  // when the epoch had none.
  const auto reject_path = [&](std::span<const ibc::BatchEntry> batch, std::size_t i,
                               bool measure_full) {
    if (measure_full) {
      TimedSpan span{"ibc.cross_user_reject"};
      ibc::dv_cross_user_verify(g, batch, *ctx.verifier, ctx.attestor->q_id,
                                attest_messages[i], attestations[i]);
    }
    {
      TimedSpan span{"ibc.cross_user_verify"};
      ibc::dv_cross_user_verify(g, batch, *ctx.verifier, ctx.attestor->q_id,
                                attest_messages[i], attestations[i],
                                /*isolate_on_reject=*/false);
      totals.accept_entries += batch.size();
    }
    TimedSpan span{"ibc.batch_isolate"};
    ibc::dv_batch_isolate(g, batch, *ctx.verifier);
  };
  bool any_reject = false;
  for (std::size_t i = 0; i < batches; ++i) {
    if (accepted[i]) continue;
    any_reject = true;
    reject_path(batch_span(i), i, /*measure_full=*/false);
  }
  if (!any_reject && batches > 0) {
    const std::span<const ibc::BatchEntry> batch = batch_span(0);
    std::vector<core::Bytes> bad_messages;
    bad_messages.reserve(batch.size());
    std::vector<ibc::BatchEntry> bad(batch.begin(), batch.end());
    for (ibc::BatchEntry& e : bad) {
      bad_messages.emplace_back(e.message.begin(), e.message.end());
      e.message = bad_messages.back();
    }
    bad_messages.front().back() ^= 0x01;
    bad.front().message = bad_messages.front();
    reject_path(bad, 0, /*measure_full=*/true);
  }
}

void probe_layers(const pairing::PairingGroup& g, const ibc::IdentityKey& signer,
                  const ibc::IdentityKey& verifier, std::uint64_t seed) {
  num::Xoshiro256 rng{seed ^ 0x70726f6265ULL};
  const ec::Curve& curve = g.curve();
  const field::PrimeField& fp = g.fp();

  constexpr std::size_t kPoints = 64;
  std::vector<pairing::Point> points;
  std::vector<num::BigUint> scalars;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const std::string label = "perfbench.probe." + std::to_string(rng.next_u64());
    {
      TimedSpan span{"hash.hash_to_g1"};
      points.push_back(g.hash_to_g1("perfbench", label));
    }
    scalars.push_back(g.random_scalar(rng));
  }

  for (std::size_t i = 0; i < kPoints; ++i) {
    TimedSpan span{"ec.mul"};
    points[i] = g.mul(scalars[i], points[i]);
  }
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < kPoints; ++i) {
      const pairing::Point& a = points[i];
      const pairing::Point& b = points[(i + 1 + round) % kPoints];
      {
        TimedSpan span{"ec.add"};
        curve.add(a, b);
      }
      TimedSpan span{"ec.dbl"};
      curve.dbl(a);
    }
  }
  for (std::size_t round = 0; round < 4; ++round) {
    TimedSpan span{"ec.multi_mul_64"};
    curve.multi_mul(scalars, points);
  }
  std::vector<std::vector<std::uint8_t>> wire;
  for (const pairing::Point& p : points) wire.push_back(curve.serialize(p));
  for (std::size_t round = 0; round < 4; ++round) {
    for (const auto& bytes : wire) {
      TimedSpan span{"ec.deserialize"};
      curve.deserialize(bytes);
    }
  }

  const pairing::FixedPairing fixed{g, verifier.secret};
  pairing::Gt acc = g.gt_one();
  for (std::size_t i = 0; i < 16; ++i) {
    const pairing::Point& p = points[i];
    pairing::Gt value;
    {
      TimedSpan span{"pairing.pair"};
      value = g.pair(p, verifier.secret);
    }
    field::Fp2 f;
    {
      TimedSpan span{"pairing.miller"};
      f = g.miller(p, verifier.secret);
    }
    {
      TimedSpan span{"pairing.final_exp"};
      g.finalize(f);
    }
    {
      TimedSpan span{"pairing.fixed_pair"};
      fixed.pair_with(p);
    }
    TimedSpan span{"pairing.gt_mul"};
    for (std::size_t k = 0; k < kGtMulLoop; ++k) acc = g.gt_mul(acc, value);
  }

  for (std::size_t round = 0; round < 16; ++round) {
    num::BigUint a = fp.random(rng);
    const num::BigUint b = fp.random(rng);
    {
      TimedSpan span{"field.mul"};
      for (std::size_t k = 0; k < kFieldMulLoop; ++k) a = fp.mul(a, b);
    }
    for (std::size_t k = 0; k < 16; ++k) {
      TimedSpan span{"field.inv"};
      a = fp.inv(a).value_or(b);
    }
  }

  std::vector<std::uint8_t> buffer(kShaBytes);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t round = 0; round < 8; ++round) {
    TimedSpan span{"hash.sha256_1mib"};
    buffer[round] ^= hash::Sha256::digest(buffer)[0];
  }

  std::vector<merkle::Digest> leaves(1024);
  for (auto& leaf : leaves) leaf = merkle::MerkleTree::leaf_hash(buffer);
  for (std::size_t i = 0; i < leaves.size(); ++i) leaves[i][0] ^= static_cast<std::uint8_t>(i);
  for (std::size_t round = 0; round < 8; ++round) {
    TimedSpan span{"merkle.build"};
    merkle::MerkleTree::build(leaves);
  }
  const merkle::MerkleTree tree = merkle::MerkleTree::build(leaves);
  for (std::size_t k = 0; k < 256; ++k) {
    const std::size_t index = rng.next_u64() % leaves.size();
    const merkle::Proof proof = tree.prove(index);
    TimedSpan span{"merkle.proof_verify"};
    merkle::MerkleTree::verify(tree.root(), leaves[index], proof);
  }

  for (std::size_t k = 0; k < 16; ++k) {
    const core::Bytes msg =
        core::block_message_bytes(core::DataBlock::from_value(k, rng.next_u64()));
    TimedSpan span{"ibc.sign_block"};
    const ibc::IbsSignature ibs = ibc::ibs_sign(g, signer, msg, rng);
    ibc::dv_transform(g, ibs, verifier.q_id);
    ibc::dv_transform(g, ibs, signer.q_id);
  }
}

std::vector<Metric> layer_metrics(const obs::Tracer& tracer, const LayerTotals& t) {
  // Times come from span_clock(); op counts from the trace's span deltas.
  const obs::Profile profile = obs::Profile::from_tracer(tracer);
  std::uint64_t verify_point_muls = 0;
  for (const obs::PhaseStats& p : profile.phases()) {
    if (p.name == "ibc.cross_user_verify") verify_point_muls = p.incl_ops.point_muls;
  }
  // Mean ms per span, divided by the ops each span covers.
  const auto mean_ms = [](std::string_view name, double ops_per_span = 1.0) {
    const SpanClock::Total total = span_clock().total(name);
    if (total.count == 0) return 0.0;
    return total.ms / static_cast<double>(total.count) / ops_per_span;
  };
  const auto mean_us = [&](std::string_view name, double ops_per_span = 1.0) {
    return 1000.0 * mean_ms(name, ops_per_span);
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto epochs = static_cast<double>(t.epochs);
  const SpanClock::Total sha = span_clock().total("hash.sha256_1mib");

  return {
      {"service.submit_us", "us", mean_us("service.submit")},
      {"service.run_epoch_ms", "ms", mean_ms("service.run_epoch")},
      {"service.pairings_per_batch", "count",
       ratio(static_cast<double>(t.verify_pairings), static_cast<double>(t.batches))},
      {"service.oracle_calls_per_epoch", "count",
       ratio(static_cast<double>(t.oracle_calls), epochs)},
      {"service.filtered_per_epoch", "count", ratio(static_cast<double>(t.filtered), epochs)},
      {"service.duplicates_verified", "count",
       ratio(static_cast<double>(t.duplicates_verified), epochs)},
      {"service.unexplained_pct", "%",
       100.0 * ratio(t.replayed_epoch_ms - t.replayed_layer_ms, t.replayed_epoch_ms)},
      {"ibc.cross_user_verify_ms", "ms", mean_ms("ibc.cross_user_verify")},
      {"ibc.point_muls_per_entry", "count",
       ratio(static_cast<double>(verify_point_muls), static_cast<double>(t.accept_entries))},
      {"ibc.cross_user_reject_ms", "ms", mean_ms("ibc.cross_user_reject")},
      {"ibc.batch_isolate_ms", "ms", mean_ms("ibc.batch_isolate")},
      {"ibc.attest_sign_ms", "ms", mean_ms("ibc.attest_sign")},
      {"ibc.sign_block_ms", "ms", mean_ms("ibc.sign_block")},
      {"ec.mul_us", "us", mean_us("ec.mul")},
      {"ec.add_us", "us", mean_us("ec.add")},
      {"ec.dbl_us", "us", mean_us("ec.dbl")},
      {"ec.multi_mul_64_us", "us", mean_us("ec.multi_mul_64")},
      {"ec.deserialize_us", "us", mean_us("ec.deserialize")},
      {"pairing.pair_us", "us", mean_us("pairing.pair")},
      {"pairing.miller_us", "us", mean_us("pairing.miller")},
      {"pairing.final_exp_us", "us", mean_us("pairing.final_exp")},
      {"pairing.fixed_pair_us", "us", mean_us("pairing.fixed_pair")},
      {"pairing.gt_mul_us", "us", mean_us("pairing.gt_mul", kGtMulLoop)},
      {"field.mul_ns", "ns", 1000.0 * mean_us("field.mul", kFieldMulLoop)},
      {"field.inv_us", "us", mean_us("field.inv")},
      {"hash.sha256_mb_s", "MB/s",
       ratio(static_cast<double>(sha.count * kShaBytes), 1000.0 * sha.ms)},
      {"hash.hash_to_g1_us", "us", mean_us("hash.hash_to_g1")},
      {"merkle.build_ms", "ms", mean_ms("merkle.build")},
      {"merkle.proof_verify_us", "us", mean_us("merkle.proof_verify")},
      {"core.sign_blocks_ms", "ms", mean_ms("core.sign_blocks")},
      {"core.store_ms", "ms", mean_ms("core.store")},
      {"core.compute_ms", "ms", mean_ms("core.compute")},
      {"core.audit_ms", "ms", mean_ms("core.audit")},
      {"util.pool_busy_pct", "%",
       100.0 * ratio(t.pool_task_ms,
                     t.pool_epoch_ms * static_cast<double>(t.pool_threads))},
      {"trace.overhead_pct", "%",
       100.0 * ratio(t.audits_per_s_untraced - t.audits_per_s_traced,
                     t.audits_per_s_untraced)},
  };
}

void write_trace(const obs::Tracer& tracer, const std::string& path) {
  if (path.empty()) return;
  const std::filesystem::path out{path};
  if (out.has_parent_path()) std::filesystem::create_directories(out.parent_path());
  std::ofstream file{out, std::ios::binary};
  file << tracer.to_chrome_json();
}

}  // namespace perfbench
