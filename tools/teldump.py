#!/usr/bin/env python3
"""Render SecCloud telemetry streams (TEL_*.bin / LEDGER_*.bin / JOURNEY_*.bin).

The audit service's TelemetrySink and VerdictLedger append checksummed
frames under magic 'ST' (16-byte header, truncated-SHA-256 trailer — the
frame format of DESIGN.md §8, src/hash/framing.h); the JourneyRecorder
appends per-request lifecycle frames under magic 'SY'. This tool replays a
stream and renders:

  * a per-epoch markdown (or CSV with --csv) timeline: throughput, rejects,
    batches, pairings/batch, bisection, queue pressure, latency;
  * an ASCII shard heat-map (occupancy + probe pressure per registry shard)
    from the final snapshot;
  * the SLO alert transitions in stream order;
  * for ledger streams, a verdict summary and the full attribution table of
    every non-verified entry (user, epoch, batch, bisection path, pairing
    cost, linked journey id) — the "why was user U flagged?" answer, from
    the bytes alone;
  * for journey streams, a per-request waterfall (one bar per sampled
    journey, stage-by-stage) and the critical-path attribution table:
    per-stage p50/p95/p99 plus the p99 journey's stage shares.

Replay is prefix-tolerant: a torn tail is reported (and, by default, fails
the run — pass --allow-torn to accept the intact prefix). Any checksum
mismatch mid-stream truncates there, exactly like the C++ replay. Every
journey record must satisfy the stage-sum identity: summed stage durations
equal the end-to-end latency within the clock quantum (8 us).

Usage:
  teldump.py TEL_service_steady_state.bin [LEDGER_...bin] [JOURNEY_...bin]
  teldump.py --csv TEL_*.bin          # CSV timeline instead of markdown
  teldump.py --json JOURNEY_*.bin     # machine-readable JSON report
  teldump.py --out report.md TEL_*.bin
  teldump.py --self-test              # synthetic round-trip + torn-tail check

Exits nonzero on unreadable streams, torn tails (without --allow-torn),
non-monotone epoch ids, malformed payloads, or stage-sum violations — CI
runs it over the bench artifacts.
"""

import argparse
import collections
import hashlib
import json
import pathlib
import struct
import sys

MAGIC = b"ST"
JOURNEY_MAGIC = b"SY"
VERSION = 1
HEADER = struct.Struct("<2sBBIII")  # magic, version, type, stream, seq, len
CHECKSUM_BYTES = 8

TYPE_EPOCH_SNAPSHOT = 1
TYPE_SLO_ALERT = 2
TYPE_LEDGER_ENTRY = 3
TYPE_NAMES = {
    TYPE_EPOCH_SNAPSHOT: "epoch-snapshot",
    TYPE_SLO_ALERT: "slo-alert",
    TYPE_LEDGER_ENTRY: "ledger-entry",
}

TYPE_JOURNEY = 1
JOURNEY_TYPE_NAMES = {TYPE_JOURNEY: "journey"}

LEDGER_PAYLOAD = struct.Struct("<QQQIIIIBBHIQQ")  # 64 bytes
VERDICT_NAMES = {  # obs::Verdict: one table for ledger entries and journeys
    1: "verified",
    2: "invalid-signature",
    3: "stale-replay",
    4: "unkeyed",
    5: "attestation-failed",
    6: "rejected-admission",
}
REJECTED_ADMISSION = 6  # ends a journey only; never a ledger verdict
NO_BATCH = 0xFFFFFFFF
NO_REQUEST = 0xFFFFFFFF

JOURNEY_PAYLOAD = struct.Struct("<QQQIIIIBBBBI8III")  # 88 bytes
STAGE_NAMES = [
    "enqueue", "admit", "filter", "flatten", "attest", "verify", "bisect",
    "verdict",
]
STAGE_GLYPHS = "eqflavbd"  # one per stage, for the waterfall bars
SAMPLE_REASONS = [
    (1 << 0, "rejected"),
    (1 << 1, "bisected"),
    (1 << 2, "slowest"),
    (1 << 3, "coin"),
]
STAGE_SUM_QUANTUM_US = 8  # one us of truncation per stage boundary


# Golden frames pinned byte for byte by tests/frame_test.cpp (the C++
# writers' output): one epoch snapshot and one ledger entry on stream 7, and
# one journey on stream 1. The self-test decodes them with this parser.
GOLDEN_EPOCH_SNAPSHOT = bytes.fromhex(
    "535401010700000003000000fb0100007b2265706f6368223a332c2265706f63"
    "685f6d73223a31322e352c2274656c656d657472795f6d73223a302e32352c22"
    "7265717565737473223a382c227374616c655f72656a6563746564223a302c22"
    "756e6b657965645f72656a6563746564223a302c22656e7472696573223a3136"
    "2c2262617463686573223a322c2276657269666965645f726571756573747322"
    "3a382c226661696c65645f7265717565737473223a302c2262797a616e74696e"
    "655f7573657273223a302c22617373656d626c795f70616972696e6773223a32"
    "2c227665726966795f70616972696e6773223a342c2270616972696e67735f70"
    "65725f6261746368223a322c22626973656374696f6e5f6f7261636c655f6361"
    "6c6c73223a302c22626973656374696f6e5f6d61785f6465707468223a302c22"
    "71756575655f64657074685f61745f647261696e223a382c2271756575655f61"
    "646d6974746564223a382c2271756575655f72656a6563746564223a302c2272"
    "657472795f61667465725f65706f636873223a302c22736861726473223a5b7b"
    "227573657273223a342c226b65796564223a322c227461626c655f736c6f7473"
    "223a36342c2270726f62655f6d6178223a312c2270726f62655f746f74616c22"
    "3a327d5d2c22636f756e7465725f64656c746173223a7b22736572766963652e"
    "65706f636873223a317d7d7b3fa419cc09edee")
GOLDEN_LEDGER_ENTRY = bytes.fromhex(
    "5354010307000000000000004000000001000000000000002a00000000000000"
    "0700000000000000010000000300000000000000050000000203000005000000"
    "090000000000000065000000000000009008017bb3aa1bbd")
GOLDEN_JOURNEY = bytes.fromhex(
    "5359010101000000000000005800000065000000000000004d04000000000000"
    "000000000000000000000000000000000400000000000000020b0300fa000000"
    "3c000000ac030000030000000200000005000000500000000800000002000000"
    "4c04000000000000117d501070b42ea8")


class Record:
    __slots__ = ("type", "stream_id", "seq", "payload")

    def __init__(self, rtype, stream_id, seq, payload):
        self.type = rtype
        self.stream_id = stream_id
        self.seq = seq
        self.payload = payload


def replay(data: bytes, magic: bytes = MAGIC, types=TYPE_NAMES):
    """Mirror of obs::replay_telemetry / obs::replay_journeys: every intact
    record in order, then (records, torn_tail, clean_bytes)."""
    records = []
    pos = 0
    torn = False
    while pos < len(data):
        if len(data) - pos < HEADER.size + CHECKSUM_BYTES:
            torn = True
            break
        fmagic, version, rtype, stream_id, seq, length = HEADER.unpack_from(data, pos)
        if fmagic != magic or version != VERSION or rtype not in types:
            torn = True
            break
        total = HEADER.size + length + CHECKSUM_BYTES
        if len(data) - pos < total:
            torn = True
            break
        body = data[pos : pos + HEADER.size + length]
        checksum = data[pos + HEADER.size + length : pos + total]
        if hashlib.sha256(body).digest()[:CHECKSUM_BYTES] != checksum:
            torn = True
            break
        records.append(Record(rtype, stream_id, seq,
                              data[pos + HEADER.size : pos + HEADER.size + length]))
        pos += total
    return records, torn, pos


def decode_ledger_entry(payload: bytes):
    """Mirror of service::decode_ledger_entry; None on a malformed payload."""
    if len(payload) != LEDGER_PAYLOAD.size:
        return None
    (epoch, user, version, batch, request_index, block_index, entry_in_batch,
     verdict, isolation_depth, _reserved, isolation_path,
     batch_pairings, journey_id) = LEDGER_PAYLOAD.unpack(payload)
    if verdict not in VERDICT_NAMES or verdict == REJECTED_ADMISSION:
        return None
    return {
        "epoch": epoch,
        "user": user,
        "version": version,
        "batch": batch,
        "request_index": request_index,
        "block_index": block_index,
        "entry_in_batch": entry_in_batch,
        "verdict": VERDICT_NAMES[verdict],
        "isolation_depth": isolation_depth,
        "isolation_path": isolation_path,
        "batch_pairings": batch_pairings,
        "journey_id": journey_id,
    }


def decode_journey(payload: bytes):
    """Mirror of obs::decode_journey_record; None on a malformed payload."""
    if len(payload) != JOURNEY_PAYLOAD.size:
        return None
    fields = JOURNEY_PAYLOAD.unpack(payload)
    (request_id, user, epoch, batch, request_index, blocks, retry_after,
     verdict, sampled, bisection_depth, _reserved) = fields[:11]
    amortized_milli = fields[11]
    stage_us = list(fields[12:20])
    end_to_end_us = fields[20]
    if verdict not in VERDICT_NAMES:
        return None
    return {
        "request_id": request_id,
        "user": user,
        "epoch": epoch,
        "batch": batch,
        "request_index": request_index,
        "blocks": blocks,
        "retry_after_epochs": retry_after,
        "verdict": VERDICT_NAMES[verdict],
        "sampled": sampled,
        "sampled_reasons": [name for bit, name in SAMPLE_REASONS if sampled & bit],
        "bisection_depth": bisection_depth,
        "amortized_pairings_milli": amortized_milli,
        "stage_us": stage_us,
        "end_to_end_us": end_to_end_us,
    }


def isolation_path_str(depth: int, bits: int) -> str:
    """Root-to-leaf descent, L = left half, R = right half."""
    if depth == 0:
        return "-"
    return "".join("R" if bits >> level & 1 else "L" for level in range(depth))


def parse_stream(path: pathlib.Path, allow_torn: bool, errors: list):
    """Sniffs the magic, replays, and validates dense seq numbers. Returns
    (kind, records) where kind is "telemetry" or "journey"."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        errors.append(f"{path}: unreadable: {exc}")
        return "telemetry", []
    if data[:2] == JOURNEY_MAGIC:
        kind, magic, types = "journey", JOURNEY_MAGIC, JOURNEY_TYPE_NAMES
    else:
        kind, magic, types = "telemetry", MAGIC, TYPE_NAMES
    records, torn, clean = replay(data, magic, types)
    if torn and not allow_torn:
        errors.append(
            f"{path}: torn tail after {clean}/{len(data)} bytes "
            f"({len(records)} intact records) — pass --allow-torn to accept"
        )
    if not records:
        errors.append(f"{path}: no intact records")
    for i, record in enumerate(records):
        if record.seq != i:
            errors.append(f"{path}: record #{i} has seq {record.seq} (not dense)")
            break
    return kind, records


def split_records(records, path, errors):
    snapshots, alerts, ledger = [], [], []
    for record in records:
        if record.type == TYPE_EPOCH_SNAPSHOT:
            try:
                snapshots.append(json.loads(record.payload.decode()))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                errors.append(f"{path}: snapshot seq {record.seq}: bad JSON: {exc}")
        elif record.type == TYPE_SLO_ALERT:
            try:
                alerts.append(json.loads(record.payload.decode()))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                errors.append(f"{path}: alert seq {record.seq}: bad JSON: {exc}")
        elif record.type == TYPE_LEDGER_ENTRY:
            entry = decode_ledger_entry(record.payload)
            if entry is None:
                errors.append(f"{path}: ledger seq {record.seq}: malformed payload")
            else:
                ledger.append(entry)
    epochs = [snap.get("epoch", 0) for snap in snapshots]
    if epochs != sorted(epochs) or len(set(epochs)) != len(epochs):
        errors.append(f"{path}: snapshot epoch ids not strictly increasing: {epochs}")
    return snapshots, alerts, ledger


def split_journeys(records, path, errors):
    """Decodes journey records and enforces the invariants CI relies on:
    strictly increasing request ids (the global admission ordinal) and the
    stage-sum identity for every record."""
    journeys = []
    for record in records:
        journey = decode_journey(record.payload)
        if journey is None:
            errors.append(f"{path}: journey seq {record.seq}: malformed payload")
            continue
        stage_sum = sum(journey["stage_us"])
        if abs(stage_sum - journey["end_to_end_us"]) > STAGE_SUM_QUANTUM_US:
            errors.append(
                f"{path}: journey {journey['request_id']}: stage sum {stage_sum}us "
                f"!= end-to-end {journey['end_to_end_us']}us (quantum "
                f"{STAGE_SUM_QUANTUM_US}us)"
            )
        journeys.append(journey)
    ids = [journey["request_id"] for journey in journeys]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        errors.append(f"{path}: journey request ids not strictly increasing")
    return journeys


def nearest_rank(sorted_values, pct):
    """Mirror of the C++ nearest-rank percentile (over a sorted list)."""
    if not sorted_values:
        return 0
    rank = int((pct / 100.0) * len(sorted_values) + 0.5)
    index = 0 if rank == 0 else rank - 1
    return sorted_values[min(index, len(sorted_values) - 1)]


def attribute(journeys):
    """Mirror of obs::attribute_journeys over the replayed (sampled)
    journeys: per-stage p50/p95/p99/total plus the p99 journey's shares."""
    out = {
        "journeys": len(journeys),
        "stages": [],
        "p99_end_to_end_us": 0,
        "p99_request_id": 0,
        "p99_share": [0.0] * len(STAGE_NAMES),
    }
    for index, name in enumerate(STAGE_NAMES):
        values = sorted(journey["stage_us"][index] for journey in journeys)
        out["stages"].append({
            "stage": name,
            "p50_us": nearest_rank(values, 50.0),
            "p95_us": nearest_rank(values, 95.0),
            "p99_us": nearest_rank(values, 99.0),
            "total_us": sum(values),
        })
    if not journeys:
        return out
    e2e = sorted(journey["end_to_end_us"] for journey in journeys)
    p99 = nearest_rank(e2e, 99.0)
    out["p99_end_to_end_us"] = p99
    pick = None
    for journey in journeys:
        if journey["end_to_end_us"] > p99:
            continue
        if (pick is None or journey["end_to_end_us"] > pick["end_to_end_us"] or
                (journey["end_to_end_us"] == pick["end_to_end_us"] and
                 journey["request_id"] < pick["request_id"])):
            pick = journey
    if pick is not None:
        out["p99_request_id"] = pick["request_id"]
        denom = max(sum(pick["stage_us"]), 1)
        out["p99_share"] = [us / denom for us in pick["stage_us"]]
    return out


TIMELINE_COLUMNS = [
    ("epoch", "epoch", "d"),
    ("requests", "requests", "d"),
    ("verified", "verified_requests", "d"),
    ("failed", "failed_requests", "d"),
    ("stale", "stale_rejected", "d"),
    ("unkeyed", "unkeyed_rejected", "d"),
    ("entries", "entries", "d"),
    ("batches", "batches", "d"),
    ("pair/batch", "pairings_per_batch", ".2f"),
    ("bisect", "bisection_oracle_calls", "d"),
    ("byz", "byzantine_users", "d"),
    ("q.depth", "queue_depth_at_drain", "d"),
    ("q.rej", "queue_rejected", "d"),
    ("epoch ms", "epoch_ms", ".2f"),
    ("tel ms", "telemetry_ms", ".3f"),
]


def render_timeline_md(snapshots, out):
    out.append("## Epoch timeline")
    out.append("")
    header = " | ".join(name for name, _, _ in TIMELINE_COLUMNS)
    out.append(f"| {header} |")
    out.append("|" + "|".join(["---"] * len(TIMELINE_COLUMNS)) + "|")
    for snap in snapshots:
        cells = []
        for _, key, fmt in TIMELINE_COLUMNS:
            value = snap.get(key, 0)
            cells.append(format(int(value) if fmt == "d" else float(value), fmt))
        out.append("| " + " | ".join(cells) + " |")
    out.append("")


def render_timeline_csv(snapshots, out):
    out.append(",".join(key for _, key, _ in TIMELINE_COLUMNS))
    for snap in snapshots:
        out.append(",".join(str(snap.get(key, 0)) for _, key, _ in TIMELINE_COLUMNS))


HEAT_GLYPHS = " .:-=+*#%@"


def render_shard_heatmap(snapshots, out):
    """Occupancy heat-map from the final snapshot: one glyph per shard,
    scaled against the busiest shard, 64 shards per row; plus the probe
    pressure leaders."""
    if not snapshots or not snapshots[-1].get("shards"):
        return
    shards = snapshots[-1]["shards"]
    peak = max(shard.get("users", 0) for shard in shards) or 1
    out.append(f"## Shard heat-map ({len(shards)} shards, final snapshot)")
    out.append("")
    out.append(f"glyph = shard occupancy / busiest shard ({peak} users): "
               f"'{HEAT_GLYPHS[1]}' low .. '{HEAT_GLYPHS[-1]}' high")
    out.append("")
    out.append("```")
    for row_start in range(0, len(shards), 64):
        row = shards[row_start : row_start + 64]
        glyphs = []
        for shard in row:
            users = shard.get("users", 0)
            index = 0 if users == 0 else 1 + (len(HEAT_GLYPHS) - 2) * users // peak
            glyphs.append(HEAT_GLYPHS[min(index, len(HEAT_GLYPHS) - 1)])
        out.append(f"{row_start:6d} {''.join(glyphs)}")
    out.append("```")
    out.append("")
    ranked = sorted(enumerate(shards), key=lambda kv: -kv[1].get("probe_max", 0))[:5]
    out.append("| shard | users | keyed | table slots | probe max | probe avg |")
    out.append("|---|---|---|---|---|---|")
    for index, shard in ranked:
        users = shard.get("users", 0) or 1
        out.append(
            f"| {index} | {shard.get('users', 0)} | {shard.get('keyed', 0)} "
            f"| {shard.get('table_slots', 0)} | {shard.get('probe_max', 0)} "
            f"| {shard.get('probe_total', 0) / users:.2f} |"
        )
    out.append("")


def render_alerts(alerts, out):
    if not alerts:
        return
    out.append("## SLO alerts")
    out.append("")
    for alert in alerts:
        state = "FIRING" if alert.get("firing") else "resolved"
        out.append(
            f"- epoch {alert.get('epoch', 0)}: **{alert.get('slo', '?')}** {state} "
            f"(burn {alert.get('burn', 0.0):.2f}x over a "
            f"{alert.get('window_epochs', 0)}-epoch window)"
        )
    out.append("")


def verdict_tally(records) -> str:
    """'2 unkeyed, 9 verified': ledger entries or journeys counted by verdict."""
    tally = collections.Counter(record["verdict"] for record in records)
    return ", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items()))


def render_ledger(ledger, out):
    if not ledger:
        return
    out.append("## Verdict ledger")
    out.append("")
    out.append(f"{len(ledger)} records: {verdict_tally(ledger)}")
    out.append("")
    flagged = [entry for entry in ledger if entry["verdict"] != "verified"]
    if not flagged:
        out.append("No non-verified entries — nothing to attribute.")
        out.append("")
        return
    out.append("### Attribution (every non-verified entry)")
    out.append("")
    out.append("| epoch | user | version | batch | entry | verdict | "
               "isolation path | batch pairings | journey |")
    out.append("|---|---|---|---|---|---|---|---|---|")
    for entry in flagged:
        batch = "-" if entry["batch"] == NO_BATCH else str(entry["batch"])
        journey = str(entry["journey_id"]) if entry["journey_id"] else "-"
        out.append(
            f"| {entry['epoch']} | {entry['user']} | {entry['version']} | {batch} "
            f"| {entry['entry_in_batch']} | {entry['verdict']} "
            f"| {isolation_path_str(entry['isolation_depth'], entry['isolation_path'])} "
            f"| {entry['batch_pairings']} | {journey} |"
        )
    out.append("")


WATERFALL_WIDTH = 40
WATERFALL_MAX_ROWS = 40


def waterfall_bar(journey) -> str:
    """One proportional bar over the stage glyphs: 'qqqqqvvvbd' reads as
    'mostly queued, then verify, a little bisect, verdict'."""
    total = sum(journey["stage_us"]) or 1
    bar = []
    for glyph, us in zip(STAGE_GLYPHS, journey["stage_us"]):
        if us == 0:
            continue
        cells = max(1, round(WATERFALL_WIDTH * us / total))
        bar.append(glyph * cells)
    return "".join(bar)[: WATERFALL_WIDTH + len(STAGE_NAMES)]


def render_journeys(journeys, out):
    if not journeys:
        return
    out.append("## Request journeys")
    out.append("")
    out.append(f"{len(journeys)} sampled records: {verdict_tally(journeys)}")
    out.append("")
    out.append("### Waterfall (stage glyphs: " +
               ", ".join(f"{g}={name}" for g, name in zip(STAGE_GLYPHS, STAGE_NAMES)) +
               ")")
    out.append("")
    out.append("| request | user | epoch | batch | verdict | sampled | e2e ms | "
               "waterfall |")
    out.append("|---|---|---|---|---|---|---|---|")
    for journey in journeys[:WATERFALL_MAX_ROWS]:
        batch = "-" if journey["batch"] == NO_BATCH else str(journey["batch"])
        out.append(
            f"| {journey['request_id']} | {journey['user']} | {journey['epoch']} "
            f"| {batch} | {journey['verdict']} "
            f"| {'+'.join(journey['sampled_reasons']) or '-'} "
            f"| {journey['end_to_end_us'] / 1000.0:.3f} "
            f"| `{waterfall_bar(journey)}` |"
        )
    if len(journeys) > WATERFALL_MAX_ROWS:
        out.append(f"| ... | | | | | | | {len(journeys) - WATERFALL_MAX_ROWS} more |")
    out.append("")

    attribution = attribute(journeys)
    out.append("### Critical-path attribution (sampled journeys)")
    out.append("")
    out.append(f"p99 end-to-end {attribution['p99_end_to_end_us'] / 1000.0:.3f} ms, "
               f"defined by request {attribution['p99_request_id']}")
    out.append("")
    out.append("| stage | p50 us | p95 us | p99 us | total us | p99 share |")
    out.append("|---|---|---|---|---|---|")
    for index, stage in enumerate(attribution["stages"]):
        out.append(
            f"| {stage['stage']} | {stage['p50_us']} | {stage['p95_us']} "
            f"| {stage['p99_us']} | {stage['total_us']} "
            f"| {100.0 * attribution['p99_share'][index]:.1f}% |"
        )
    out.append("")


def self_test() -> int:
    """Synthetic round-trip: build streams the way the C++ writers do,
    render them, then verify torn-tail and corruption handling."""

    def frame(rtype, stream_id, seq, payload, magic=MAGIC):
        body = HEADER.pack(magic, VERSION, rtype, stream_id, seq, len(payload)) + payload
        return body + hashlib.sha256(body).digest()[:CHECKSUM_BYTES]

    snapshots = []
    for epoch in range(3):
        snapshots.append({
            "epoch": epoch, "epoch_ms": 10.0 + epoch, "telemetry_ms": 0.05,
            "requests": 8, "stale_rejected": 0, "unkeyed_rejected": 0,
            "entries": 16, "batches": 2, "verified_requests": 8,
            "failed_requests": 0, "byzantine_users": 0,
            "assembly_pairings": 2, "verify_pairings": 4,
            "pairings_per_batch": 2.0, "bisection_oracle_calls": 0,
            "bisection_max_depth": 0, "queue_depth_at_drain": 8,
            "queue_admitted": 8, "queue_rejected": 4 if epoch == 0 else 0,
            "retry_after_epochs": 1,
            "shards": [{"users": 4 * (index + 1), "keyed": 2, "table_slots": 64,
                        "probe_max": index, "probe_total": 2 * index}
                       for index in range(4)],
            "counter_deltas": {"service.epochs": 1},
        })
    alert = {"slo": "admission_rejects", "epoch": 0, "firing": True,
             "burn": 10.0, "window_epochs": 2}
    stream = b"".join(
        [frame(TYPE_EPOCH_SNAPSHOT, 7, 0, json.dumps(snapshots[0]).encode()),
         frame(TYPE_SLO_ALERT, 7, 1, json.dumps(alert).encode())] +
        [frame(TYPE_EPOCH_SNAPSHOT, 7, 2 + i, json.dumps(s).encode())
         for i, s in enumerate(snapshots[1:])])

    ledger_entries = [
        LEDGER_PAYLOAD.pack(0, 42, 7, 1, 3, 0, 5, 2, 3, 0, 0b101, 9, 101),
        LEDGER_PAYLOAD.pack(0, 43, 7, NO_BATCH, 4, 0, 0, 3, 0, 0, 0, 0, 102),
        LEDGER_PAYLOAD.pack(1, 44, 8, 0, 0, 1, 1, 1, 0, 0, 0, 2, 0),
    ]
    ledger_stream = b"".join(frame(TYPE_LEDGER_ENTRY, 7, seq, payload)
                             for seq, payload in enumerate(ledger_entries))

    # Journey stream: two in-batch requests and one admission reject. The
    # first journey's stage sum (60+940+3+2+5+80+8+2 = 1100) matches its
    # end-to-end exactly; the second is off by 4 us (inside the quantum).
    def journey_payload(request_id, epoch, batch, request_index, verdict,
                        sampled, stage_us, end_to_end, retry=0, depth=0):
        return JOURNEY_PAYLOAD.pack(
            request_id, 1000 + request_id, epoch, batch, request_index, 4,
            retry, verdict, sampled, depth, 0, 250, *stage_us, end_to_end, 0)

    journey_payloads = [
        journey_payload(101, 0, 0, 0, 2, 0b1011,
                        [60, 940, 3, 2, 5, 80, 8, 2], 1100, depth=3),
        journey_payload(102, 0, NO_BATCH, 1, 3, 0b0001,
                        [55, 950, 3, 0, 0, 0, 0, 0], 1004),
        journey_payload(103, 0, NO_BATCH, NO_REQUEST, 6, 0b0101,
                        [45, 0, 0, 0, 0, 0, 0, 0], 45, retry=1),
    ]
    journey_stream = b"".join(
        frame(TYPE_JOURNEY, 1, seq, payload, magic=JOURNEY_MAGIC)
        for seq, payload in enumerate(journey_payloads))

    failures = []

    # The C++ writers' golden bytes decode to the values frame_test encoded.
    errors = []
    grecords, gtorn, _ = replay(GOLDEN_EPOCH_SNAPSHOT + GOLDEN_LEDGER_ENTRY)
    gsnaps, _, gentries = split_records(grecords, pathlib.Path("<golden>"), errors)
    if (gtorn or errors or len(gsnaps) != 1 or len(gentries) != 1 or
            grecords[0].stream_id != 7 or grecords[0].seq != 3 or
            gsnaps[0]["epoch"] != 3 or gsnaps[0]["epoch_ms"] != 12.5 or
            gsnaps[0]["shards"][0]["table_slots"] != 64 or
            gsnaps[0]["counter_deltas"] != {"service.epochs": 1}):
        failures.append(f"golden 'ST' frames: torn={gtorn} errors={errors}")
    elif (gentries[0]["user"] != 42 or gentries[0]["verdict"] != "invalid-signature" or
          gentries[0]["isolation_depth"] != 3 or gentries[0]["isolation_path"] != 0b101 or
          gentries[0]["journey_id"] != 101):
        failures.append(f"golden ledger entry: {gentries[0]}")
    grecords, gtorn, _ = replay(GOLDEN_JOURNEY, JOURNEY_MAGIC, JOURNEY_TYPE_NAMES)
    gjourneys = split_journeys(grecords, pathlib.Path("<golden>"), errors)
    if gtorn or errors or len(gjourneys) != 1 or grecords[0].stream_id != 1:
        failures.append(f"golden 'SY' frame: torn={gtorn} errors={errors}")
    elif (gjourneys[0]["request_id"] != 101 or gjourneys[0]["stage_us"][1] != 940 or
          gjourneys[0]["end_to_end_us"] != 1100 or gjourneys[0]["bisection_depth"] != 3 or
          gjourneys[0]["sampled_reasons"] != ["rejected", "bisected", "coin"]):
        failures.append(f"golden journey: {gjourneys[0]}")
    if replay(GOLDEN_JOURNEY)[0] or replay(GOLDEN_LEDGER_ENTRY, JOURNEY_MAGIC,
                                           JOURNEY_TYPE_NAMES)[0]:
        failures.append("golden frame replayed under the other magic")

    records, torn, clean = replay(stream)
    if torn or len(records) != 4 or clean != len(stream):
        failures.append(f"clean replay: torn={torn} records={len(records)}")
    errors = []
    snaps, alerts, _ = split_records(records, pathlib.Path("<self-test>"), errors)
    if errors or len(snaps) != 3 or len(alerts) != 1:
        failures.append(f"split: errors={errors} snaps={len(snaps)} alerts={len(alerts)}")

    out = []
    render_timeline_md(snaps, out)
    render_shard_heatmap(snaps, out)
    render_alerts(alerts, out)
    if not any("| 2 |" in line for line in out):
        failures.append("timeline render lost the final epoch")

    lrecords, ltorn, _ = replay(ledger_stream)
    errors = []
    _, _, lentries = split_records(lrecords, pathlib.Path("<self-test>"), errors)
    if ltorn or errors or len(lentries) != 3:
        failures.append(f"ledger replay: torn={ltorn} errors={errors}")
    else:
        flagged = [e for e in lentries if e["verdict"] != "verified"]
        if len(flagged) != 2 or flagged[0]["user"] != 42:
            failures.append(f"ledger attribution: {flagged}")
        if flagged[0]["journey_id"] != 101 or flagged[1]["journey_id"] != 102:
            failures.append("ledger journey cross-link lost")
        if isolation_path_str(3, 0b101) != "RLR":
            failures.append("isolation path rendering")
    # Verdict 6 ends a journey only: a ledger record carrying it is malformed.
    if decode_ledger_entry(LEDGER_PAYLOAD.pack(0, 42, 7, 1, 3, 0, 5, 6, 0, 0, 0, 2, 0)):
        failures.append("ledger decoder accepted a rejected-admission verdict")

    # Journey replay: the magic sniff must reject 'ST' parsing, the decoder
    # must round-trip every field, and the stage-sum identity must hold.
    jrecords, jtorn, jclean = replay(journey_stream, JOURNEY_MAGIC,
                                     JOURNEY_TYPE_NAMES)
    if jtorn or len(jrecords) != 3 or jclean != len(journey_stream):
        failures.append(f"journey replay: torn={jtorn} records={len(jrecords)}")
    strecords, sttorn, _ = replay(journey_stream)  # wrong magic: torn at 0
    if not sttorn or strecords:
        failures.append("journey stream replayed under the telemetry magic")
    errors = []
    journeys = split_journeys(jrecords, pathlib.Path("<self-test>"), errors)
    if errors or len(journeys) != 3:
        failures.append(f"journey split: errors={errors} n={len(journeys)}")
    else:
        first = journeys[0]
        if (first["request_id"] != 101 or first["verdict"] != "invalid-signature" or
                first["stage_us"][1] != 940 or first["bisection_depth"] != 3 or
                first["sampled_reasons"] != ["rejected", "bisected", "coin"] or
                first["amortized_pairings_milli"] != 250):
            failures.append(f"journey decode: {first}")
        if journeys[2]["verdict"] != "rejected-admission" or \
                journeys[2]["retry_after_epochs"] != 1:
            failures.append("rejected-admission journey decode")
        attribution = attribute(journeys)
        # p99 over [45, 1004, 1100] nearest-rank -> 1100, request 101; its
        # admit share is 940/1100.
        if (attribution["p99_end_to_end_us"] != 1100 or
                attribution["p99_request_id"] != 101 or
                abs(attribution["p99_share"][1] - 940 / 1100) > 1e-9):
            failures.append(f"attribution: {attribution}")
        if attribution["stages"][1]["p50_us"] != 940 or \
                attribution["stages"][1]["total_us"] != 940 + 950:
            failures.append("stage percentile/total attribution")
        out = []
        render_journeys(journeys, out)
        if not any("qq" in line and "| 101 |" in line for line in out):
            failures.append("waterfall render lost the queue-dominated bar")

    # A stage-sum violation (beyond the quantum) must be reported.
    bad = journey_payload(104, 1, 0, 0, 1, 0b1000,
                          [10, 10, 0, 0, 0, 0, 0, 0], 500)
    bad_stream = frame(TYPE_JOURNEY, 1, 0, bad, magic=JOURNEY_MAGIC)
    brecords, _, _ = replay(bad_stream, JOURNEY_MAGIC, JOURNEY_TYPE_NAMES)
    errors = []
    split_journeys(brecords, pathlib.Path("<self-test>"), errors)
    if not any("stage sum" in e for e in errors):
        failures.append("stage-sum violation not detected")

    # Every truncation point must yield an intact prefix, never an error.
    for name, data, magic, types in (
            ("telemetry", stream, MAGIC, TYPE_NAMES),
            ("journey", journey_stream, JOURNEY_MAGIC, JOURNEY_TYPE_NAMES)):
        for cut in range(len(data)):
            records, torn, clean = replay(data[:cut], magic, types)
            if clean > cut:
                failures.append(f"{name} truncation at {cut}: clean={clean} > cut")
                break
            if not torn and cut != clean:
                failures.append(f"{name} truncation at {cut}: not reported as torn")
                break

    # A flipped byte anywhere in a record kills that record and the rest.
    corrupt = bytearray(stream)
    corrupt[len(stream) // 2] ^= 0x01
    records, torn, _ = replay(bytes(corrupt))
    if not torn and len(records) == 4:
        failures.append("corruption not detected")
    jcorrupt = bytearray(journey_stream)
    jcorrupt[len(journey_stream) // 2] ^= 0x01
    jrecords, jtorn, _ = replay(bytes(jcorrupt), JOURNEY_MAGIC, JOURNEY_TYPE_NAMES)
    if not jtorn and len(jrecords) == 3:
        failures.append("journey corruption not detected")

    if failures:
        for failure in failures:
            print(f"self-test FAIL: {failure}", file=sys.stderr)
        return 1
    print("teldump self-test ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("streams", nargs="*", type=pathlib.Path,
                        help="TEL_*.bin / LEDGER_*.bin / JOURNEY_*.bin streams")
    parser.add_argument("--csv", action="store_true",
                        help="emit the timeline as CSV instead of markdown")
    parser.add_argument("--json", action="store_true",
                        help="emit the full decoded report as JSON")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the report here instead of stdout")
    parser.add_argument("--allow-torn", action="store_true",
                        help="accept a torn tail (render the intact prefix)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic round-trip checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.streams:
        parser.error("no streams given (and --self-test not requested)")
    if args.csv and args.json:
        parser.error("--csv and --json are mutually exclusive")

    errors = []
    snapshots, alerts, ledger, journeys = [], [], [], []
    for path in args.streams:
        kind, records = parse_stream(path, args.allow_torn, errors)
        if kind == "journey":
            journeys += split_journeys(records, path, errors)
        else:
            snaps, alrts, lentries = split_records(records, path, errors)
            snapshots += snaps
            alerts += alrts
            ledger += lentries

    if args.json:
        report = json.dumps({
            "snapshots": snapshots,
            "alerts": alerts,
            "ledger": ledger,
            "journeys": journeys,
            "attribution": attribute(journeys) if journeys else None,
        }, indent=2) + "\n"
    elif args.csv:
        out = []
        render_timeline_csv(snapshots, out)
        report = "\n".join(out) + "\n"
    else:
        out = []
        out.append("# SecCloud telemetry report")
        out.append("")
        out.append(f"Sources: {', '.join(str(p) for p in args.streams)}")
        out.append("")
        if snapshots:
            render_timeline_md(snapshots, out)
            render_shard_heatmap(snapshots, out)
        render_alerts(alerts, out)
        render_ledger(ledger, out)
        render_journeys(journeys, out)
        report = "\n".join(out) + "\n"

    if args.out:
        args.out.write_text(report)
        print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    else:
        sys.stdout.write(report)

    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
