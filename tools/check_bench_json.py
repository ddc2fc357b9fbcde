#!/usr/bin/env python3
"""Validate BENCH_*.json and TRACE_*.json telemetry files from bench_support.h.

For every file matching BENCH_*.json under the given directory (default: the
current directory) this asserts:

  * the file is parseable JSON with the expected top-level shape
    (name, smoke, uses_pairing_group, wall_ms, build, values, notes, metrics);
  * the build block carries provenance: git_sha, build_type, and sanitizers
    (stamped by CMake so committed baselines stay traceable);
  * the metrics block round-trips as counters / gauges / histograms with
    consistent histogram bucket shapes (len(counts) == len(edges) + 1,
    sum(counts) == count);
  * when uses_pairing_group is true, the cumulative pairing-operation count
    across all *.pairings counters is nonzero (the instrumented group really
    published through the registry);
  * BENCH_service_steady_state.json additionally satisfies the service
    schema: per-scale u<N>_* sweep values, the service.* metrics tree, a
    nonzero backpressure rejection count, and — pinned — exactly 2 pairings
    per clean cross-user batch;
  * BENCH_ablation_bisection_fallback.json spends at most 2 + k·⌈log2 n⌉
    pairings on its acceptance cell (k = 3 bad of n = 64): the batch check,
    isolation's own root check, and one range evaluation per failing
    internal node.

Every TRACE_*.json (Chrome trace-event format) in the same directory is also
checked: the traceEvents array must exist, every event needs a name and
non-negative ts (and non-negative dur for 'X' events), and per tid the 'X'
spans must nest properly — a child span must lie entirely inside its parent,
never straddling its parent's end.

Every TEL_*.bin / LEDGER_*.bin telemetry stream (the checksummed append-only
records from TelemetrySink / VerdictLedger) is replayed with the teldump
parser: the stream must end cleanly (no torn tail — the bench exited
normally, so a torn tail means a writer bug), hold at least one record,
carry dense sequence numbers, and its epoch-snapshot ids must be strictly
increasing. Ledger payloads must all decode.

Every JOURNEY_*.bin stream (JourneyRecorder, magic 'SY') is replayed the
same way and must additionally satisfy the journey schema: every payload
decodes to an 88-byte record, request ids are strictly increasing (the
global admission ordinal), and every record obeys the stage-sum identity —
summed stage durations equal the end-to-end latency within the 8 us clock
quantum. Every always-sample verdict (anything non-verified) must carry the
'rejected' sample-reason bit.

Every METRICS_*.prom OpenMetrics exposition is line-checked: histogram
_bucket lines may carry an exemplar suffix, which must parse as
` # {request_id="<n>",epoch="<n>"} <value>`, and
METRICS_service_steady_state.prom must carry at least one exemplar (the
service binds exemplar-enabled histograms at the sustained scale).

Exits nonzero, listing every failure, if anything is wrong — CI runs this
after the bench smoke pass.
"""

import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import teldump  # noqa: E402  (sibling module, same tools/ directory)


def check_histogram(name: str, hist: dict, errors: list) -> None:
    edges = hist.get("edges")
    counts = hist.get("counts")
    if not isinstance(edges, list) or not isinstance(counts, list):
        errors.append(f"histogram {name}: missing edges/counts arrays")
        return
    if len(counts) != len(edges) + 1:
        errors.append(
            f"histogram {name}: {len(counts)} buckets for {len(edges)} edges"
        )
    if edges != sorted(edges) or len(set(edges)) != len(edges):
        errors.append(f"histogram {name}: edges not strictly ascending")
    total = hist.get("count")
    if sum(counts) != total:
        errors.append(f"histogram {name}: bucket sum {sum(counts)} != count {total}")
    for q in ("p50", "p95", "p99"):
        if q not in hist:
            errors.append(f"histogram {name}: missing {q}")
    saturated = hist.get("saturated")
    if not isinstance(saturated, bool):
        errors.append(f"histogram {name}: missing boolean 'saturated' flag")
    elif saturated != (bool(counts) and counts[-1] > 0):
        errors.append(
            f"histogram {name}: saturated={saturated} contradicts the "
            f"overflow bucket count {counts[-1] if counts else 0}"
        )


def check_service_bench(doc: dict, errors: list) -> None:
    """Schema for the service_steady_state bench: the fleet-scale sweep must
    report its scale, its throughput/latency/memory values per sweep point,
    the service.* metrics tree, and — the pinned paper invariant — exactly
    2 pairings per clean cross-user batch (epoch attestation + mixed-signer
    aggregate). A drift here means the service regressed to per-user
    verification and the headline batching result is gone. Signing the
    epoch attestations costs no pairing at all (the attestor's DvSigner
    raises a prepared GT value), so attestation_pairings_per_batch must be
    exactly 0."""
    values = doc.get("values", {})
    if values.get("cross_user_pairings_per_batch") != 2:
        errors.append(
            "service bench: values.cross_user_pairings_per_batch is "
            f"{values.get('cross_user_pairings_per_batch')!r}, must be exactly 2"
        )
    if values.get("attestation_pairings_per_batch") != 0:
        errors.append(
            "service bench: values.attestation_pairings_per_batch is "
            f"{values.get('attestation_pairings_per_batch')!r}, must be exactly 0"
        )
    if not isinstance(values.get("users_peak"), (int, float)) or values.get(
            "users_peak", 0) <= 0:
        errors.append("service bench: values.users_peak missing or non-positive")
    sweep_tags = {key.split("_", 1)[0] for key in values if key.startswith("u")
                  and key.split("_", 1)[0][1:].isdigit()}
    if not sweep_tags:
        errors.append("service bench: no per-scale u<N>_* sweep values")
    for tag in sorted(sweep_tags):
        for suffix in ("audits_per_sec", "epoch_p99_ms", "registry_bytes",
                       "batches", "entries"):
            if f"{tag}_{suffix}" not in values:
                errors.append(f"service bench: missing values.{tag}_{suffix}")
    counters = doc.get("metrics", {}).get("counters", {})
    for name in ("service.requests.verified", "service.epochs",
                 "service.queue.admitted", "service.queue.rejected"):
        if name not in counters:
            errors.append(f"service bench: missing counter {name}")
    if counters.get("service.queue.rejected", 0) <= 0:
        errors.append(
            "service bench: the backpressure probe admitted everything — "
            "service.queue.rejected must be nonzero"
        )
    if "service.epoch_ms" not in doc.get("metrics", {}).get("histograms", {}):
        errors.append("service bench: missing histogram service.epoch_ms")
    # The journey pipeline: a deterministic sampled-record count (pinned in
    # thresholds.json) and the worst epoch's p99 stage attribution (one share
    # per lifecycle stage, warn-only since it is timing-derived).
    if not isinstance(values.get("journey_records"), (int, float)) or values.get(
            "journey_records", 0) <= 0:
        errors.append("service bench: values.journey_records missing or zero")
    for stage in teldump.STAGE_NAMES:
        key = f"p99_attribution_{stage}_pct"
        share = values.get(key)
        if not isinstance(share, (int, float)) or share < 0 or share > 100:
            errors.append(f"service bench: values.{key} missing or out of [0, 100]")


# ablation_bisection_fallback's acceptance cell: k corrupted of n entries.
BISECTION_CELL_N = 64
BISECTION_CELL_K = 3


def check_bisection_bench(doc: dict, errors: list) -> None:
    """The isolation cost model as a ceiling: a rejected batch pays its
    aggregate check, the standalone isolation's root check, and at most one
    range evaluation per level for each bad entry. A regression past it
    fails here, so it cannot be quietly re-pinned in the baseline."""
    spent = doc.get("values", {}).get("acceptance_fallback_pairings")
    levels = (BISECTION_CELL_N - 1).bit_length()  # ceil(log2 n)
    bound = 2 + BISECTION_CELL_K * levels
    if not isinstance(spent, (int, float)):
        errors.append("bisection bench: values.acceptance_fallback_pairings missing")
    elif spent > bound:
        errors.append(
            f"bisection bench: acceptance_fallback_pairings is {spent}, above "
            f"2 + k*ceil(log2 n) = {bound} for k = {BISECTION_CELL_K} of "
            f"n = {BISECTION_CELL_N}"
        )


def check_file(path: pathlib.Path) -> list:
    errors = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]

    for field in ("name", "smoke", "uses_pairing_group", "wall_ms", "build",
                  "values", "notes", "metrics"):
        if field not in doc:
            errors.append(f"missing top-level field '{field}'")
    if errors:
        return errors

    expected_name = path.stem.removeprefix("BENCH_")
    if doc["name"] != expected_name:
        errors.append(f"name '{doc['name']}' does not match filename")
    if not isinstance(doc["wall_ms"], (int, float)) or doc["wall_ms"] < 0:
        errors.append(f"wall_ms {doc['wall_ms']!r} is not a non-negative number")

    build = doc["build"]
    if not isinstance(build, dict):
        errors.append("build is not an object")
    else:
        for field in ("git_sha", "build_type", "sanitizers"):
            value = build.get(field)
            if not isinstance(value, str) or not value:
                errors.append(f"build.{field} missing or not a non-empty string")

    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    counters = metrics.get("counters", {})
    for name, value in counters.items():
        if not isinstance(value, (int, float)) or value < 0:
            errors.append(f"counter {name}: value {value!r} is not a non-negative number")
    for name, hist in metrics.get("histograms", {}).items():
        check_histogram(name, hist, errors)

    if doc["uses_pairing_group"]:
        pairings = sum(v for k, v in counters.items() if k.endswith(".pairings"))
        if pairings <= 0:
            errors.append(
                "uses_pairing_group is true but the cumulative *.pairings "
                "counter total is zero"
            )
    if doc["name"] == "service_steady_state":
        check_service_bench(doc, errors)
    if doc["name"] == "ablation_bisection_fallback":
        check_bisection_bench(doc, errors)
    return errors


def check_stream(path: pathlib.Path) -> list:
    """TEL_*.bin / LEDGER_*.bin schema: checksum-verified clean tail, at
    least one record, dense sequence numbers, strictly increasing epoch ids
    in the snapshots, and decodable ledger payloads. The bench writes these
    after every epoch completes, so a torn tail here is a writer bug, not a
    crash artefact."""
    errors = []
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    records, torn, clean = teldump.replay(data)
    if torn:
        errors.append(
            f"torn tail: only {clean}/{len(data)} bytes replay cleanly "
            f"({len(records)} intact records)"
        )
    if not records:
        errors.append("no intact records")
    # split_records appends dense-seq / epoch-monotonicity / payload-decode
    # failures straight into `errors` with the path prefix already applied by
    # our caller's formatting, so strip its own prefix for consistency.
    stream_errors = []
    teldump.split_records(records, path, stream_errors)
    errors += [e.removeprefix(f"{path}: ") for e in stream_errors]
    for i, record in enumerate(records):
        if record.seq != i:
            errors.append(f"record #{i} has seq {record.seq} (not dense)")
            break
    if path.name.startswith("LEDGER_"):
        non_ledger = sum(1 for r in records if r.type != teldump.TYPE_LEDGER_ENTRY)
        if non_ledger:
            errors.append(f"{non_ledger} non-ledger records in a LEDGER_ stream")
    return errors


def check_journey_stream(path: pathlib.Path) -> list:
    """JOURNEY_*.bin schema: clean tail under the journey magic 'SY', dense
    sequence numbers, strictly increasing request ids, the per-record
    stage-sum identity (split_journeys enforces both), and the sampling
    policy's always-sample contract — every non-verified journey must carry
    the 'rejected' reason bit."""
    errors = []
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    records, torn, clean = teldump.replay(data, teldump.JOURNEY_MAGIC,
                                          teldump.JOURNEY_TYPE_NAMES)
    if torn:
        errors.append(
            f"torn tail: only {clean}/{len(data)} bytes replay cleanly "
            f"({len(records)} intact records)"
        )
    if not records:
        errors.append("no intact records")
    for i, record in enumerate(records):
        if record.seq != i:
            errors.append(f"record #{i} has seq {record.seq} (not dense)")
            break
    stream_errors = []
    journeys = teldump.split_journeys(records, path, stream_errors)
    errors += [e.removeprefix(f"{path}: ") for e in stream_errors]
    for journey in journeys:
        if journey["sampled"] == 0:
            errors.append(f"journey {journey['request_id']}: zero sampled bits")
        if journey["verdict"] != "verified" and \
                "rejected" not in journey["sampled_reasons"]:
            errors.append(
                f"journey {journey['request_id']}: verdict {journey['verdict']} "
                f"without the always-sample 'rejected' bit"
            )
        if journey["verdict"] == "rejected-admission" and \
                journey["retry_after_epochs"] == 0:
            errors.append(
                f"journey {journey['request_id']}: admission reject without a "
                f"retry-after hint"
            )
    return errors


# A histogram bucket line, optionally with an OpenMetrics exemplar suffix:
#   name_bucket{le="0.25"} 17 # {request_id="42",epoch="3"} 0.21
BUCKET_LINE = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*_bucket\{le="[^"]+"\} \d+'
    r'( # \{request_id="\d+",epoch="\d+"\} -?[0-9.eE+-]+(Inf|NaN)?)?$'
)


def check_prom(path: pathlib.Path) -> list:
    """METRICS_*.prom exemplar syntax: every _bucket line must match the
    OpenMetrics shape (exemplar suffix optional but well-formed), and the
    service bench's exposition must carry at least one exemplar, proving the
    exemplar-enabled histograms really linked buckets to request journeys."""
    errors = []
    try:
        text = path.read_text()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    if not text.endswith("# EOF\n"):
        errors.append("missing '# EOF' terminator")
    exemplars = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "_bucket{" not in line:
            continue
        if not BUCKET_LINE.match(line):
            errors.append(f"line {lineno}: malformed bucket/exemplar line: {line!r}")
        elif " # {" in line:
            exemplars += 1
    if path.name == "METRICS_service_steady_state.prom" and exemplars == 0:
        errors.append(
            "no exemplars in the service exposition — the exemplar-enabled "
            "histograms (service.epoch_ms / service.batch_verify_ms) recorded none"
        )
    return errors


def check_trace(path: pathlib.Path) -> list:
    errors = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]

    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        return ["traceEvents is missing or not an array"]

    spans_by_tid = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event #{i}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"event #{i}: missing name")
            name = f"<event #{i}>"
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event '{name}': ts {ts!r} is not a non-negative number")
            continue
        ph = event.get("ph")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event '{name}': dur {dur!r} is not a non-negative number")
                continue
            spans_by_tid.setdefault(event.get("tid", 0), []).append((ts, dur, name))

    # Per-thread nesting: after sorting by (start, longest-first), every span
    # must sit entirely inside whatever enclosing span is still open. A span
    # that straddles its parent's end means the writer emitted a malformed
    # (interleaved, not nested) tree.
    for tid, spans in sorted(spans_by_tid.items()):
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for ts, dur, name in spans:
            while stack and ts >= stack[-1][0] + stack[-1][1]:
                stack.pop()
            if stack and ts + dur > stack[-1][0] + stack[-1][1]:
                parent = stack[-1]
                errors.append(
                    f"tid {tid}: span '{name}' [{ts}, {ts + dur}) straddles "
                    f"enclosing span '{parent[2]}' ending at {parent[0] + parent[1]}"
                )
            stack.append((ts, dur, name))
    return errors


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    bench_files = sorted(root.glob("BENCH_*.json"))
    if not bench_files:
        print(f"error: no BENCH_*.json files found under {root}", file=sys.stderr)
        return 1
    trace_files = sorted(root.glob("TRACE_*.json"))
    stream_files = sorted(root.glob("TEL_*.bin")) + sorted(root.glob("LEDGER_*.bin"))
    journey_files = sorted(root.glob("JOURNEY_*.bin"))
    prom_files = sorted(root.glob("METRICS_*.prom"))

    failed = 0
    checks = [(path, check_file) for path in bench_files]
    checks += [(path, check_trace) for path in trace_files]
    checks += [(path, check_stream) for path in stream_files]
    checks += [(path, check_journey_stream) for path in journey_files]
    checks += [(path, check_prom) for path in prom_files]
    for path, checker in checks:
        errors = checker(path)
        if errors:
            failed += 1
            print(f"FAIL {path}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok   {path}")
    total = len(checks)
    if failed:
        print(f"\n{failed}/{total} telemetry files failed validation",
              file=sys.stderr)
        return 1
    print(f"\nall {total} telemetry files valid "
          f"({len(bench_files)} bench, {len(trace_files)} trace, "
          f"{len(stream_files)} stream, {len(journey_files)} journey, "
          f"{len(prom_files)} prom)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
