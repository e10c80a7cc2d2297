#!/usr/bin/env python3
"""Validate and summarize an EclipseMR Chrome trace-event JSON capture.

Out-of-process twin of src/obs: ValidateChromeTrace's structural checks and
obs::Summarize's per-job reduction, over the JSON artifact instead of the
in-memory capture. Works on captures from the real engine (B/E spans) and
from the DES simulator ('X' complete events) alike — that schema parity is
the point (see docs/observability.md).

Usage:
    tools/trace_report.py trace.json              # validate + summary
    tools/trace_report.py --validate-only trace.json
    tools/trace_report.py --diff real.json sim.json

Exit status: 0 valid, 1 structurally invalid, 2 unreadable input.
Stdlib only — no third-party dependencies.
"""

import argparse
import bisect
import json
import sys

REQUIRED_FIELDS = ("ph", "ts", "pid", "tid", "name", "cat")
PHASES = {"B", "E", "i", "X"}


def validate(events):
    """Return a list of structural errors (empty list = valid)."""
    errors = []
    last_ts = None
    stacks = {}  # (pid, tid) -> [span names]
    for n, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {n}: not an object")
            continue
        missing = [f for f in REQUIRED_FIELDS if f not in ev]
        if missing:
            errors.append(f"event {n}: missing fields {missing}")
            continue
        ph = ev["ph"]
        if ph not in PHASES:
            errors.append(f"event {n}: unknown phase {ph!r}")
            continue
        ts = ev["ts"]
        if last_ts is not None and ts < last_ts:
            errors.append(f"event {n}: timestamp {ts} < previous {last_ts}")
        last_ts = ts
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            stacks.setdefault(track, []).append(ev["name"])
        elif ph == "E":
            stack = stacks.get(track, [])
            if not stack:
                errors.append(f"event {n}: 'E' {ev['name']!r} with no open span on {track}")
            elif stack[-1] != ev["name"]:
                errors.append(
                    f"event {n}: 'E' {ev['name']!r} does not close {stack[-1]!r} on {track}")
            else:
                stack.pop()
        elif ph == "X" and "dur" not in ev:
            errors.append(f"event {n}: 'X' without dur")
    for track, stack in stacks.items():
        for name in stack:
            errors.append(f"unclosed span {name!r} on {track}")
    return errors


def complete_spans(events):
    """Pair B/E per (pid, tid) track; pass X and i through.

    Yields dicts: {name, cat, ph ('X' or 'i'), pid, ts, dur, args}.
    """
    spans = []
    stacks = {}
    for ev in events:
        ph = ev["ph"]
        track = (ev["pid"], ev["tid"])
        if ph == "B":
            stacks.setdefault(track, []).append(ev)
        elif ph == "E":
            stack = stacks.get(track, [])
            if stack and stack[-1]["name"] == ev["name"]:
                begin = stack.pop()
                args = dict(begin.get("args", {}))
                args.update(ev.get("args", {}))
                spans.append({
                    "name": ev["name"], "cat": ev["cat"], "ph": "X",
                    "pid": ev["pid"], "ts": begin["ts"],
                    "dur": ev["ts"] - begin["ts"], "args": args,
                })
        else:
            spans.append({
                "name": ev["name"], "cat": ev["cat"], "ph": ph,
                "pid": ev["pid"], "ts": ev["ts"],
                "dur": ev.get("dur", 0), "args": ev.get("args", {}),
            })
    spans.sort(key=lambda s: s["ts"])
    return spans


LOCALITIES = ("memory", "local_disk", "remote_disk", "skipped")


def summarize(events):
    """Per-job summaries, mirroring obs::Summarize."""
    spans = complete_spans(events)
    jobs = [
        {
            "job_id": s["args"].get("job", 0), "start": s["ts"], "wall": s["dur"],
            "maps": 0, "reduces": 0, "waves": 0,
            "locality": {k: 0 for k in LOCALITIES},
            "bytes": {k: 0 for k in LOCALITIES}, "spilled": 0,
            "assigns": 0, "repartitions": 0,
            "map_us": [], "reduce_us": [], "reduce_delay_us": [],
            "phase_begins": [], "reduce_begins": [],
        }
        for s in spans if s["ph"] == "X" and s["name"] == "job"
    ]

    by_id = {}
    for j in jobs:
        by_id.setdefault(j["job_id"], j)

    def owner(ts):
        best = None
        for j in jobs:
            if j["start"] <= ts <= j["start"] + j["wall"]:
                best = j
        return best

    for s in spans:
        # An explicit `job` argument is authoritative (concurrent jobs have
        # overlapping intervals); spans without one — older captures and the
        # DES simulator — fall back to interval containment.
        j = None
        if s["name"] != "job":
            j = by_id.get(s["args"].get("job"))
        if j is None:
            j = owner(s["ts"])
        if j is None:
            continue
        name, args = s["name"], s["args"]
        if name == "map_task" and s["ph"] == "X":
            j["maps"] += 1
            j["map_us"].append(s["dur"])
            loc = args.get("locality", "skipped")
            if loc in j["locality"]:
                j["locality"][loc] += 1
                j["bytes"][loc] += args.get("bytes", 0)
        elif name == "reduce_task" and s["ph"] == "X":
            j["reduces"] += 1
            j["reduce_us"].append(s["dur"])
            j["reduce_begins"].append(s["ts"])
        elif name == "reduce_phase" and s["ph"] == "X":
            j["phase_begins"].append(s["ts"])
        elif name == "map_phase" and s["ph"] == "X":
            j["waves"] += 1
        elif name == "spill":
            j["spilled"] += args.get("bytes", 0)
        elif name == "sched_assign":
            j["assigns"] += 1
        elif name == "laf_repartition":
            j["repartitions"] += 1
    # Reduce start delay: each reduce_task's begin minus the begin of the
    # job's latest reduce_phase that starts at or before it. Matched after
    # the pass, since a phase and its first task may share a timestamp.
    for j in jobs:
        phases = j["phase_begins"]  # ascending
        for begin in j["reduce_begins"]:
            k = bisect.bisect_right(phases, begin)
            if k:
                j["reduce_delay_us"].append(begin - phases[k - 1])
    return jobs


def quantile(sorted_vals, q):
    if not sorted_vals:
        return 0
    idx = max(0, min(len(sorted_vals) - 1, int(q * len(sorted_vals) + 0.999999) - 1))
    return sorted_vals[idx]


def render(jobs):
    lines = [f"=== trace summary: {len(jobs)} job(s) ==="]
    for j in jobs:
        total = max(j["maps"], 1)
        lines.append(
            f"job {j['job_id']}: wall {j['wall'] / 1000.0:.3f} ms, "
            f"{j['maps']} map task(s) in {j['waves']} wave(s), {j['reduces']} reduce task(s)")
        loc = j["locality"]
        lines.append(
            "  map locality: "
            f"memory {loc['memory']} ({100.0 * loc['memory'] / total:.1f}%) | "
            f"local-disk {loc['local_disk']} ({100.0 * loc['local_disk'] / total:.1f}%) | "
            f"remote-disk {loc['remote_disk']} ({100.0 * loc['remote_disk'] / total:.1f}%) | "
            f"skipped {loc['skipped']}")
        b = j["bytes"]
        lines.append(
            f"  bytes: from-memory {b['memory']} | local-disk {b['local_disk']} | "
            f"remote-disk {b['remote_disk']} | spilled {j['spilled']}")
        for key, label in (("map_us", "map task us"), ("reduce_us", "reduce task us")):
            vals = sorted(j[key])
            if vals:
                lines.append(
                    f"  {label}: p50 {quantile(vals, 0.5)} | p95 {quantile(vals, 0.95)} | "
                    f"p99 {quantile(vals, 0.99)} | max {vals[-1]} (n={len(vals)})")
        delays = sorted(j["reduce_delay_us"])
        if delays:
            lines.append(
                f"  reduce start delay us: p50 {quantile(delays, 0.5)} | "
                f"p90 {quantile(delays, 0.9)} | max {delays[-1]} (n={len(delays)})")
        lines.append(
            f"  sched: {j['assigns']} assign(s), {j['repartitions']} LAF repartition(s)")
    return "\n".join(lines)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: unreadable: {e}", file=sys.stderr)
        sys.exit(2)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"{path}: no traceEvents array", file=sys.stderr)
        sys.exit(1)
    return events


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument("other", nargs="?", help="second trace for --diff")
    ap.add_argument("--validate-only", action="store_true",
                    help="structural validation only, no summary")
    ap.add_argument("--diff", action="store_true",
                    help="print both summaries side by side (e.g. real vs sim)")
    args = ap.parse_args()

    paths = [args.trace] + ([args.other] if args.diff and args.other else [])
    status = 0
    for path in paths:
        events = load(path)
        errors = validate(events)
        if errors:
            status = 1
            print(f"{path}: INVALID ({len(errors)} error(s))")
            for e in errors[:20]:
                print(f"  {e}")
            continue
        print(f"{path}: valid ({len(events)} events)")
        if not args.validate_only:
            print(render(summarize(events)))
    return status


if __name__ == "__main__":
    sys.exit(main())
