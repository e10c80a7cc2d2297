#!/usr/bin/env python3
"""Alternated parent/change pairs of the repository benchmark.

    python3 tools/perf_pairs.py <base-rev> [--pairs N] [--seconds S]

Checks <base-rev> out in a detached git worktree under
.bench_build/perf_pairs/base and, for every workload in BENCHMARK.json, runs
N pairs of `perfbench/run.py --trace 0`: one run at the base, one at the
working tree. Pair k uses seed k on both sides; the base runs first in even
pairs and the change in odd ones. Each side builds its own harness.

Prints the line count of each tree's src/ (every *.h and *.cc), then, per
workload and end-to-end metric, `median [Q1, Q3]` of each side,
the change in the median and the pairs in which the change read better (ties
count for neither side); then whether the claim rule holds for any metric:
at least nine tenths of at least ten pairs won, and a gap between the medians
wider than the base's interquartile range.

Every comparison is within a pair on one host, so there is no tolerance
setting and no machine-speed probe.

Exit codes:
  0  no regression;
  1  for some workload and end-to-end metric the change reads worse than its
     pair partner by more than the metric's BENCHMARK.json bound in more than
     half the pairs, or a run of the change fails or reports correct: false,
     or the change's failed share of jobs exceeds the base's;
  2  the base cannot be checked out, built or run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # nothing may be written under perfbench/
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import stats  # noqa: E402  (perfbench/stats.py)

BASE_TREE = os.path.join(ROOT, ".bench_build", "perf_pairs", "base")
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_FRAC = 0.9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def worse_by(base, change, better):
    """How much `change` reads worse than `base`, relative to `base`;
    negative when it reads better."""
    if base == 0:
        if change == 0:
            return 0.0
        return math.inf if (change > 0) == (better == "lower") else -math.inf
    d = (change - base) / base
    return d if better == "lower" else -d


def fmt(v):
    return "%.0f" % v if abs(v) >= 1000 else "%.4g" % v


def cell(values):
    return "%s [%s, %s]" % (fmt(statistics.median(values)),
                            fmt(stats.percentile(values, 0.25)[0]),
                            fmt(stats.percentile(values, 0.75)[0]))


def evaluate(spec, pairs):
    """Judge the pairs of every workload.

    `pairs` maps a workload name to its list of (base, change) results, each
    the last line run.py prints: {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}. Returns (report lines, failures);
    the change passes when there are no failures.
    """
    lines = ["| workload | metric | parent | change | Δ median | better |",
             "|---|---|---|---|---|---|"]
    failures, claims, shares = [], [], []
    for workload, runs in pairs.items():
        n = len(runs)
        for k, (_, change) in enumerate(runs, 1):
            if not change["correct"]:
                failures.append("%s: the change's run of pair %d reported correct: false"
                                % (workload, k))
        failed = [sum(r[side]["failed"] for r in runs) for side in (0, 1)]
        attempted = [sum(r[side]["attempted"] for r in runs) for side in (0, 1)]
        share = [f / a if a else 1.0 for f, a in zip(failed, attempted)]
        shares.append("%s parent %d/%d, change %d/%d"
                      % (workload, failed[0], attempted[0], failed[1], attempted[1]))
        if share[1] > share[0]:
            failures.append("%s: failed share %.4f with the change against %.4f at the parent"
                            % (workload, share[1], share[0]))
        for i, m in enumerate(spec["end_to_end"]):
            name, better, bound = m["name"], m["better"], m["bound"]
            base = [r[0]["metrics"][name]["value"] for r in runs]
            change = [r[1]["metrics"][name]["value"] for r in runs]
            worse = [worse_by(b, c, better) for b, c in zip(base, change)]
            wins = sum(1 for w in worse if w < 0)
            past_bound = sum(1 for w in worse if w > bound)
            if past_bound > n / 2:
                failures.append("%s %s: worse than the parent by more than %g %% in %d of %d pairs"
                                % (workload, name, bound * 100, past_bound, n))
            med_b, med_c = statistics.median(base), statistics.median(change)
            delta = "%+.1f %%" % (100 * (med_c - med_b) / med_b) if med_b else "n/a"
            iqr = stats.percentile(base, 0.75)[0] - stats.percentile(base, 0.25)[0]
            gap = med_b - med_c if better == "lower" else med_c - med_b
            if n >= CLAIM_MIN_PAIRS and wins >= CLAIM_WIN_FRAC * n and gap > iqr:
                claims.append("%s %s" % (workload, name))
            label = "`%s` (%d pairs) " % (workload, n) if i == 0 else ""
            lines.append("| %s| `%s` (%s) | %s | %s | %s | %d/%d |"
                         % (label, name, m["unit"], cell(base), cell(change),
                            delta.replace("-", "−"), wins, n))
    lines.append("")
    lines.append("failed jobs: " + "; ".join(shares))
    lines.append("claim rule (at least %d pairs, %d %% of them won, median gap wider than "
                 "the parent's IQR) holds for: %s"
                 % (CLAIM_MIN_PAIRS, CLAIM_WIN_FRAC * 100, ", ".join(claims) or "no metric"))
    return lines, failures


def src_lines(tree):
    """Lines (newlines, as `wc -l` counts them) in every *.h and *.cc file
    under `tree`/src."""
    total = 0
    for dirpath, _, names in os.walk(os.path.join(tree, "src")):
        for name in names:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def checkout_base(rev):
    """Detached worktree of `rev` at BASE_TREE, reused across invocations so
    its harness build is incremental. Returns the commit id, or None."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                             check=True, capture_output=True, text=True).stdout.strip()
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=True)
        if os.path.isdir(BASE_TREE):
            subprocess.run(["git", "-C", BASE_TREE, "checkout", "--quiet", "--force",
                            "--detach", sha], check=True)
        else:
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach",
                            BASE_TREE, sha], check=True)
    except subprocess.CalledProcessError as e:
        print("perf_pairs: %s" % (e.stderr or e), file=sys.stderr)
        return None
    return sha


def run_once(tree, workload, seed, seconds):
    """One untraced run.py run in `tree`. Returns (result, reference
    checksums), or None when it printed no result."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    out = proc.stdout.strip().splitlines()
    try:
        detail, result = json.loads(out[-2])["detail"], json.loads(out[-1])
        return result, detail["reference_checksums"]
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        print("perf_pairs: %s exited %d with no result" % (" ".join(cmd), proc.returncode),
              file=sys.stderr)
        return None


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="the parent revision, e.g. a merge base")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="run length of every run (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")

    sha = checkout_base(args.base)
    if sha is None:
        return 2
    print("perf_pairs: parent %s against the working tree, %d pairs of %g s per workload"
          % (sha[:12], args.pairs, args.seconds))
    parent_lines, change_lines = src_lines(BASE_TREE), src_lines(ROOT)
    print("src/ lines: parent %d, change %d (%+d)"
          % (parent_lines, change_lines, change_lines - parent_lines))
    pairs, same_refs = {}, 0
    for w in spec["workloads"]:
        workload = w["name"]
        pairs[workload] = []
        for k in range(1, args.pairs + 1):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            print("perf_pairs: %s pair %d/%d, seed %d, %s first"
                  % (workload, k, args.pairs, k, order[0]), file=sys.stderr, flush=True)
            got = {}
            for side in order:
                got[side] = run_once(BASE_TREE if side == "base" else ROOT, workload, k,
                                     args.seconds)
                if got[side] is None:
                    if side == "base":
                        print("perf_pairs: the parent cannot be built or run", file=sys.stderr)
                        return 2
                    print("perf_pairs: FAIL: %s: the change's run of pair %d failed"
                          % (workload, k))
                    return 1
            pairs[workload].append((got["base"][0], got["change"][0]))
            same_refs += got["base"][1] == got["change"][1]

    lines, failures = evaluate(spec, pairs)
    print("\n".join(lines))
    print("reference checksums identical in %d of %d pairs"
          % (same_refs, args.pairs * len(pairs)))
    for f in failures:
        print("perf_pairs: FAIL: " + f)
    if not failures:
        print("perf_pairs: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
