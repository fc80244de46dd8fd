#!/usr/bin/env python3
"""Compares two result files of bench/e2e/run.sh: a parent and a change.

  compare.py PARENT.json CHANGE.json

Runs pair up by (workload, seed); run both sides with the same seeds, and
alternate which side runs first (run.sh --pairs does both). Both files
must come from windows of the same length (--seconds). Judged per
workload: every end-to-end metric of BENCHMARK.json with its bound, and
the metrics every run prints for information (ops_per_s, op_p50_us,
op_p99_us, cpu_us_per_op, peak_rss_mb and the get_/history_/scan_/write_
p50 and p99) against INFO_BOUND. The verdict is:

  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), and the medians differ by
              more than the parent's interquartile range; not granted
              when the change fails more operations than the parent
  regression  the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  no regression, but the parent's own spread (IQR / median)
              exceeds the bound, and not every change run beats every
              parent run
  same        none of the above

Exit status 1 when a BENCHMARK.json metric regressed or either side has
wrong results, 2 when the files cannot be compared; verdicts on the
information metrics are only reported. When the two sides' runs do not
interleave in time, it warns: the host's drift between them then shows up
as a difference.
"""

import argparse
import json
import os
import sys

from runner import ROOT, summarize

# Timings and peak RSS move 10-40% from run to run on a shared host, so
# BENCHMARK.json does not gate them (see README.md); here they are held to
# the 10% the benchmark aims to repeat within.
INFO_BOUND = 0.10
MIN_PAIRS = 10


def load(path):
    """(window seconds, untraced runs) of one result file."""
    with open(path) as f:
        doc = json.load(f)
    return doc["seconds"], [r for r in doc["runs"] if not r.get("trace")]


def judged_metrics(bench):
    """name -> (better, bound, gated) for every metric compare.py judges."""
    judged = {"ops_per_s": ("higher", INFO_BOUND, False),
              "op_p50_us": ("lower", INFO_BOUND, False),
              "op_p99_us": ("lower", INFO_BOUND, False),
              "cpu_us_per_op": ("lower", INFO_BOUND, False),
              "peak_rss_mb": ("lower", INFO_BOUND, False)}
    for op in ("get", "history", "scan", "write"):
        for q in ("p50", "p99"):
            judged["%s_%s_us" % (op, q)] = ("lower", INFO_BOUND, False)
    judged.update({m["name"]: (m["better"], m["bound"], True)
                   for m in bench["end_to_end"]})
    return judged


def judge(p, c, parent, change, pairs, better, bound, more_failures):
    """Verdict for one metric. p and c are the two sides' summaries
    (runner.summarize), parent and change their values, pairs the
    (parent, change) values per shared seed."""
    sign = 1 if better == "lower" else -1
    p_med = p["median"]
    c_med = c["median"]
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    wins = sum(1 for pv, cv in pairs if sign * (cv - pv) < 0)
    if worse_by > bound:
        return "regression", wins
    if (not more_failures and len(pairs) >= MIN_PAIRS and
            wins >= 0.9 * len(pairs) and worse_by < 0 and
            abs(c_med - p_med) > p["q3"] - p["q1"]):
        return "gain", wins
    spread = (p["q3"] - p["q1"]) / p_med if p_med else 0.0
    dominated = all(sign * (cv - pv) < 0 for cv in change for pv in parent)
    if spread > bound and not dominated:
        return "unresolved", wins
    return "same", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        judged = judged_metrics(json.load(f))
    p_seconds, parent_runs = load(args.parent)
    c_seconds, change_runs = load(args.change)
    if p_seconds != c_seconds:
        print("error: the parent measured %gs windows and the change %gs; "
              "rerun both with the same --seconds" % (p_seconds, c_seconds))
        return 2
    p_times = [r["started"] for r in parent_runs if "started" in r]
    c_times = [r["started"] for r in change_runs if "started" in r]
    if (p_times and c_times and
            (max(p_times) < min(c_times) or max(c_times) < min(p_times))):
        print("warning: parent and change ran one after the other, not "
              "interleaved; timings include the host's drift between them "
              "(use run.sh --pairs)")

    bad = False
    print("%-15s %-16s %12s %12s %8s %7s %11s  %s" %
          ("workload", "metric", "parent", "change", "delta", "bound",
           "wins/pairs", "verdict (* = gated)"))
    p_summary = summarize(parent_runs)
    c_summary = summarize(change_runs)
    workloads = sorted({r["workload"] for r in parent_runs} &
                       {r["workload"] for r in change_runs})
    for w in workloads:
        p_runs = [r for r in parent_runs if r["workload"] == w]
        c_runs = [r for r in change_runs if r["workload"] == w]
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            if not all(r["correct"] for r in runs):
                print("%-15s %s has wrong results" % (w, side))
                bad = True
        more_failures = (sum(r["failed"] for r in c_runs) >
                         sum(r["failed"] for r in p_runs))
        if more_failures:
            print("%-15s the change fails more operations than the parent" % w)
        p_by_seed = {r["seed"]: r for r in p_runs}
        for name, (better, bound, gated) in judged.items():
            p = p_summary.get(w, {}).get(name)
            c = c_summary.get(w, {}).get(name)
            if p is None or c is None:
                continue
            parent = [r["metrics"][name]["value"] for r in p_runs
                      if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in c_runs
                      if name in r["metrics"]]
            pairs = [(p_by_seed[r["seed"]]["metrics"][name]["value"],
                      r["metrics"][name]["value"]) for r in c_runs
                     if r["seed"] in p_by_seed and name in r["metrics"]
                     and name in p_by_seed[r["seed"]]["metrics"]]
            verdict, wins = judge(p, c, parent, change, pairs, better, bound,
                                  more_failures)
            delta = ((c["median"] - p["median"]) / p["median"]
                     if p["median"] else 0.0)
            print("%-15s %-16s %12.5g %12.5g %+7.1f%% %6.0f%% %5d/%-5d  %s%s" %
                  (w, name, p["median"], c["median"], 100 * delta,
                   100 * bound, wins, len(pairs), verdict,
                   " *" if gated else ""))
            bad |= gated and verdict == "regression"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
