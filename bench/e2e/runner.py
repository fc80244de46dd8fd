#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (invoked by bench/e2e/run.sh).

Modes:
  run.sh [--workload W]... [--seed N] [--repeat R] [--trace [0|1]]
         [--seconds S]
      Runs every named workload (default: all in BENCHMARK.json) R times,
      seeds N, N+1, ..., each in a fresh tsb_e2e process. Writes
      bench/e2e/results/<run>.json with every run's values plus the median
      and quartiles across repeats.
  run.sh --pairs N --against REV [--workload W]...
      Builds REV (a `git archive` snapshot with this bench/e2e and
      BENCHMARK.json laid over it, so both sides run identical benchmark
      code), runs N alternating parent/change pairs per workload, writes
      both result files and runs compare.py on them.

It exits non-zero when a run failed or gave a wrong result, or when a
workload did not print every BENCHMARK.json end_to_end metric (per_layer
with --trace 1). With exactly one workload, the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds those metrics as medians over the runs; with
several workloads there is no such line, only the per-workload medians.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(HERE, "results")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout or interrupt kills it and waits."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build(src_root, build_dir):
    """Configures (once) and builds tsb_e2e for the tree at src_root."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(src_root, need)):
            log("runner: %s has no %s; the benchmark builds the engine "
                "from the repository it sits in" % (src_root, need))
            sys.exit(2)
    # Compiler and benchmark temporaries stay inside the checkout too.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    src = os.path.join(src_root, "bench", "e2e")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc, _ = run_child(cmd, 600, stdout=sys.stderr)
        if rc != 0:
            log("runner: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    rc, _ = run_child(["cmake", "--build", build_dir, "--target", "tsb_e2e",
                       "-j", jobs], 900, stdout=sys.stderr)
    if rc != 0:
        log("runner: build failed")
        sys.exit(2)
    return os.path.join(build_dir, "tsb_e2e")


def run_once(binary, workload, seed, args, db_dir):
    """One tsb_e2e process; returns its parsed result (or a failure)."""
    trace = args.trace
    os.makedirs(db_dir, exist_ok=True)
    started = time.time()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--dir", db_dir, "--out", RESULTS]
    try:
        rc, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            text=True)
    except subprocess.TimeoutExpired:
        log("runner: %s seed %d timed out" % (workload, seed))
        return {"workload": workload, "seed": seed, "trace": trace,
                "started": started, "exit": -1, "correct": False,
                "attempted": 0, "failed": 0, "metrics": {}}
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if rc not in (0, 1) or result is None:
        log("runner: %s seed %d exited %d without a result" %
            (workload, seed, rc))
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    result.update({"workload": workload, "seed": seed, "trace": trace,
                   "started": started, "exit": rc})
    return result


def summarize(runs):
    """Per workload and metric: median, quartiles and extremes over runs."""
    summary = {}
    for run in runs:
        per = summary.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per.setdefault(name, {"unit": m["unit"], "values": []})
            per[name]["values"].append(m["value"])
    for per in summary.values():
        for entry in per.values():
            v = entry.pop("values")
            entry["n"] = len(v)
            entry["median"] = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = q3 = v[0]
            entry["q1"] = q1
            entry["q3"] = q3
            entry["min"] = min(v)
            entry["max"] = max(v)
    return summary


def write_results(path, args, runs):
    with open(path, "w") as f:
        json.dump({"seconds": args.seconds, "runs": runs,
                   "summary": summarize(runs)}, f, indent=1, sort_keys=True)
        f.write("\n")
    log("runner: wrote %s" % os.path.relpath(path, ROOT))


def final_line(bench, runs, trace):
    """Checks that every run succeeded and every workload printed every
    BENCHMARK.json metric. Returns (ok, contract line); the line carries
    one workload's metrics (medians), so it is None for several."""
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    summary = summarize(runs)
    workloads = sorted({r["workload"] for r in runs})
    missing = ["%s %s" % (w, name) for w in workloads for name in names
               if name not in summary.get(w, {})]
    if missing:
        log("runner: metrics missing from the output: %s" % ", ".join(missing))
    ok = all(r["correct"] and r["exit"] == 0 for r in runs) and not missing
    if len(workloads) != 1:
        return ok, None
    per = summary.get(workloads[0], {})
    return ok, {"correct": ok,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {name: {"value": per[name]["median"],
                                   "unit": per[name]["unit"]}
                            for name in names if name in per}}


def finish(bench, runs, trace, other_ok=True):
    """Prints the contract line (one workload only) and exits."""
    ok, line = final_line(bench, runs, trace)
    if line is not None:
        print(json.dumps(line), flush=True)
    sys.exit(0 if ok and other_ok else 1)


def snapshot(rev):
    """Unpacks `rev` with this benchmark laid over it; returns the source
    tree and its build directory."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    base = os.path.join(BUILD, "against", sha[:12])
    src = os.path.join(base, "src")
    if not os.path.exists(src):
        os.makedirs(src)
        archive = os.path.join(base, "tree.tar")
        subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, sha],
                       check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(src)
        os.remove(archive)
    overlay = os.path.join(src, "bench", "e2e")
    shutil.rmtree(overlay, ignore_errors=True)
    shutil.copytree(HERE, overlay,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), src)
    log("runner: parent %s from %s" % (sha, os.path.relpath(src, ROOT)))
    return src, os.path.join(base, "build")


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", action="append",
                   help="workload name (repeatable; default all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--against", help="git revision for --pairs")
    args = p.parse_args()

    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            p.error("unknown workload %s (known: %s)" % (w, ", ".join(known)))
    if args.pairs and not args.against:
        p.error("--pairs needs --against REV")
    if args.repeat < 1 or args.seconds <= 0:
        p.error("--repeat must be >= 1 and --seconds > 0")

    binary = build(ROOT, os.path.join(BUILD, "e2e"))
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    db_dir = os.path.join(BUILD, "e2e", "db")

    if args.pairs:
        src, build_dir = snapshot(args.against)
        parent_bin = build(src, build_dir)
        sides = {"parent": (parent_bin, []), "change": (binary, [])}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for w in workloads:
                for side in order:
                    log("runner: pair %d/%d %s %s" %
                        (i + 1, args.pairs, w, side))
                    sides[side][1].append(run_once(
                        sides[side][0], w, args.seed + i, args, db_dir))
        paths = {}
        for side, (_, runs) in sides.items():
            paths[side] = os.path.join(RESULTS, "%s-pairs-%s.json" %
                                       (stamp, side))
            write_results(paths[side], args, runs)
        rc, _ = run_child([sys.executable, os.path.join(HERE, "compare.py"),
                           paths["parent"], paths["change"]], None)
        finish(bench, sides["change"][1], args.trace, rc == 0)

    runs = []
    for w in workloads:
        for i in range(args.repeat):
            runs.append(run_once(binary, w, args.seed + i, args, db_dir))
    suffix = "-trace" if args.trace else ""
    write_results(os.path.join(RESULTS, "%s%s.json" % (stamp, suffix)),
                  args, runs)
    if len(runs) > 1:
        print("# medians over %d run(s) per workload" % args.repeat)
        for w, per in summarize(runs).items():
            for name, m in per.items():
                print("%s %s %.10g %s" % (w, name, m["median"], m["unit"]),
                      flush=True)
    finish(bench, runs, args.trace)


if __name__ == "__main__":
    main()
