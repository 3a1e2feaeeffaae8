#!/usr/bin/env python3
"""Paired same-host performance gate: this checkout against BASE_REF.

    python3 tools/perf_pair.py BASE_REF

Exports BASE_REF with `git archive` into a temporary directory (.git state
is untouched) and runs `perfbench/run.py` from both trees, each with its own
build directory, over a fixed seed list per workload, alternating which tree
runs first. For every end-to-end metric in BENCHMARK.json it reports the
median per-pair ratio, turned so that higher is better, with a bootstrap
confidence interval from a fixed seed. Exit 1 when an interval lies wholly
beyond the metric's bound (worse by more than `bound`), or when any run
fails or prints `"correct": false` or `failed > 0`; exit 2 when BASE_REF
cannot be exported.
"""

import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_sweep", "cohort_batch", "spool_tcp", "fault_campaign")
PAIRS = 7
SEEDS = tuple(range(4001, 4001 + PAIRS))
# At any --seconds up to 1 every workload runs perfbench's minimum (a
# warm-up plus three timed repetitions of 0.3-1.2 s each on a 4-core VM)
# and prints every end-to-end metric; a smaller value keeps that minimum
# on faster hosts too.
SECONDS = 0.01
RESAMPLES = 2000
BOOTSTRAP_SEED = 20240601


def load_spec(tree):
    """The end-to-end metrics BENCHMARK.json declares in `tree`."""
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        return json.load(handle)["end_to_end"]


def run_once(tree, build_dir, workload, seed):
    """One benchmark run's result, or None when the run failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    result = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, CARGO_TARGET_DIR=build_dir))
    try:
        return json.loads(result.stdout.strip().splitlines()[-1]) \
            if result.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        return None


def ratio(base, cand, better):
    """Per-pair ratio, above 1 when the candidate is better."""
    if better == "higher":
        return cand / base if base > 0 else 1.0
    return base / cand if cand > 0 else 1.0


def floor_for(metric):
    """The ratio below which the metric is worse by more than its bound."""
    bound = metric["bound"]
    return 1.0 - bound if metric["better"] == "higher" else 1.0 / (1.0 + bound)


def bootstrap_ci(values):
    """95% percentile bootstrap interval of the median, from a fixed seed."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(RESAMPLES))
    return medians[int(0.025 * RESAMPLES)], medians[int(0.975 * RESAMPLES) - 1]


def evaluate(pairs, spec):
    """Verdict on one workload's (base, candidate) result pairs.

    Returns (rows, problems): a row (metric, median, low, high, floor, ok)
    per metric, and the failed or incorrect runs and missing metrics."""
    problems = []
    for index, pair in enumerate(pairs):
        for side, result in zip(("base", "candidate"), pair):
            if result is None:
                problems.append(f"pair {index + 1} {side}: run failed")
            elif result.get("correct") is not True or result.get("failed", 0) > 0:
                problems.append(f"pair {index + 1} {side}: correct: "
                                f"{result.get('correct')}, failed {result.get('failed')}")
    if problems:
        return [], problems
    rows = []
    for metric in spec:
        name = metric["name"]
        missing = [i + 1 for i, (base, cand) in enumerate(pairs)
                   if name not in base["metrics"] or name not in cand["metrics"]]
        if missing:
            problems.append(f"no {name} in pair(s) {missing}")
            continue
        values = [ratio(base["metrics"][name]["value"], cand["metrics"][name]["value"],
                        metric["better"]) for base, cand in pairs]
        low, high = bootstrap_ci(values)
        floor = floor_for(metric)
        rows.append((name, statistics.median(values), low, high, floor, high >= floor))
    return rows, problems


def export_tree(ref, dest):
    """Writes the tree of `ref` into `dest`; False when git cannot."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    return os.path.exists(os.path.join(dest, "perfbench", "run.py"))


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print("usage: python3 tools/perf_pair.py BASE_REF", file=sys.stderr)
        return 2
    spec = load_spec(ROOT)
    failed = False
    with tempfile.TemporaryDirectory(prefix="perf_pair-") as scratch:
        base_tree = os.path.join(scratch, "base")
        if not export_tree(argv[1], base_tree):
            print(f"perf_pair: cannot export {argv[1]} with perfbench/run.py",
                  file=sys.stderr)
            return 2
        trees = {"base": (base_tree, os.path.join(scratch, "build-base")),
                 "candidate": (ROOT, os.path.join(scratch, "build-candidate"))}
        print(f"{'workload':<15} {'metric':<15} {'median':>7} {'95% CI':>17} "
              f"{'floor':>6}  verdict")
        for workload in WORKLOADS:
            pairs = []
            for index, seed in enumerate(SEEDS):
                results = {}
                for side in sorted(trees, reverse=index % 2 == 1):
                    results[side] = run_once(*trees[side], workload, seed)
                    print(f"perf_pair: {workload} seed {seed} {side}: "
                          f"{json.dumps(results[side])}", file=sys.stderr, flush=True)
                pairs.append((results["base"], results["candidate"]))
            rows, problems = evaluate(pairs, spec)
            for name, median, low, high, floor, ok in rows:
                print(f"{workload:<15} {name:<15} {median:7.3f} [{low:6.3f}, {high:6.3f}] "
                      f"{floor:6.3f}  {'ok' if ok else 'WORSE'}", flush=True)
                failed |= not ok
            for problem in problems:
                print(f"{workload:<15} {problem}", flush=True)
            failed |= bool(problems)
    print("perf_pair: " + ("FAIL" if failed else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
