"""Benchmark of the ephemedit engines through their public calls.

    python3 perfbench/run.py --workload index-pangenome --seed 1 --seconds 16 --trace 0

runs one workload in this process and prints, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics, timed with no
tracing in place; ``--trace 1`` gives the per-layer metrics from spans
around the library's layers, plus the tracing overhead on queries.
Without ``--workload`` every workload runs, each in its own process, one
after another. Reference figures go to standard error; result and span
files go to ``perfbench/results/``.

A run first builds everything: it sets up from the raw letters, which
prepares the first pattern, and then prepares the other patterns. It then
answers rounds of ops for ``--seconds``; a round answers every op of every
pattern once. Between rounds it builds each pattern again, one build at a
time, evenly spaced, until each was built ``builds`` times (a number set
per workload). ``SAMPLED_ROUNDS`` rounds,
evenly spaced too, give each op's best time. Every answer is compared with the benchmark's own
seam-window computation (see `check`) outside the timed call; every
``RESCAN_EVERY``-th op of a batch is also checked by a full rescan.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from check import Expected, as_str, edited_length, rescan, seam, verdict, well_formed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SAMPLED_ROUNDS = 18
RESCAN_EVERY = 8
WORKLOAD_NAMES = ("index-pangenome", "index-long-blocks", "pm-periodic")
KINDS = {"I": "insert", "D": "delete", "S": "substitute"}

clock = time.perf_counter_ns
INF = float("inf")


class OpStats:
    """Outcome of every op, and answer times in the order of the round's
    ops, with -1 for an op that failed: every answer of the run, and the
    answers of the sampled rounds, one array per round."""

    def __init__(self):
        self.rounds = 0
        self.times = array("q")
        self.sampled: list[array] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_wrong: str | None = None

    def fail(self, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if self.first_wrong is None:
            self.first_wrong = reason


def run_round(answer, handle, ops: list[tuple], stats: OpStats, m: int, times: array) -> int:
    """Answer every op of a batch once, appending each answer time to
    ``times``; return the nanoseconds spent in answer calls that succeeded.
    ``ops`` holds (edit, kind, expected, edited length) tuples."""
    spent = 0
    for edit, kind, expected, n_edited in ops:
        stats.attempted += 1
        t0 = clock()
        try:
            got = answer(handle, edit)
        except Exception as exc:  # a raising op is a failed op, not a crash
            stats.fail(f"{edit!r} raised {exc!r}", wrong=False)
            times.append(-1)
            continue
        dt = clock() - t0
        if got != expected:
            stats.fail(f"{edit!r}: {verdict(got, expected, n_edited, m)}", wrong=True)
            times.append(-1)
            continue
        times.append(dt)
        spent += dt
    return spent


def expected_batches(inputs) -> tuple[list[list[tuple]], dict]:
    """Each batch's ops with their expected answers, and reference figures."""
    from engines import to_edit

    text = as_str(inputs.letters)
    n = len(text)
    out = []
    ops = touching = occurrences = 0
    for batch in inputs.batches:
        exp = Expected(text, as_str(batch.pattern))
        m = exp.m
        rows = []
        for j, op in enumerate(batch.ops):
            answer = exp.answer(op)
            n_edited = edited_length(op, n)
            if not well_formed(answer, n_edited, m):
                raise RuntimeError(f"benchmark check built a malformed answer for {op!r}")
            if j % RESCAN_EVERY == 0 and rescan(text, exp.pattern, op) != answer:
                raise RuntimeError(f"benchmark check disagrees with a full rescan on {op!r}")
            ell, _, block = seam(op)
            ops += 1
            occurrences += len(answer)
            touching += any(ell - m < p < ell + len(block) for p in answer)
            rows.append((to_edit(op), op[0], answer, n_edited))
        out.append(rows)
    info = {
        "n": n,
        "patterns": len(inputs.batches),
        "ops_per_round": ops,
        "near_ops_share": inputs.near_ops / ops,
        "touching_share": touching / ops,
        "occurrences_per_op": occurrences / ops,
    }
    return out, info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import engines
    import tracing
    from workloads import WORKLOADS

    inputs = WORKLOADS[name](seed)
    batches, info = expected_batches(inputs)
    engine = engines.ENGINES[inputs.engine](inputs.letters, inputs.sigma, inputs.epsilon)
    answer = engine.answer
    patterns = [b.pattern for b in inputs.batches]
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    # Every pattern stays prepared, so that each op is answered in every
    # round. After a first pass that builds everything, the builds repeat
    # one at a time, evenly spaced through the rounds, so that their times
    # sample the whole run. Each set-up starts from a collected heap; the
    # collector stays on.
    handles = [None] * len(patterns)
    setup_ns: list[int] = []
    prepare_ns: list[int] = []

    def build(k: int, measure: bool = False) -> None:
        handles[k] = None
        if k == 0:
            gc.collect()
        if tracer is not None:
            tracer.phase = int(k > 0)
        t0 = clock()
        handles[k] = engine.prepare(patterns[k]) if k else engine.setup(patterns[0])
        dt = clock() - t0
        (prepare_ns if k else setup_ns).append(dt)
        if tracer is not None:
            tracer.phase = 2
            if measure:
                tracer.measure(handles[k], int(k > 0))
            tracer.count_groups(handles[k])

    for k in range(len(patterns)):
        build(k, measure=True)
    # Later builds replace one handle at a time, and the rounds add only
    # the benchmark's own answer times.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = OpStats()

    def query_round(sample: bool) -> int:
        times = array("q")
        spent = sum(run_round(answer, h, ops, stats, len(p), times)
                    for h, ops, p in zip(handles, batches, patterns))
        stats.rounds += 1
        stats.times.extend(times)
        if sample:
            stats.sampled.append(times)
        return spent

    overhead = 0.0
    if tracer is not None:
        # The best of three rounds traced over the best of three untraced,
        # taking turns, gives the overhead.
        untraced_ns, traced_ns = [], []
        for _ in range(3):
            tracer.uninstall(handles)
            untraced_ns.append(query_round(False))
            tracer.install(handles)
            traced_ns.append(query_round(False))
        overhead = min(traced_ns) / min(untraced_ns)
    # A fixed number of rounds and of builds, evenly spaced over the time
    # spent in rounds, whatever the speed of the program: each op's best
    # time and each build's best come from as many samples in every run.
    # The builds cycle through the patterns, the set-up first.
    span = int(seconds * 1e9)
    builds = (inputs.builds - 1) * len(patterns)
    start = clock()
    building = taken = built = 0
    while True:
        sample = taken < SAMPLED_ROUNDS and clock() - start - building >= span * taken // SAMPLED_ROUNDS
        query_round(sample)
        taken += sample
        elapsed = clock() - start - building
        if built < builds and elapsed >= span * (built + 1) // builds:
            t0 = clock()
            build(built % len(patterns))
            building += clock() - t0
            built += 1
        if taken == SAMPLED_ROUNDS and built == builds and elapsed >= span:
            break
    if tracer is not None:
        tracer.uninstall(handles)
    rounds = stats.rounds

    info["rounds"] = rounds
    info["gen2_collections"] = gc.get_stats()[2]["collections"]
    info["ops_attempted"] = stats.attempted
    if stats.first_wrong:
        info["first_failure"] = stats.first_wrong
    if tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"spans-{name}-seed{seed}.npz")
        traced_ops = (rounds - len(untraced_ns)) * info["ops_per_round"]
        metrics = tracing.layer_metrics(tracer, len(setup_ns), len(prepare_ns), traced_ops, overhead)
    else:
        metrics = end_to_end(stats, batches, setup_ns, prepare_ns, peak_rss_mb)
    result = {
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    return result, info


def end_to_end(stats: OpStats, batches, setup_ns: list[int], prepare_ns: list[int],
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run.

    The host's speed drifts by up to a half over seconds, so the share of
    slow seconds differs between runs. The p50s and the throughput
    therefore take each distinct op once, at its best time over the
    sampled rounds: the best of a fixed number of rounds spread over the
    run repeats from run to run. The p99 takes every answer of the run, as
    a caller sees them. Set-up and preparation times are medians over the
    builds spread over the run: a short preparation often includes a
    collection of the garbage collector, and the best of such builds
    repeated worse than their median.
    """
    import numpy as np

    sampled = np.array(stats.sampled, dtype=np.int64).reshape(len(stats.sampled), -1)
    best = np.where(sampled >= 0, sampled, INF).min(axis=0)
    kinds = np.array([kind for ops in batches for _, kind, _, _ in ops])
    every = np.frombuffer(stats.times, dtype=np.int64)
    every = every[every >= 0]
    done = best[best < INF]

    def p(values, q: float) -> float:
        return float(np.percentile(values[values < INF], q, method="inverted_cdf"))

    metrics = {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "pattern_setup_s": (statistics.median(prepare_ns) / 1e9, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "query_ops_per_s": (done.size / (float(done.sum()) / 1e9), "ops/s"),
        "query_p50_us": (p(best, 50) / 1e3, "us"),
        "query_p99_us": (p(every, 99) / 1e3, "us"),
    }
    for kind, label in KINDS.items():
        metrics[f"{label}_p50_us"] = (p(best[kinds == kind], 50) / 1e3, "us")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "ephemedit" / "__init__.py").is_file():
        print(f"no library source under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)

    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "info": info}, indent=1) + "\n")
    print(json.dumps({"workload": args.workload, **info}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
