"""Tests of the benchmark's own code: the answer check, the op loop, the
workload generators and the tracer. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import random
from array import array
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import engines  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from check import Expected, as_str, edited_length, rescan  # noqa: E402


def naive(letters: list[int], pattern: list[int], op) -> list[int]:
    """Apply the op to a list and compare the pattern at every position."""
    kind, x, y = op
    if kind == "I":
        edited = letters[: x + 1] + list(y) + letters[x + 1 :]
    elif kind == "D":
        edited = letters[:x] + letters[y + 1 :]
    else:
        edited = letters[:x] + list(y) + letters[x + len(y) :]
    m = len(pattern)
    return [i for i in range(len(edited) - m + 1) if edited[i : i + m] == pattern]


def random_ops(rng: random.Random, n: int, sigma: int, eps: int):
    """Random ops, plus every kind at both ends of the text."""
    def block(k):
        return tuple(rng.randrange(sigma) for _ in range(k))

    k = rng.randint(1, min(eps, n))
    ops = [
        ("I", -1, block(k)), ("I", n - 1, block(k)),
        ("D", 0, k - 1), ("D", n - k, n - 1), ("D", 0, n - 1),
        ("S", 0, block(k)), ("S", n - k, block(k)),
    ]
    for _ in range(20):
        k = rng.randint(1, min(eps, n))
        kind = rng.choice("IDS")
        if kind == "I":
            ops.append(("I", rng.randrange(-1, n), block(k)))
        elif kind == "D":
            first = rng.randrange(n - k + 1)
            ops.append(("D", first, first + k - 1))
        else:
            ops.append(("S", rng.randrange(n - k + 1), block(k)))
    return ops


def small_case(rng: random.Random):
    sigma = rng.choice([1, 2, 3])
    n = rng.randint(1, 40)
    if rng.random() < 0.5:
        word = [rng.randrange(sigma) for _ in range(rng.randint(1, 4))]
        letters = [word[i % len(word)] for i in range(n)]
    else:
        letters = [rng.randrange(sigma) for _ in range(n)]
    start = rng.randrange(n)
    pattern = letters[start : start + rng.randint(1, 6)]
    if rng.random() < 0.3:
        pattern = [rng.randrange(sigma) for _ in range(rng.randint(1, 6))]
    return letters, pattern, sigma


def test_check_agrees_with_naive_rescan():
    rng = random.Random(7)
    for _ in range(300):
        letters, pattern, sigma = small_case(rng)
        exp = Expected(as_str(letters), as_str(pattern))
        for op in random_ops(rng, len(letters), sigma, 5):
            want = naive(letters, pattern, op)
            assert exp.answer(op) == want, (letters, pattern, op)
            assert rescan(exp.text, exp.pattern, op) == want
            assert edited_length(op, len(letters)) >= 0


def prepared_ops(letters, pattern, ops):
    exp = Expected(as_str(letters), as_str(pattern))
    n = len(letters)
    return [(engines.to_edit(op), op[0], exp.answer(op), edited_length(op, n)) for op in ops]


@pytest.mark.parametrize("engine_name", ["index", "pm"])
def test_library_agrees_with_check(engine_name):
    rng = random.Random(11)
    for _ in range(40):
        letters, pattern, sigma = small_case(rng)
        eps = 4 if engine_name == "index" else 1
        ops = random_ops(rng, len(letters), sigma, eps)
        engine = engines.ENGINES[engine_name](letters, sigma, eps)
        handle = engine.setup(pattern)
        rows = prepared_ops(letters, pattern, ops)
        stats = run.OpStats()
        run.run_round(engine.answer, handle, rows, stats, len(pattern), array("q"))
        assert stats.attempted == len(ops)
        assert stats.failed == 0, stats.first_wrong


@pytest.mark.parametrize("perturb", ["drop", "shift"])
def test_perturbed_answer_is_a_failed_op(perturb):
    letters = [0, 1] * 20
    pattern = [0, 1, 0]
    ops = [("I", 5, (1,)), ("D", 10, 11), ("S", 20, (0, 1))]
    engine = engines.IndexEngine(letters, 2, 4)
    handle = engine.setup(pattern)

    def wrong(h, edit):
        got = engine.answer(h, edit)
        return got[1:] if perturb == "drop" else [got[0] + 1] + got[1:]

    rows = prepared_ops(letters, pattern, ops)
    times = array("q")
    stats = run.OpStats()
    run.run_round(wrong, handle, rows, stats, len(pattern), times)
    assert (stats.attempted, stats.failed, stats.wrong) == (3, 3, 3)
    assert list(times) == [-1, -1, -1]
    times = array("q")
    stats = run.OpStats()
    run.run_round(engine.answer, handle, rows, stats, len(pattern), times)
    assert (stats.attempted, stats.failed) == (3, 0)
    assert all(ns > 0 for ns in times)


def test_raising_answer_is_a_failed_op():
    def boom(h, edit):
        raise ValueError("no")

    rows = prepared_ops([0, 1, 0], [0], [("D", 0, 0)])
    stats = run.OpStats()
    run.run_round(boom, None, rows, stats, 1, array("q"))
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 1, 0)


SMALL = {
    "index-pangenome": dict(ref_len=600, reads=3, ops_per_read=12),
    "index-long-blocks": dict(n=600, m=64, eps=8, patterns=2, ops_per_pattern=12),
    "pm-periodic": dict(n=900, patterns=2, ops_per_pattern=16),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workloads_run_clean(name):
    inputs = workloads.WORKLOADS[name](3, **SMALL[name])
    again = workloads.WORKLOADS[name](3, **SMALL[name])
    assert inputs == again
    assert inputs != workloads.WORKLOADS[name](4, **SMALL[name])
    batches, info = run.expected_batches(inputs)
    engine = engines.ENGINES[inputs.engine](inputs.letters, inputs.sigma, inputs.epsilon)
    stats = run.OpStats()
    for batch, ops in zip(inputs.batches, batches):
        handle = engine.setup(batch.pattern)
        run.run_round(engine.answer, handle, ops, stats, len(batch.pattern), array("q"))
    assert stats.failed == 0, stats.first_wrong
    assert stats.attempted == info["ops_per_round"]
    # Some answers must meet the edit, or the seam classes go untested.
    assert info["touching_share"] > 0


def test_tracer_spans_layers_and_restores_the_library():
    from ephemedit import ephemeral_index, text_core

    originals = (text_core.TextIndex.__init__, ephemeral_index.matching_statistics)
    inputs = workloads.index_long_blocks(5, **SMALL["index-long-blocks"])
    batches, _ = run.expected_batches(inputs)
    engine = engines.IndexEngine(inputs.letters, inputs.sigma, inputs.epsilon)
    tracer = tracing.Tracer()
    tracer.install()
    handle = engine.setup(inputs.batches[0].pattern)
    tracer.count_groups(handle)
    tracer.phase = 2
    stats = run.OpStats()
    run.run_round(engine.answer, handle, batches[0], stats, len(inputs.batches[0].pattern), array("q"))
    tracer.uninstall([handle])
    tracer.measure(handle, 0)
    assert (text_core.TextIndex.__init__, ephemeral_index.matching_statistics) == originals
    assert type(handle.groups) is dict
    assert stats.failed == 0

    metrics = tracing.layer_metrics(tracer, 1, 0, len(batches[0]), 1.0)
    assert set(metrics) >= {"text_core.suffix_array_s", "suffix_tree.links_s", "predecessor_sets.cover_us"}
    assert metrics["text_core.suffix_array_s"]["value"] > 0
    assert metrics["text_core.build_mb"]["value"] > 0
    assert metrics["ephemeral_index.query_self_us"]["value"] > 0
    arrs = tracer.arrays()
    assert (arrs["self_ns"] >= 0).all()
    assert tracer.group_counts[0] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pm-periodic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
