"""Acceptance gate: nine checks covering the worked examples, oracle
equivalence at scale, exhaustive junction queries, the sparse automaton,
and (opt-in) performance trends.

Run with `pytest tests/test_acceptance.py -s` to see one verdict line per
criterion. Criterion 9 runs only when EPHEMEDIT_BENCH=1 because it builds
megabyte-scale inputs.
"""

import itertools
import os
import random
import statistics
import time

import pytest

from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.ephemeral_index import (
    occurrences_after,
    preprocess_pattern,
    preprocess_text,
)
from ephemedit.pattern_trees import build_context_groups, build_tree_p, decompose_disjoint
from ephemedit.pm_block_delete import BlockDeleteMatcher
from ephemedit.pm_ephemeral_edits import EditMatcher, Sma
from ephemedit.prefix_suffix import ArithmeticProgression, PrefSufIndex
from ephemedit.reference_oracle import (
    apply_edit,
    naive_search,
    occurrences_after_oracle,
    oracle_prefsuf,
)
from ephemedit.suffix_tree import build_suffix_tree, matching_statistics
from ephemedit.text_core import SaInterval, Text, suffix_array

EXAMPLE = list(b"ananabannabanaana")
PATTERN = list(b"banana")
EDIT_TEXT = list(b"bababbbababb")
EDIT_PAT = list(b"ababab")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_suffix_array_and_ban_node():
    t0 = time.perf_counter()
    sa = suffix_array(EXAMPLE)
    sa_ok = list(sa) == [16, 13, 9, 4, 14, 11, 2, 0, 6, 10, 5, 15, 12, 8, 3, 1, 7]
    tree = build_suffix_tree(EXAMPLE)
    v = tree.child(0, ord("b"))
    ban_ok = bytes(tree.node_string(v)) == b"ban" and tree.interval(v) == SaInterval(9, 10)
    elapsed = time.perf_counter() - t0
    report(1, sa_ok and ban_ok and elapsed < 1.0,
           f"suffix array and node 'ban'=[9,10] in {elapsed:.3f}s")


def test_criterion_2_decomposition_and_groups():
    t0 = time.perf_counter()
    ms = matching_statistics(build_suffix_tree(EXAMPLE), PATTERN)
    entries = {(e.start, e.end, e.suffix_start)
               for e in decompose_disjoint(build_tree_p(PATTERN, ms.suf_interval))}
    tree_ok = entries == {(7, 7, 1), (4, 6, 3), (0, 3, 5), (8, 8, 5), (15, 15, 2), (11, 14, 4)}

    groups = build_context_groups(PATTERN, ms, max_len=1)
    flat = {bytes(k).decode(): {(e.start, e.end, e.suffix_start) for e in v}
            for k, v in groups.items()}
    len1_ok = flat == {
        "a": {(11, 14, 4), (15, 15, 2)},
        "b": {(7, 7, 1)},
        "n": {(0, 3, 5), (4, 7, 3), (8, 8, 5)},
    }

    na = build_context_groups(PATTERN, ms, max_len=2)[(ord("n"), ord("a"))]
    # Within its group the "na" entry stays whole, so containment is the check.
    na_ok = any(e.suffix_start == 4 and e.start <= 11 and 14 <= e.end for e in na)
    elapsed = time.perf_counter() - t0
    report(2, tree_ok and len1_ok and na_ok and elapsed < 1.0,
           f"disjoint decomposition and context groups in {elapsed:.3f}s")


def test_criterion_3_worked_block_edits():
    ph = preprocess_pattern(preprocess_text(Text(EXAMPLE, 256)), PATTERN, epsilon=4)
    results = (
        occurrences_after(ph, Delete(13, 13)),
        occurrences_after(ph, Insert(7, b"a")),
        occurrences_after(ph, Insert(-1, b"b")),
        occurrences_after(ph, Insert(11, b"na")),
    )
    ok = results == ([10], [5], [0], [10])
    report(3, ok, f"worked block edits gave {results}")


def test_criterion_4_worked_block_delete():
    bd = BlockDeleteMatcher(Text(EDIT_TEXT, 256), EDIT_PAT)
    got = bd.occurrences_after_delete(5, 6)
    report(4, got == [1, 3] and len(got) == 2, f"Delete(5,6) gave {got}")


def test_criterion_5_worked_single_letter_insert():
    em = EditMatcher(Text(EDIT_TEXT, 256), EDIT_PAT)
    arms = em.junction_arms(Insert(4, b"a"))
    got = em.occurrences_after_edit(Insert(4, b"a"))
    report(5, got == [1] and arms == (4, 2),
           f"Insert(4,'a') gave {got} with junction arms {arms}")


def _random_block_op(rng, n, sigma, epsilon):
    kind = rng.randrange(3)
    if kind == 0:
        blen = rng.randint(1, epsilon)
        return Insert(rng.randint(-1, n - 1), tuple(rng.randrange(sigma) for _ in range(blen)))
    if kind == 1:
        first = rng.randrange(n)
        return Delete(first, rng.randint(first, n - 1))
    blen = rng.randint(1, min(epsilon, n))
    at = rng.randint(0, n - blen)
    return Substitute(at, tuple(rng.randrange(sigma) for _ in range(blen)))


def _random_single_op(rng, n, sigma):
    kind = rng.randrange(3)
    if kind == 0:
        return Insert(rng.randint(-1, n - 1), (rng.randrange(sigma),))
    if kind == 1:
        q = rng.randrange(n)
        return Delete(q, q)
    return Substitute(rng.randrange(n), (rng.randrange(sigma),))


def _random_pair(rng):
    sigma = rng.choice([2, 4, 26, 1000])
    n = rng.randint(3 if sigma == 1000 else 1, 256)
    m = rng.randint(1, 32)
    t = [rng.randrange(sigma) for _ in range(n)]
    if rng.random() < 0.5 and m <= n:
        j = rng.randint(0, n - m)
        p = t[j : j + m]
    else:
        p = [rng.randrange(sigma) for _ in range(m)]
    return t, p, sigma


def test_criterion_6_differential_suite():
    rng = random.Random(2024)
    cases_per_engine = 100_000
    pairs = 250
    per_pair = cases_per_engine // pairs
    t0 = time.perf_counter()
    counts = [0, 0, 0]
    for _ in range(pairs):
        t, p, sigma = _random_pair(rng)
        n = len(t)
        tx = Text(t, sigma)
        ph = preprocess_pattern(preprocess_text(tx), p, epsilon=4)
        bd = BlockDeleteMatcher(tx, p)
        em = EditMatcher(tx, p)
        for _ in range(per_pair):
            op = _random_block_op(rng, n, sigma, 4)
            want = occurrences_after_oracle(t, p, op)
            assert occurrences_after(ph, op) == want, (t, p, op)
            counts[0] += 1

            first = rng.randrange(n)
            last = rng.randint(first, n - 1)
            want = occurrences_after_oracle(t, p, Delete(first, last))
            assert bd.occurrences_after_delete(first, last) == want, (t, p, first, last)
            counts[1] += 1

            op = _random_single_op(rng, n, sigma)
            assert em.occurrences_after_edit(op) == occurrences_after_oracle(t, p, op), (t, p, op)
            counts[2] += 1
    elapsed = time.perf_counter() - t0
    report(6, all(c >= 100_000 for c in counts),
           f"{counts} oracle-equal cases across the three engines in {elapsed:.1f}s "
           f"(target 120s)")


def test_criterion_7_junction_queries_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 13):
        for bits in itertools.product((0, 1), repeat=m):
            p = list(bits)
            psi = PrefSufIndex(p)
            for a in range(m + 1):
                for b in range(m + 1):
                    got = psi.query(a, b)
                    assert isinstance(got, ArithmeticProgression)
                    assert got.to_list() == oracle_prefsuf(p, a, b), (p, a, b)
                    checked += 1
    elapsed = time.perf_counter() - t0
    report(7, elapsed < 60.0,
           f"{checked} junction queries over all binary patterns m<=12 in {elapsed:.1f}s")


def test_criterion_8_sparse_automaton():
    rng = random.Random(88)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(120):
        m = rng.randint(1, 64)
        sigma = rng.randint(2, 8)
        w = [rng.randrange(sigma) for _ in range(m)]
        sma = Sma(w)
        assert sma.stored <= 2 * m, (w, sma.stored)
        for k in range(m + 1):
            for c in range(sigma):
                s = w[:k] + [c]
                want = 0
                for tt in range(min(len(s), m), 0, -1):
                    if s[len(s) - tt :] == w[:tt]:
                        want = tt
                        break
                assert sma.step(k, c) == want, (w, k, c)
                checked += 1
    elapsed = time.perf_counter() - t0
    report(8, True, f"{checked} automaton transitions match brute force in {elapsed:.1f}s")


def test_criterion_9_performance_trends():
    if os.environ.get("EPHEMEDIT_BENCH") != "1":
        print("ACCEPTANCE 9 SKIP: set EPHEMEDIT_BENCH=1 to run the n=2^20 "
              "latency trend report (several minutes)")
        pytest.skip("EPHEMEDIT_BENCH not set")

    rng = random.Random(0)
    n = 1 << 20
    ops_count = 10_000
    text = [rng.randrange(256) for _ in range(n)]
    tx = Text(text, 256)
    eti = preprocess_text(tx)

    def med_latency(answer, ops):
        lat = []
        for op in ops:
            s = time.perf_counter()
            answer(op)
            lat.append(time.perf_counter() - s)
        return statistics.median(lat)

    block_ops = [_random_block_op(rng, n, 256, 4) for _ in range(ops_count)]
    medians = {}
    for m in (16, 256, 4096):
        j = rng.randint(0, n - m)
        ph = preprocess_pattern(eti, text[j : j + m], epsilon=4)
        medians[m] = med_latency(lambda op: occurrences_after(ph, op), block_ops)
    spread = max(medians.values()) / min(medians.values())
    verdict = "PASS" if spread < 2.0 else "WARN"
    print(f"ACCEPTANCE 9a {verdict}: general-engine median latency by m: "
          + ", ".join(f"m={m}: {v * 1e6:.1f}us" for m, v in medians.items())
          + f" (spread {spread:.2f}x, want <2x)")

    single_ops = [_random_single_op(rng, 1 << 18, 256) for _ in range(ops_count)]
    by_n = {}
    for nn in (1 << 18, 1 << 20):
        pat = text[:64]
        em = EditMatcher(Text(text[:nn], 256), pat)
        bd = BlockDeleteMatcher(Text(text[:nn], 256), pat)
        dels = [Delete(op.first, op.first) for op in single_ops if isinstance(op, Delete)]
        by_n[nn] = (
            med_latency(em.occurrences_after_edit, single_ops),
            med_latency(lambda d: bd.occurrences_after_delete(d.first, d.last), dels),
        )
    grow = max(by_n[1 << 20][0] / by_n[1 << 18][0], by_n[1 << 20][1] / by_n[1 << 18][1])
    verdict = "PASS" if grow < 2.0 else "WARN"
    print(f"ACCEPTANCE 9b {verdict}: specialized matchers at n=2^18 vs 2^20: "
          + ", ".join(f"n=2^{nn.bit_length() - 1}: edit {a * 1e6:.1f}us del {d * 1e6:.1f}us"
                      for nn, (a, d) in by_n.items())
          + f" (growth {grow:.2f}x, want ~1x)")

    base = {}
    for nn in (1 << 18, 1 << 20):
        tt = text[:nn]
        sample = block_ops[:30]
        lat = []
        for op in sample:
            s = time.perf_counter()
            naive_search(apply_edit(tt, op), text[:256])
            lat.append(time.perf_counter() - s)
        base[nn] = statistics.median(lat)
    ratio = base[1 << 20] / base[1 << 18]
    verdict = "PASS" if ratio > 2.0 else "WARN"
    print(f"ACCEPTANCE 9c {verdict}: naive rescan median {base[1 << 18] * 1e3:.1f}ms at n=2^18 "
          f"vs {base[1 << 20] * 1e3:.1f}ms at n=2^20 (x{ratio:.1f}, ~linear expected)")
