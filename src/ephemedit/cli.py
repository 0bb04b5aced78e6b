r"""Command line front end.

`ephemedit run` executes an edit script against a text and pattern under
one of the three engines and prints one line of sorted occurrence
positions per operation. `ephemedit bench` builds synthetic inputs and
reports preprocessing times, per-operation latency percentiles, and a
naive rescan baseline.

Input files hold raw bytes by default (alphabet size 256). With --tokens
they hold decimal integers separated by ASCII spaces, tabs, CRs and LFs
instead. Script lines are `I <p> <S>` (insert S after position p, -1
prepends), `D <q> <p>` (delete the closed range), and `X <p> <S>`
(overwrite starting at p). In byte mode S is a byte string: `\xHH` is
the byte with hex value HH and `\\` a backslash, which lets a block hold
a space, tab or newline; every other byte but a backslash stands for
itself. In token mode S is comma-separated integers. Byte files are
taken verbatim, so write them without a trailing newline.
"""

from __future__ import annotations

import argparse
import random
import re
import statistics
import sys
import time
from pathlib import Path

from .edits import Delete, EditOp, Insert, Substitute, validate_edit
from .ephemeral_index import occurrences_after, preprocess_pattern, preprocess_text
from .pm_block_delete import BlockDeleteMatcher
from .pm_ephemeral_edits import EditMatcher
from .reference_oracle import occurrences_after_oracle
from .text_core import Text

MODES = ("index", "pm-del", "pm-edit")


class ScriptError(Exception):
    """Parse or constraint failure, tagged with the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(message)
        self.line_no = line_no


def _read_letters(path: str, tokens: bool) -> list[int]:
    data = Path(path).read_bytes()
    if not tokens:
        return list(data)
    out = []
    # Only ASCII separators: str.split() would also break at 0x85, 0xA0
    # and 0x1C-0x1F, silently reading "1\xa02" as two letters.
    for tok in re.split(rb"[ \t\r\n]+", data):
        if not tok:
            continue
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"{path}: token {tok.decode('latin-1')!r} is not an integer") from None
        if v < 0:
            raise ValueError(f"{path}: negative letter {v}")
        out.append(v)
    return out


# One letter of a byte-mode block: \xHH, an escaped backslash, or any
# other byte but a backslash.
_BYTE_LETTER = re.compile(rb"\\x([0-9A-Fa-f]{2})|\\\\|[^\\]")


def _parse_block(tok: bytes, tokens: bool, line_no: int) -> tuple[int, ...]:
    if not tokens:
        letters = []
        pos = 0
        while pos < len(tok):
            match = _BYTE_LETTER.match(tok, pos)
            if match is None:
                raise ScriptError(line_no, f"bad escape in block {tok.decode('latin-1')!r}")
            pos = match.end()
            letters.append(int(match[1], 16) if match[1] else tok[pos - 1])
        return tuple(letters)
    try:
        block = tuple(int(x) for x in tok.split(b","))
    except ValueError:
        raise ScriptError(line_no, f"bad block {tok.decode('latin-1')!r}") from None
    if any(v < 0 for v in block):
        raise ScriptError(line_no, f"negative letter in block {tok.decode('latin-1')!r}")
    return block


def _parse_script(path: str, tokens: bool) -> list[tuple[int, EditOp]]:
    """Lines end at b"\n" (a trailing b"\r" is dropped) and fields are
    separated by ASCII spaces and tabs only, so every other byte, 0x85 and
    0xA0 included, is a letter of a byte-mode block."""
    ops: list[tuple[int, EditOp]] = []
    for line_no, raw in enumerate(Path(path).read_bytes().split(b"\n"), 1):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        parts = [f for f in raw.replace(b"\t", b" ").split(b" ") if f]
        if not parts:
            continue
        shown = raw.decode("latin-1")
        kind = parts[0]
        if kind not in (b"I", b"D", b"X") or len(parts) != 3:
            raise ScriptError(line_no, f"cannot parse {shown!r}")
        if kind == b"D":
            try:
                q, p = int(parts[1]), int(parts[2])
            except ValueError:
                raise ScriptError(line_no, f"bad positions in {shown!r}") from None
            ops.append((line_no, Delete(q, p)))
            continue
        try:
            p = int(parts[1])
        except ValueError:
            raise ScriptError(line_no, f"bad position in {shown!r}") from None
        block = _parse_block(parts[2], tokens, line_no)
        ops.append((line_no, Insert(p, block) if kind == b"I" else Substitute(p, block)))
    return ops


def _check_op(op: EditOp, mode: str, n: int, sigma: int, epsilon: int, line_no: int) -> None:
    if mode == "pm-del" and not isinstance(op, Delete):
        raise ScriptError(line_no, "pm-del accepts only D operations")
    if mode == "pm-edit" and not isinstance(op, Delete) and len(op.block) != 1:
        raise ScriptError(line_no, "pm-edit accepts single-letter blocks only")
    if mode == "index" and not isinstance(op, Delete) and len(op.block) > epsilon:
        raise ScriptError(
            line_no, f"block of length {len(op.block)} exceeds epsilon={epsilon}"
        )
    try:
        validate_edit(op, n, sigma)
    except ValueError as exc:
        raise ScriptError(line_no, str(exc)) from None


def _cmd_run(args) -> int:
    try:
        text = _read_letters(args.text, args.tokens)
        pattern = _read_letters(args.pattern, args.tokens)
        script = _parse_script(args.script, args.tokens)
    except ScriptError as exc:
        print(f"{args.script}:{exc.line_no}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if not text:
        print(f"{args.text}: text is empty", file=sys.stderr)
        return 2
    if not pattern:
        print(f"{args.pattern}: pattern is empty", file=sys.stderr)
        return 2
    if args.tokens:
        sigma = max(
            max(text),
            max(pattern),
            max((v for _, op in script for v in getattr(op, "block", ())), default=0),
        ) + 1
    else:
        sigma = 256

    n = len(text)
    try:
        for line_no, op in script:
            _check_op(op, args.mode, n, sigma, args.epsilon, line_no)
    except ScriptError as exc:
        print(f"{args.script}:{exc.line_no}: {exc}", file=sys.stderr)
        return 2

    try:
        tx = Text(text, sigma)
        if args.mode == "index":
            eti = preprocess_text(tx)
            ph = preprocess_pattern(eti, pattern, args.epsilon)
            answer = lambda op: occurrences_after(ph, op)
        elif args.mode == "pm-del":
            bd = BlockDeleteMatcher(tx, pattern)
            answer = lambda op: bd.occurrences_after_delete(op.first, op.last)
        else:
            em = EditMatcher(tx, pattern)
            answer = em.occurrences_after_edit
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    for line_no, op in script:
        positions = answer(op)
        print(" ".join(map(str, positions)) if positions else "-")
        if args.verify:
            want = occurrences_after_oracle(text, pattern, op)
            if positions != want:
                print(
                    f"verify mismatch at {args.script}:{line_no}:\n"
                    f"  engine {positions}\n  oracle {want}",
                    file=sys.stderr,
                )
                return 1
    return 0


def _percentiles(samples: list[float]) -> str:
    qs = statistics.quantiles(samples, n=100, method="inclusive")
    return (
        f"p50={qs[49] * 1e6:.1f}us p90={qs[89] * 1e6:.1f}us "
        f"p99={qs[98] * 1e6:.1f}us max={max(samples) * 1e6:.1f}us"
    )


def _random_ops(rng: random.Random, mode: str, n: int, sigma: int, epsilon: int, count: int):
    ops = []
    for _ in range(count):
        if mode == "pm-del":
            q = rng.randrange(n)
            ops.append(Delete(q, min(n - 1, q + rng.randint(0, n // 4))))
            continue
        kind = rng.randrange(3)
        blen = 1 if mode == "pm-edit" else rng.randint(1, epsilon)
        if kind == 0:
            ops.append(Insert(rng.randint(-1, n - 1), tuple(rng.randrange(sigma) for _ in range(blen))))
        elif kind == 1:
            q = rng.randrange(n)
            ops.append(Delete(q, min(n - 1, q + rng.randint(0, 16))))
        else:
            at = rng.randint(0, n - blen)
            ops.append(Substitute(at, tuple(rng.randrange(sigma) for _ in range(blen))))
    return ops


def _cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    n, m, sigma = args.n, args.m, args.sigma
    if n < 1 or m < 1 or sigma < 1:
        print("n, m, and sigma must be positive", file=sys.stderr)
        return 2
    if m > n:
        print("bench samples the pattern from the text; need m <= n", file=sys.stderr)
        return 2
    if args.ops < 0 or args.ops == 1:
        print("--ops must be 0 (preprocessing only) or at least 2", file=sys.stderr)
        return 2
    if args.baseline_samples < 1:
        print("--baseline-samples must be at least 1", file=sys.stderr)
        return 2
    if args.mode == "index" and args.epsilon < 1:
        print("index mode needs --epsilon of at least 1", file=sys.stderr)
        return 2
    text = [rng.randrange(sigma) for _ in range(n)]
    j = rng.randint(0, n - m)
    pattern = text[j : j + m]
    print(
        f"bench mode={args.mode} n={n} m={m} sigma={sigma} "
        f"epsilon={args.epsilon} ops={args.ops} seed={args.seed}"
    )

    tx = Text(text, sigma)
    t0 = time.perf_counter()
    if args.mode == "index":
        eti = preprocess_text(tx)
        t1 = time.perf_counter()
        ph = preprocess_pattern(eti, pattern, args.epsilon)
        print(f"preprocess text: {t1 - t0:.3f} s")
        print(f"preprocess pattern: {time.perf_counter() - t1:.3f} s")
        answer = lambda op: occurrences_after(ph, op)
    elif args.mode == "pm-del":
        bd = BlockDeleteMatcher(tx, pattern)
        print(f"preprocess text+pattern: {time.perf_counter() - t0:.3f} s")
        answer = lambda op: bd.occurrences_after_delete(op.first, op.last)
    else:
        em = EditMatcher(tx, pattern)
        print(f"preprocess text+pattern: {time.perf_counter() - t0:.3f} s")
        answer = em.occurrences_after_edit
    if args.ops == 0:
        return 0

    ops = _random_ops(rng, args.mode, n, sigma, args.epsilon, args.ops)
    latencies = []
    for op in ops:
        s = time.perf_counter()
        answer(op)
        latencies.append(time.perf_counter() - s)
    print(f"per-op latency: {_percentiles(latencies)}")

    baseline_ops = ops[: min(len(ops), args.baseline_samples)]
    base = []
    for op in baseline_ops:
        s = time.perf_counter()
        occurrences_after_oracle(text, pattern, op)
        base.append(time.perf_counter() - s)
    med = statistics.median(base)
    print(
        f"naive rescan baseline ({len(base)} sampled ops): median={med * 1e3:.2f}ms"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ephemedit",
        description="pattern occurrences in a text under one provisional edit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="answer an edit script, one line per op")
    run_p.add_argument("text", help="text file")
    run_p.add_argument("pattern", help="pattern file")
    run_p.add_argument("script", help="edit script file")
    run_p.add_argument("--mode", choices=MODES, default="index")
    run_p.add_argument("--tokens", action="store_true",
                       help="files hold whitespace-separated integers, not bytes")
    run_p.add_argument("--epsilon", type=int, default=4,
                       help="largest block length prepared for (index mode)")
    run_p.add_argument("--verify", action="store_true",
                       help="cross-check every line against the oracle")
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser("bench", help="time synthetic workloads")
    bench_p.add_argument("-n", type=int, default=1 << 16, help="text length")
    bench_p.add_argument("-m", type=int, default=64, help="pattern length")
    bench_p.add_argument("--sigma", type=int, default=256)
    bench_p.add_argument("--ops", type=int, default=1000)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--mode", choices=MODES, default="index")
    bench_p.add_argument("--epsilon", type=int, default=4)
    bench_p.add_argument("--baseline-samples", type=int, default=50)
    bench_p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
