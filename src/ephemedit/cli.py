r"""Command line front end.

`ephemedit run` executes an edit script against a text and pattern under
one of the three engines and prints one line of sorted occurrence
positions per operation. `--mode index` prepares the pattern for the
script's longest block, `pm-del` only deletes, and `pm-edit` any line
with blocks of any length. `ephemedit bench ARGS...` runs the benchmark,
`perfbench/run.py ARGS...`, in a separate process with this interpreter and
returns its exit code; it needs a checkout of the repository (exit 2
without one) and takes no options of its own.

Input files hold raw bytes by default (alphabet size 256). With --tokens
they hold integers in ASCII digits separated by ASCII spaces, tabs, CRs
and LFs instead. Script lines are `I <p> <S>` (insert S after position
p, -1 prepends), `D <q> <p>` (delete the closed range), and `X <p> <S>`
(overwrite starting at p). In byte mode S is a byte string: `\xHH` is
the byte with hex value HH and `\\` a backslash, which lets a block hold
a space, tab or newline; every other byte but a backslash stands for
itself. In token mode S is comma-separated integers. Byte files are
taken verbatim, so write them without a trailing newline.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

from .edits import Delete, EditOp, Insert, Substitute, validate_edit
from .ephemeral_index import occurrences_after, preprocess_pattern, preprocess_text
from .pm_block_delete import BlockDeleteMatcher
from .pm_ephemeral_edits import EditMatcher
from .reference_oracle import occurrences_after_oracle
from .text_core import Text

MODES = ("index", "pm-del", "pm-edit")
# The benchmark script of the checkout this package was loaded from; absent
# when the package is installed without its repository.
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench" / "run.py"


class ScriptError(Exception):
    """Parse or constraint failure, tagged with the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(message)
        self.line_no = line_no


def _decimal(tok: bytes) -> int:
    """ASCII digits after an optional "-": int() also takes b"1_0" and b"+3"."""
    if not (tok[1:] if tok[:1] == b"-" else tok).isdigit():
        raise ValueError(tok)
    return int(tok)


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
            v = _decimal(tok)
        except ValueError:
            raise ValueError(f"{path}: token {tok.decode('latin-1')!r} is not an integer") from None
        if tok[:1] == b"-":
            raise ValueError(f"{path}: negative letter {tok.decode()}")
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
    fields = tok.split(b",")
    try:
        block = tuple(map(_decimal, fields))
    except ValueError:
        raise ScriptError(line_no, f"bad block {tok.decode('latin-1')!r}") from None
    if any(f[:1] == b"-" for f in fields):
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
                q, p = _decimal(parts[1]), _decimal(parts[2])
            except ValueError:
                raise ScriptError(line_no, f"bad positions in {shown!r}") from None
            ops.append((line_no, Delete(q, p)))
            continue
        try:
            p = _decimal(parts[1])
        except ValueError:
            raise ScriptError(line_no, f"bad position in {shown!r}") from None
        block = _parse_block(parts[2], tokens, line_no)
        ops.append((line_no, Insert(p, block) if kind == b"I" else Substitute(p, block)))
    return ops


def _check_op(op: EditOp, mode: str, n: int, sigma: int, line_no: int) -> int:
    """The op's block length, once the op is checked."""
    if mode == "pm-del" and not isinstance(op, Delete):
        raise ScriptError(line_no, "pm-del accepts only D operations")
    try:
        return len(validate_edit(op, n, sigma)[2])
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
        epsilon = max((_check_op(op, args.mode, n, sigma, line_no) for line_no, op in script),
                      default=0)
    except ScriptError as exc:
        print(f"{args.script}:{exc.line_no}: {exc}", file=sys.stderr)
        return 2

    try:
        tx = Text(text, sigma)
        if args.mode == "index":
            eti = preprocess_text(tx)
            ph = preprocess_pattern(eti, pattern, epsilon)
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


def _cmd_bench(argv: list[str]) -> int:
    if not PERFBENCH.is_file():
        print(f"no benchmark at {PERFBENCH}; ephemedit bench runs from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    return subprocess.run([sys.executable, str(PERFBENCH), *argv], check=False).returncode


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
    run_p.add_argument("--verify", action="store_true",
                       help="cross-check every line against the oracle")

    # No options of its own: every argument, --help included, goes to
    # perfbench/run.py.
    sub.add_parser("bench", add_help=False,
                   help="run the benchmark workloads (perfbench/run.py)")

    args, rest = parser.parse_known_args(argv)
    if args.command == "bench":
        return _cmd_bench(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
