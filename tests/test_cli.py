"""End-to-end command line behaviour."""

import subprocess
import sys
from pathlib import Path

import pytest

from ephemedit import cli
from ephemedit.cli import _parse_script, main
from ephemedit.edits import Insert, Substitute
from ephemedit.reference_oracle import occurrences_after_oracle

TEXT = b"ananabannabanaana"
PATTERN = b"banana"
SCRIPT = b"D 13 13\nI -1 b\nI 7 a\nI 11 na\nX 0 b\n"


@pytest.fixture
def files(tmp_path):
    t = tmp_path / "text.bin"
    p = tmp_path / "pattern.bin"
    s = tmp_path / "script.txt"
    t.write_bytes(TEXT)
    p.write_bytes(PATTERN)
    s.write_bytes(SCRIPT)
    return t, p, s


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_index_worked_script(files, capsys):
    t, p, s = files
    code, out, err = run_cli(capsys, "run", t, p, s, "--mode", "index", "--verify")
    assert code == 0
    assert out.splitlines() == ["10", "0", "5", "10", "-"]
    assert err == ""


def test_run_pm_del(files, tmp_path, capsys):
    t, p, _ = files
    s = tmp_path / "dels.txt"
    s.write_bytes(b"D 13 13\nD 0 16\n")
    code, out, _ = run_cli(capsys, "run", t, p, s, "--mode", "pm-del", "--verify")
    assert code == 0
    assert out.splitlines() == ["10", "-"]


def test_run_pm_edit(files, tmp_path, capsys):
    t, p, _ = files
    s = tmp_path / "edits.txt"
    s.write_bytes(b"D 13 13\nI -1 b\nX 0 b\n")
    code, out, _ = run_cli(capsys, "run", t, p, s, "--mode", "pm-edit", "--verify")
    assert code == 0
    assert out.splitlines() == ["10", "0", "-"]


def test_run_pm_edit_block_delete(files, tmp_path, capsys):
    t, p, _ = files
    s = tmp_path / "dels.txt"
    s.write_bytes(b"D 2 5\nD 8 10\n")
    code, out, err = run_cli(capsys, "run", t, p, s, "--mode", "pm-edit", "--verify")
    assert code == 0, err
    assert out.splitlines() == ["-", "5"]


def test_byte_and_token_modes_agree(files, tmp_path, capsys):
    t, p, s = files
    tt = tmp_path / "text.tok"
    pt = tmp_path / "pattern.tok"
    st = tmp_path / "script.tok"
    tt.write_text(" ".join(str(b) for b in TEXT))
    pt.write_text(" ".join(str(b) for b in PATTERN))
    st.write_text("D 13 13\nI -1 98\nI 7 97\nI 11 110,97\nX 0 98\n")
    _, byte_out, _ = run_cli(capsys, "run", t, p, s)
    code, tok_out, _ = run_cli(capsys, "run", tt, pt, st, "--tokens", "--verify")
    assert code == 0
    assert tok_out == byte_out


def test_empty_script(files, tmp_path, capsys):
    t, p, _ = files
    s = tmp_path / "empty.txt"
    s.write_bytes(b"")
    code, out, err = run_cli(capsys, "run", t, p, s, "--verify")
    assert (code, out, err) == (0, "", "")


def test_parse_error_reports_line(files, tmp_path, capsys):
    t, p, _ = files
    s = tmp_path / "bad.txt"
    s.write_bytes(b"D 13 13\nZ 1 2\n")
    code, out, err = run_cli(capsys, "run", t, p, s)
    assert code == 2
    assert out == ""
    assert "bad.txt:2" in err


def test_byte_block_keeps_non_ascii_space(tmp_path, capsys):
    # 0xA0 is whitespace to str.split but a letter of the inserted block.
    t = tmp_path / "t.bin"
    p = tmp_path / "p.bin"
    s = tmp_path / "s.txt"
    t.write_bytes(b"aaaa")
    p.write_bytes(b"a")
    s.write_bytes(b"I 1 \xa0a\r\n")
    assert _parse_script(str(s), tokens=False) == [(1, Insert(1, (0xA0, 0x61)))]
    code, out, err = run_cli(capsys, "run", t, p, s, "--mode", "index", "--verify")
    assert (code, out, err) == (0, "0 1 3 4 5\n", "")


def test_byte_block_escapes_hold_space_and_backslash(tmp_path, capsys):
    t = tmp_path / "t.bin"
    p = tmp_path / "p.bin"
    s = tmp_path / "s.txt"
    t.write_bytes(b"xaby")
    p.write_bytes(b"a b")
    s.write_bytes(b"I 1 a\\x20b\nX 0 \\\\\\x09\\x0A\n")
    assert _parse_script(str(s), tokens=False) == [
        (1, Insert(1, (0x61, 0x20, 0x62))),
        (2, Substitute(0, (0x5C, 0x09, 0x0A))),
    ]
    s.write_bytes(b"I 1 a\\x20b\n")
    code, out, err = run_cli(capsys, "run", t, p, s, "--mode", "index", "--verify")
    assert (code, out, err) == (0, "2\n", "")


@pytest.mark.parametrize("block", [b"a\\b", b"\\x2", b"\\xg0", b"\\x1z", b"a\\"])
def test_byte_block_rejects_bad_escapes(files, tmp_path, capsys, block):
    t, p, _ = files
    s = tmp_path / "esc.txt"
    s.write_bytes(b"I 0 a\nI 0 " + block + b"\n")
    code, out, err = run_cli(capsys, "run", t, p, s)
    assert (code, out) == (2, "")
    assert "esc.txt:2:" in err and "bad escape" in err


def test_next_line_byte_does_not_shift_line_numbers(files, tmp_path, capsys):
    # 0x85 ends a line for str.splitlines; here it is a letter of the block.
    t, p, _ = files
    s = tmp_path / "nel.txt"
    s.write_bytes(b"I 0 a\x85\nD 0 99\n")
    assert _parse_script(str(s), tokens=False)[0] == (1, Insert(0, (0x61, 0x85)))
    code, _, err = run_cli(capsys, "run", t, p, s)
    assert code == 2
    assert "nel.txt:2:" in err


def test_token_file_splits_on_ascii_space_only(tmp_path, capsys):
    # 0xA0 is whitespace to str.split; in a token file it is no separator,
    # so "1\xa02" is one bad token, not the letters 1 and 2.
    t = tmp_path / "t.tok"
    p = tmp_path / "p.tok"
    s = tmp_path / "s.tok"
    t.write_bytes(b"1\xa02 1")
    p.write_bytes(b"1\n")
    s.write_bytes(b"D 0 0\n")
    code, out, err = run_cli(capsys, "run", t, p, s, "--tokens", "--verify")
    assert (code, out) == (2, "")
    assert "t.tok: token '1\\xa02' is not an integer" in err


@pytest.mark.parametrize(
    "name, data, message",
    [
        ("t.tok", b"1_0 2 1", "t.tok: token '1_0' is not an integer"),
        ("t.tok", b"1 2 +1", "t.tok: token '+1' is not an integer"),
        ("t.tok", b"1 -0 1", "t.tok: negative letter -0"),
        ("p.tok", b"1_1", "p.tok: token '1_1' is not an integer"),
        ("s.tok", b"I +1 1\n", "s.tok:1: bad position in 'I +1 1'"),
        ("s.tok", b"D 0 0\nD 0 1_0\n", "s.tok:2: bad positions in 'D 0 1_0'"),
        ("s.tok", b"X 1 1\nI 1 1_1\n", "s.tok:2: bad block '1_1'"),
        ("s.tok", b"I 1 1,+1\n", "s.tok:1: bad block '1,+1'"),
        ("s.tok", b"I 1 1,-0\n", "s.tok:1: negative letter in block '1,-0'"),
    ],
)
def test_tokens_are_ascii_digits_only(tmp_path, capsys, name, data, message):
    """int() reads "1_0" as 10 and "+3" as 3; the command refuses both,
    naming the file or line and the token."""
    files = {"t.tok": b"1 2 1", "p.tok": b"1", "s.tok": b"D 0 0\n", name: data}
    for file_name, content in files.items():
        (tmp_path / file_name).write_bytes(content)
    args = [tmp_path / f for f in ("t.tok", "p.tok", "s.tok")]
    code, out, err = run_cli(capsys, "run", *args, "--tokens", "--verify")
    assert (code, out) == (2, "")
    assert message in err


def test_position_violation_reports_line(files, tmp_path, capsys):
    t, p, _ = files
    s = tmp_path / "oob.txt"
    s.write_bytes(b"D 13 99\n")
    code, _, err = run_cli(capsys, "run", t, p, s)
    assert code == 2 and ":1" in err


def test_index_mode_prepares_for_the_longest_block(tmp_path, capsys):
    """With no epsilon to give, a 40-letter insert and a 40-letter
    substitute are answered as the oracle answers them."""
    text = TEXT * 3
    block = b"bananaxy" * 5
    ops = [Insert(4, tuple(block)), Substitute(8, tuple(block))]
    (tmp_path / "t.bin").write_bytes(text)
    (tmp_path / "p.bin").write_bytes(PATTERN)
    (tmp_path / "s.txt").write_bytes(b"I 4 %s\nX 8 %s\n" % (block, block))
    args = [tmp_path / f for f in ("t.bin", "p.bin", "s.txt")]
    code, out, err = run_cli(capsys, "run", *args, "--mode", "index", "--verify")
    want = [occurrences_after_oracle(list(text), list(PATTERN), op) for op in ops]
    assert (code, err) == (0, "")
    assert out.splitlines() == [" ".join(map(str, w)) for w in want]
    assert all(len(w) >= 5 for w in want)  # the block spells the pattern 5 times


def test_mode_restrictions(files, tmp_path, capsys):
    t, p, _ = files
    s = tmp_path / "ins.txt"
    s.write_bytes(b"I 0 a\n")
    code, _, err = run_cli(capsys, "run", t, p, s, "--mode", "pm-del")
    assert code == 2 and "pm-del" in err
    # pm-edit takes blocks of any length.
    s2 = tmp_path / "wide.txt"
    s2.write_bytes(b"I 0 ab\nD 2 5\n")
    code, out, err = run_cli(capsys, "run", t, p, s2, "--mode", "pm-edit", "--verify")
    assert code == 0 and err == "" and len(out.splitlines()) == 2


def test_empty_inputs_rejected(tmp_path, capsys):
    t = tmp_path / "t.bin"
    p = tmp_path / "p.bin"
    s = tmp_path / "s.txt"
    t.write_bytes(b"")
    p.write_bytes(b"x")
    s.write_bytes(b"")
    assert run_cli(capsys, "run", t, p, s)[0] == 2
    t.write_bytes(b"x")
    p.write_bytes(b"")
    assert run_cli(capsys, "run", t, p, s)[0] == 2


def test_missing_file(tmp_path, capsys):
    t = tmp_path / "t.bin"
    t.write_bytes(b"x")
    code, _, err = run_cli(capsys, "run", t, tmp_path / "nope.bin", t)
    assert code == 2 and err


def test_bench_runs_perfbench_with_arguments_unchanged(monkeypatch):
    calls = []

    def fake_run(cmd, check):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 3)

    monkeypatch.setattr(cli.subprocess, "run", fake_run)
    argv = ["--workload", "pm-periodic", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert main(["bench", *argv]) == 3
    script = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    assert script.is_file()
    assert calls == [[sys.executable, str(script), *argv]]


def test_bench_without_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "PERFBENCH", tmp_path / "perfbench" / "run.py")
    code, out, err = run_cli(capsys, "bench", "--seconds", "1")
    assert (code, out) == (2, "")
    assert "checkout" in err


def test_token_letters_beyond_int64(tmp_path, capsys):
    big = 2**63 + 5
    t = tmp_path / "text.tok"
    p = tmp_path / "pattern.tok"
    s = tmp_path / "script.tok"
    t.write_text(" ".join(str((0, big, 1, 2)[(i * 5 + i // 7) % 4]) for i in range(270)))
    p.write_text(f"{big} 1")
    s.write_text(f"D 0 0\nI 0 {big},1\nX 5 1\n")
    code, out, err = run_cli(capsys, "run", t, p, s, "--tokens", "--verify")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3
