"""The README's Python snippets run, and each value they annotate with a
``# [...]`` comment is what the code returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
ANNOTATION = re.compile(r"#\s*(\[[^\]]*\])")


def test_readme_snippets_return_their_annotated_values():
    namespace: dict = {}
    checked = 0
    for block in BLOCKS:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            note = ANNOTATION.search(lines[stmt.end_lineno - 1])
            if note is None:
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
                continue
            assert isinstance(stmt, ast.Expr), lines[stmt.lineno - 1]
            got = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert got == ast.literal_eval(note.group(1)), lines[stmt.lineno - 1]
            checked += 1
    # Every annotation sits on a statement that was checked.
    assert checked == sum(len(ANNOTATION.findall(block)) for block in BLOCKS) > 0
