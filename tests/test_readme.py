"""The README's Python examples run, in order, and give the results they
state in their comments."""

import ast
import re
from fractions import Fraction
from pathlib import Path

from genlogic import UNDEFINED

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"```python\n(.*?)```", re.S)
# a comment that states the value of the expression before it
RESULT = re.compile(r"#\s*(Fraction\(\d+, \d+\)|UNDEFINED)")


def test_readme_python_blocks_give_their_stated_results():
    namespace, checked = {}, []
    for block in BLOCK.findall(README.read_text(encoding="utf-8")):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            line = lines[stmt.end_lineno - 1]
            stated = RESULT.search(line)
            if stated is None:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            assert isinstance(stmt, ast.Expr), line
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            want = eval(stated.group(1), {"Fraction": Fraction, "UNDEFINED": UNDEFINED})
            assert type(got) is type(want) and got == want, (line, got)
            checked.append(line)
    assert len(checked) == 5, checked
