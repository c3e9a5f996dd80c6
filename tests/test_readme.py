"""The README's Python examples run, in order, and give the results they
state in their comments; its command lines name only flags and files that
exist."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from genlogic import UNDEFINED
from genlogic.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCK = re.compile(r"```python\n(.*?)```", re.S)
SH_BLOCK = re.compile(r"```sh\n(.*?)```", re.S)
# a repository path the README names, such as tests/test_acceptance.py
REPO_PATH = re.compile(r"\b(?:scripts|tests)/[\w./-]*")
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


def test_readme_commands_name_only_real_flags_and_files():
    text = README.read_text(encoding="utf-8")
    lines = "\n".join(SH_BLOCK.findall(text)).replace("\\\n", " ").splitlines()
    commands = [ln for ln in lines if ln.startswith("genlogic ")]
    assert len(commands) == 10, commands
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"unknown subcommand or flag in README line: {line}")
    named = {m.rstrip(".") for m in REPO_PATH.findall(text)}
    assert "tests/" in named
    assert sorted(p for p in named if not (ROOT / p).exists()) == []
