"""Enum reads on the replay and report paths, and determinism across processes.

Hot code reads enum members from module constants and the record and stage
enums hash by identity (see the comment at ``StageId.__hash__``).  Nothing in
tier-1 times the code, so these checks keep the slow forms from coming back,
keep every constant bound to the member it is named after, and check that
identity hashing leaves the reports and the event log the same in every
process.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

import iostack
from iostack import AccessMode, Op, Origin, StageId

ROOT = Path(__file__).parent.parent

#: The modules whose functions run per event, per request or per report line.
HOT_MODULES = ("engine", "replay", "fscache", "diskcache", "scheduler", "requests", "reports")

_MISSING = object()


def _all_modules():
    return [
        importlib.import_module(f"iostack.{info.name}")
        for info in pkgutil.iter_modules(iostack.__path__)
    ]


def test_every_enum_constant_is_named_after_its_member():
    # A wrongly ordered ``A, B, C = Enum`` unpack swaps identities silently.
    wrong = [
        f"{module.__name__}.{name} is {member!r}"
        for module in [iostack, *_all_modules()]
        for name, member in vars(module).items()
        if isinstance(member, Enum) and name != member.name
    ]
    assert wrong == []


@pytest.mark.parametrize("enum", [Op, AccessMode, Origin, StageId], ids=lambda e: e.__name__)
def test_record_and_stage_enums_hash_by_identity(enum):
    assert enum.__hash__ is object.__hash__


def _resolve(node: ast.expr, namespace: dict) -> object:
    """What a name or dotted name means in the module namespace, else ``_MISSING``."""

    if isinstance(node, ast.Name):
        return namespace.get(node.id, _MISSING)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, namespace)
        if owner is not _MISSING and (inspect.ismodule(owner) or isinstance(owner, type)):
            return getattr(owner, node.attr, _MISSING)
    return _MISSING


def _body_nodes(function: ast.FunctionDef | ast.AsyncFunctionDef):
    """Every node of a function's body, nested functions' bodies included.

    The defaults and decorators of a nested function or lambda are left out:
    they are evaluated once, where the function is defined.
    """

    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.body)
        elif isinstance(node, ast.Lambda):
            stack.append(node.body)
        elif not isinstance(node, ast.ClassDef):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _functions(body: list[ast.stmt]):
    """The outermost functions of a module, methods of its classes included."""

    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body)


def slow_enum_reads(source: str, namespace: dict) -> list[str]:
    """``line: text`` of each ``<Enum subclass>.<MEMBER>`` read and enum value
    pattern in a function body; class bodies and defaults are exempt."""

    found = []
    for function in _functions(ast.parse(source).body):
        for node in _body_nodes(function):
            if isinstance(node, ast.Attribute):
                owner = _resolve(node.value, namespace)
                if isinstance(owner, type) and issubclass(owner, Enum) and node.attr in owner.__members__:
                    found.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.MatchValue):
                if isinstance(_resolve(node.value, namespace), Enum):
                    found.append((node.lineno, f"case {ast.unparse(node.value)}"))
    return [f"{line}: {text}" for line, text in sorted(found)]


class Color(Enum):
    RED = 1
    BLUE = 2


def test_the_scan_finds_member_reads_and_value_patterns():
    source = """
class Paint:
    default = Color.RED

    def mix(self, other, shade=Color.BLUE):
        match other:
            case Color.BLUE:
                return Color.RED
            case Color():
                return Color.RED.value
        return lambda tint=Color.RED: tint is Color.BLUE

def keep(c, palette=Color):
    def inner(tint=Color.RED):
        return tint is Color.RED
    return c is palette.RED, Color.__members__, Color(1)
"""
    assert slow_enum_reads(source, {"Color": Color}) == [
        "7: Color.BLUE",
        "7: case Color.BLUE",
        "8: Color.RED",
        "10: Color.RED",
        "11: Color.BLUE",
        "15: Color.RED",
    ]


@pytest.mark.parametrize("name", HOT_MODULES)
def test_hot_modules_read_no_enum_member_through_its_class(name):
    module = importlib.import_module(f"iostack.{name}")
    assert slow_enum_reads(inspect.getsource(module), vars(module)) == []


def test_reports_and_event_log_are_identical_across_hash_seeds(tmp_path):
    # Identity hashing orders a hashed collection of members by address,
    # and PYTHONHASHSEED orders one of strings: two processes must agree.
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"hashseed-{seed}"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        subprocess.run(
            [
                sys.executable, "-m", "iostack.cli", "--config", "demos/sample_config.ini",
                "--generate", "--dump-events", "--output", str(out),
            ],
            cwd=ROOT, env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.append({n: (out / n).read_bytes() for n in ("requests.csv", "summary.txt", "events.log")})
    first, second = outputs
    assert all(first.values())
    assert first == second
