"""No ``Op.X`` or ``Status.X`` member load inside a function body on the
simulation path.

On Python <= 3.11 ``EnumType`` defines ``__getattr__``, so every load
of a member as a class attribute goes through the slow slot hook:
``resp.status is Status.OK`` takes about 190 ns on 3.11 against about
27 ns for a module-level name.  The hook runs no Python code, so the
call budget (``test_call_budget.py``, ``sys.setprofile``) cannot see
it; this guard reads the source instead.  Function bodies use the
module-level names of :mod:`repro.interconnect.messages` (``LW`` …
``MWAIT``, ``OK``, ``SC_FAIL``, ``QUEUE_FULL``).  Class-level tables
and default arguments are evaluated once, so they may name members.
"""

import ast
import os

import pytest

import repro
from repro.interconnect import messages
from repro.interconnect.messages import Op, Status

SRC = os.path.dirname(repro.__file__)

#: The simulation path: packages and single modules under ``src/repro``.
SCOPE = ("cores", "interconnect", "memory", "sync", "algorithms",
         os.path.join("scenarios", "workloads.py"))

ENUMS = {"Op": frozenset(Op.__members__),
         "Status": frozenset(Status.__members__)}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def member_loads(source: str) -> list:
    """``(line, "Enum.MEMBER")`` of every member load inside a function
    body (nested functions included, default arguments excluded)."""
    found = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, FUNCTIONS):
            continue
        body = (function.body if isinstance(function.body, list)
                else [function.body])
        for statement in body:
            for node in ast.walk(statement):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.attr in ENUMS.get(node.value.id, ())):
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def scoped_files() -> list:
    files = []
    for entry in SCOPE:
        path = os.path.join(SRC, entry)
        if entry.endswith(".py"):
            files.append(path)
            continue
        for root, _dirs, names in os.walk(path):
            files.extend(os.path.join(root, name) for name in names
                         if name.endswith(".py"))
    return sorted(files)


@pytest.mark.parametrize("path", scoped_files(),
                         ids=lambda path: os.path.relpath(path, SRC))
def test_no_member_load_in_function_bodies(path):
    with open(path, encoding="utf-8") as handle:
        loads = member_loads(handle.read())
    assert not loads, (
        f"{os.path.relpath(path, SRC)}: use the module-level names of "
        f"repro.interconnect.messages instead of {loads}")


def test_guard_flags_a_member_load():
    source = (
        "TABLE = {Op.LW: 1}\n"
        "def f(resp, op=Op.SC, ok=Status.OK):\n"
        "    if resp.status is Status.QUEUE_FULL:\n"
        "        return lambda: Op.MWAIT\n"
        "    return Op.__members__, resp.op.value\n")
    assert member_loads(source) == [(3, "Status.QUEUE_FULL"),
                                    (4, "Op.MWAIT")]


def test_module_names_are_the_members():
    for enum in (Op, Status):
        for member in enum:
            assert getattr(messages, member.name) is member
