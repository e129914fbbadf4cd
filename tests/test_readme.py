"""README's API references checked against the library, so that a deleted or
renamed function left in the docs fails the suite.

- Every backticked call of a labeldp function written with plain
  identifiers, such as `lp_mst(train, epsilon, top_k, hyper, seed)`, names
  the leading parameters of its signature; an ellipsis stands for the
  parameters it skips, and the names after it are the trailing ones.
- Every backticked `module.name` of a labeldp module resolves.

Calls with literals (`release("rr", ...)`) are skipped.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import labeldp

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
MODULES = ("data", "models", "mechanisms", "attacks", "metrics", "experiments", "cli", "rng")
# Call forms README uses for callables that are not library functions.
NOT_LIBRARY = {"pipeline", "float"}
ELLIPSES = {"…", "..."}
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+\Z")
CALL = re.compile(r"([A-Za-z_][\w.]*)\((.*)\)\Z")

SPANS = [
    " ".join(span.split())
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
]


def _resolve(dotted):
    parts = dotted.split(".")
    if parts[0] != "labeldp":
        parts.insert(0, "labeldp")
    obj = importlib.import_module(".".join(parts[:2]))
    for part in parts[2:]:
        obj = getattr(obj, part)
    return obj


def _find(name):
    """A bare name from the package namespace or else from one of its modules."""
    for module in ("labeldp", *(f"labeldp.{m}" for m in MODULES)):
        obj = getattr(importlib.import_module(module), name, None)
        if obj is not None:
            return obj
    raise AttributeError(f"no labeldp function {name!r}")


def _plain_calls():
    calls = []
    for span in SPANS:
        match = CALL.match(span)
        if match is None:
            continue
        name, inner = match.groups()
        args = [arg.strip() for arg in inner.split(",")] if inner.strip() else []
        if not all(IDENTIFIER.match(arg) or arg in ELLIPSES for arg in args):
            continue
        if name in NOT_LIBRARY or ("." in name and name.split(".")[0] not in ("labeldp", *MODULES)):
            continue
        calls.append((span, name, args))
    return list({call[0]: call for call in calls}.values())


CALLS = _plain_calls()
MODULE_NAMES = list(dict.fromkeys(
    span for span in SPANS if DOTTED.match(span) and span.split(".")[0] in ("labeldp", *MODULES)
))


def test_readme_has_references_to_check():
    assert len(CALLS) >= 8
    assert len(MODULE_NAMES) >= 8


@pytest.mark.parametrize("span, name, args", CALLS, ids=[c[0] for c in CALLS])
def test_call_names_leading_parameters(span, name, args):
    func = _resolve(name) if "." in name else _find(name)
    params = list(inspect.signature(func).parameters)
    cut = next((i for i, arg in enumerate(args) if arg in ELLIPSES), None)
    if cut is None:
        assert params[: len(args)] == args, span
    else:
        head, tail = args[:cut], args[cut + 1:]
        assert params[: len(head)] == head, span
        assert not tail or params[-len(tail):] == tail, span


@pytest.mark.parametrize("span", MODULE_NAMES)
def test_module_name_resolves(span):
    _resolve(span)
