"""The layout of ``src/``: it holds what the commands run.

Every public top-level function or class of ``src/heatent`` must be
referenced by code somewhere in ``src/``, as a name, an attribute or an
import (a docstring does not count).  Lone forms of what a batch path
computes fold into that path, and oracles that only tests call live in
``tests/oracles.py``.  No module reads another module's private name.  The
few exceptions to either rule are listed with their reasons.
"""

import ast
from pathlib import Path

import heatent

SOURCE = Path(heatent.__file__).resolve().parent

# module.name -> why it stays in src/ with no caller there
UNREFERENCED = {
    "spectral.evolve": "the library's one-time API (README), and the row-independence "
                       "tests' lone reference for a trace's row",
    "fixtures.random_positive_torus_field": "perfbench's and the tests' seeded field draw",
    "fixtures.random_torus_potential": "the tests' seeded potential draw, which frozen "
                                       "digests pin",
}

# (reader, sibling) -> (the sibling's private names the reader uses, why)
PRIVATE_READS = {
    ("fixtures", "spectral"): (
        {"_read_only", "_transform", "_require_positive", "_RESOLVED_MINIMUM"},
        "the seeded draws build fields straight in spectral's coefficient layout"),
    ("h3entropy", "specfun"): (
        {"_factors", "_log_sinh_ratio", "_refuse_overflow"},
        "the unchecked kernels behind specfun's checked public forms, which the "
        "sweep runs under its one errstate and gate"),
}


def _layout() -> tuple[dict[str, str], set[str]]:
    """(public top-level functions and classes as module.name -> name, every
    name that code in src/ refers to)."""
    public, referenced = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return public, referenced


def test_every_public_name_is_referenced_in_src():
    public, referenced = _layout()
    unreferenced = sorted(qualified for qualified, name in public.items()
                          if name not in referenced and qualified not in UNREFERENCED)
    assert unreferenced == []


def test_every_allowlisted_name_exists_and_is_unreferenced():
    # an entry that gains a caller in src/, or is gone, leaves the list
    public, referenced = _layout()
    for qualified in UNREFERENCED:
        assert qualified in public, qualified
        assert public[qualified] not in referenced, qualified


def _private_reads() -> set[tuple[str, str, str]]:
    """Every (reader, sibling, name) where a module of src/ reads a private
    name of a sibling: ``from .sibling import _name``, or ``alias._name`` of
    a sibling imported as ``from . import sibling as alias``."""
    reads = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        siblings = {}  # the local name of each imported sibling module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        reads.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")):
                reads.add((path.stem, siblings[node.value.id], node.attr))
    return reads


def test_no_module_reads_a_private_name_of_another_but_the_listed():
    # a listed read that is gone leaves the list too
    allowed = {(reader, sibling, name) for (reader, sibling), (names, _) in PRIVATE_READS.items()
               for name in names}
    assert sorted(_private_reads()) == sorted(allowed)
