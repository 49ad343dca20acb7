"""The layout of ``src/``: it holds what the commands run.

Every public top-level function or class of ``src/heatent`` must be
referenced by code somewhere in ``src/``, as a name, an attribute or an
import (a docstring does not count), and every field of a dataclass or
NamedTuple there must be read in ``src/`` as an attribute.  Lone forms of
what a batch path computes fold into that path, and oracles that only tests
call live in ``tests/oracles.py``.  The few public names with no caller in
``src/`` are listed with their reasons.  No module reads another module's private name,
and that rule has no exception.  Every ``module.name`` README's prose gives
a module of ``src/heatent`` is an attribute of that module.  Every
``tests/test_<name>.py`` tests the module ``<name>`` of ``src/heatent``, or
is a suite listed with what it checks.  Each name that ``src/`` keeps only
because ``perfbench/`` calls it is listed with the perfbench line that
needs it, and leaves ``src/`` once that line is gone.
"""

import ast
import importlib
import re
from pathlib import Path

import heatent

SOURCE = Path(heatent.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"

# module.name -> why it stays in src/ with no caller there
UNREFERENCED = {
    "spectral.evolve": "the library's one-time API (README), and the row-independence "
                       "tests' lone reference for a trace's row",
    "fixtures.random_positive_torus_field": "perfbench's one-draw call of "
                                            "spectral.random_torus_fields",
}

# module.name[.name] in src/ kept only for perfbench -> the perfbench line that needs it
PERFBENCH_HELD = {
    "bounds.check_bounds.manifold": "reports = bd.check_bounds(trace, req.field.manifold, req.field)",
    "h3entropy.H3Sweep.__len__": 'self.counts["records"] += len(result)',
    "fixtures.random_positive_torus_field":
        "raw = fx.random_positive_torus_field(rng, sp.torus2(1.0, 1.0), cutoff=cutoff)",
}

# tests/test_<name>.py whose <name> is no module of src/heatent -> what it checks
SUITES = {
    "acceptance": "one test per acceptance criterion, each printing a PASS line",
    "benchmark_contract": "perfbench's requests against this library, in process",
    "closed_forms": "verify's closed-form D and Fisher of the fixtures against mpmath",
    "drift_oracle": "the drifted torus against its ground-state transform",
    "h3_frozen": "the h3 command's output bytes, by digest",
    "h3_special": "h3entropy's special functions: alpha, the moment table, log_sinh_ratio",
    "identity_frozen": "the verify command's output bytes, by digest",
    "layout": "these layout rules of src/, README and tests/",
    "sensitivity": "each verify group fails on its injected faults",
    "spectral_frozen": "the evolve and bounds commands' output bytes, by digest",
    "spectral_oracles": "the spectral functionals against independent integrals",
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


def _defines(qualified: str) -> bool:
    """Whether src/heatent defines module.name[.name]: a top-level function or
    class, then a method of that class or an argument of that function."""
    module, *path = qualified.split(".")
    scope = ast.parse((SOURCE / f"{module}.py").read_text())
    for name in path:
        children = scope.body + (scope.args.args if isinstance(scope, ast.FunctionDef) else [])
        scope = next((node for node in children
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
                      or isinstance(node, ast.arg) and node.arg == name), None)
        if scope is None:
            return False
    return True


def test_every_perfbench_held_name_exists_and_is_still_needed():
    # perfbench dropping the line takes the name out of src/ and off the list
    perfbench = {line.strip() for path in (TESTS.parent / "perfbench").glob("*.py")
                 for line in path.read_text().splitlines()}
    for qualified, line in PERFBENCH_HELD.items():
        assert _defines(qualified), qualified
        assert line in perfbench, qualified


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


def test_no_module_reads_a_private_name_of_another():
    assert sorted(_private_reads()) == []


def test_the_readme_layout_names_exactly_the_modules():
    # one row per module of src/heatent, none for a module that is gone
    section = README.read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `heatent\.(\w+)` \|", section, flags=re.MULTILINE)
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(rows) == sorted(modules)


def _readme_names() -> set[tuple[str, str]]:
    """Every (module, name) that README's prose, its fenced code blocks
    aside, writes in backticks as ``heatent.<module>.<name>`` or
    ``<module>.<name>``, module being one of src/heatent."""
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__", "__main__"}
    names = set()
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    for span in re.findall(r"`([^`]+)`", prose):
        for module, name in re.findall(r"(?<![\w./])(?:heatent\.)?(\w+)\.(\w+)", span):
            if module in modules:
                names.add((module, name))
    return names


def test_every_name_the_readme_gives_a_module_exists():
    # a name deleted from its module leaves README with it
    names = _readme_names()
    assert names  # the pattern still finds README's names
    stale = sorted(f"{module}.{name}" for module, name in names
                   if not hasattr(importlib.import_module(f"heatent.{module}"), name))
    assert stale == []


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated ``@dataclass`` (bare or called) or derived from ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(n, ast.Name) and n.id in {"dataclass", "NamedTuple"}
               for n in decorators + node.bases)


def _records_and_reads() -> tuple[dict[str, str], set[str]]:
    """(every field of a dataclass or NamedTuple of src/heatent as module.Class.field ->
    field, every attribute that code in src/ loads)."""
    fields, reads = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[f"{path.stem}.{node.name}.{item.target.id}"] = item.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return fields, reads


def test_every_record_field_is_read_in_src():
    # read as an attribute: no field of src/ is read by a string name
    fields, reads = _records_and_reads()
    assert sorted(qualified for qualified, name in fields.items() if name not in reads) == []


def test_every_test_file_names_a_module_or_a_listed_suite():
    # a module renamed or folded away takes its test file's name with it;
    # a listed suite that is gone, or now names a module, leaves the list
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__", "__main__"}
    suites = {path.stem.removeprefix("test_") for path in TESTS.glob("test_*.py")}
    assert sorted(suites - modules - set(SUITES)) == []
    assert sorted(set(SUITES) - (suites - modules)) == []
