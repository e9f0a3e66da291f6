import ast
import subprocess
import sys
from pathlib import Path

import lieposet

PACKAGE = Path(lieposet.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check of the package may
    # rest on one; raise an error from lieposet.errors instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _absolute_imports(path):
    """(line, module) for every absolute import statement in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_click():
    # click is the one declared runtime dependency; numpy, sympy and
    # networkx may be installed but must never become required
    allowed = set(sys.stdlib_module_names) | {"click", "lieposet"}
    found = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in allowed
    ]
    assert found == []


def test_algebra_imports_nothing_from_fractions():
    # structure constants are computed in ints: the module that computes
    # them has no Fraction to build, and the module that renders them
    # writes every int and Fraction with str
    found = [
        f"{module} {line} {name}"
        for module in ("algebra.py", "formats.py")
        for line, name in _absolute_imports(PACKAGE / module)
        if name.split(".")[0] == "fractions"
    ]
    assert found == []


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a campaign with jobs > 1 opens a pool; every other command and
    # every import of the package must not pay for multiprocessing
    code = "import sys, lieposet.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    assert out.stdout.strip() == "False"


def test_every_export_is_used_inside_the_package():
    # a public function that only the tests and the export list reach is
    # dead code: delete it, or move it into tests/ as a reference.
    # mask_of_poset stays for the poset keys of ROADMAP item 3
    allowed = {"mask_of_poset"}
    init = PACKAGE / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in PACKAGE.rglob("*.py"):
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(exported - used - allowed) == []


def _package_imports(module):
    """Short names of the package modules that a package module imports."""
    path = PACKAGE / f"{module}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # from .x import y imports lieposet.x, from . import x too
            base = node.module or ""
            if node.level:
                base = f"lieposet.{base}".rstrip(".")
            if base == "lieposet":
                names = [f"lieposet.{alias.name}" for alias in node.names]
            else:
                names = [base]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("lieposet."))
    return found


def test_layers_import_only_downward():
    # algebra is the layer under the index and Frobenius computations;
    # those two are siblings, and neither reaches up to the campaign, the
    # emitters or the command line
    above = {
        "algebra": {"index_engine", "frobenius", "harness"},
        "frobenius": {"index_engine", "harness", "formats", "cli"},
        "index_engine": {"frobenius", "harness", "formats", "cli"},
    }
    found = {module: sorted(_package_imports(module) & names)
             for module, names in above.items()}
    assert found == {module: [] for module in above}


def test_only_algebra_reads_commutator():
    # every bracket is read off the structure-constant table, and the
    # table is the one place that brackets realized matrices; __init__
    # only re-exports the name
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in ("algebra.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "commutator":
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []



def _callable_name(node):
    """The name a Name or Attribute node reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_lru_cache_has_an_integer_maxsize():
    # memory must not grow without bound over a long run: every
    # lru_cache of the package names its bound as an int literal, and no
    # bare @lru_cache (an implicit 128) or functools.cache (unbounded)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and _callable_name(node.func) == "lru_cache":
                bound = [*node.args, *(k.value for k in node.keywords if k.arg == "maxsize")]
                if not (
                    bound and isinstance(bound[0], ast.Constant) and type(bound[0].value) is int
                ):
                    found.append(where)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    where for d in node.decorator_list
                    if _callable_name(d) in ("lru_cache", "cache")
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                found.extend(where for alias in node.names if alias.name == "cache")
    assert found == []
