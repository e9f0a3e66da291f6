import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import lieposet
from lieposet.cli import main

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


def _modules_loaded_by(argv):
    """Short names of the lieposet submodules that one command loads, run
    as `python -m lieposet.cli *argv` in a fresh interpreter; argv None
    only imports the package."""
    code = (
        "import json, runpy, sys\n"
        "if sys.argv[1:]:\n"
        "    try:\n"
        "        runpy.run_module('lieposet.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        if exc.code:\n"
        "            raise\n"
        "else:\n"
        "    import lieposet\n"
        "print(json.dumps(sorted(m[9:] for m in sys.modules if m.startswith('lieposet.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *(argv or ())],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule():
    assert _modules_loaded_by(None) == set()


TRIANGLE = "C;3;-1<=2,-1<=3,-2<=3"
POSET = ["-p", TRIANGLE, "--format", "json"]


# (argv, modules it must load, modules it must not load): a cold query
# pays only for the compute module its command runs; errors, formats and
# posets come with the module top
COMMAND_LOADS = [
    (["validate", *POSET], {"formats"}, {"index_engine", "frobenius"}),
    (["export", *POSET, "--what", "commutator"], {"formats"},
     {"index_engine", "frobenius"}),
    (["enumerate", "--family", "C", "--n", "2"], {"posets"}, {"index_engine", "frobenius"}),
    (["isomorphism", "-p", "D;3;-1<=2"], {"algebra"}, {"index_engine", "frobenius"}),
    (["index", *POSET], {"index_engine"}, {"frobenius"}),
    (["reduce", *POSET], {"index_engine"}, {"frobenius"}),
    (["frobenius", *POSET, "--check-oracle"], {"frobenius", "index_engine"}, set()),
    (["principal", *POSET], {"frobenius"}, {"index_engine"}),
    (["spectrum", *POSET], {"frobenius"}, {"index_engine"}),
    (["verify", "--families", "C:1"], {"harness", "index_engine", "frobenius"}, set()),
]


@pytest.mark.parametrize(
    "argv, runs, skips", [pytest.param(*case, id=case[0][0]) for case in COMMAND_LOADS]
)
def test_cli_command_loads_only_what_it_runs(argv, runs, skips):
    # harness, the campaign driver, is verify's alone
    if argv[0] != "verify":
        skips = skips | {"harness"}
    loaded = _modules_loaded_by(argv)
    assert runs <= loaded
    assert loaded & skips == set()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["validate", *POSET], id="validate"),
        pytest.param(["enumerate", "--family", "C", "--n", "2"], id="enumerate"),
        pytest.param(["export", "-p", TRIANGLE, "--what", "hasse"], id="export-hasse"),
        pytest.param(["export", "-p", TRIANGLE, "--what", "relation-graph"],
                     id="export-relation-graph"),
    ],
)
def test_cold_query_without_a_basis_loads_no_algebra(argv):
    # these commands build no basis and no table, so they neither compile
    # nor run algebra
    assert "algebra" not in _modules_loaded_by(argv)


@pytest.mark.parametrize("command", ["index"])
def test_trials_default_is_the_oracle_default(command):
    # the --trials default is lieposet.ORACLE_TRIALS, which the click
    # decorators read at the module top, where index_engine is not loaded
    help_text = CliRunner().invoke(main, [command, "--help"]).output
    (line,) = [line for line in help_text.splitlines() if line.lstrip().startswith("--trials")]
    assert line.endswith("[default: 5]")
    assert importlib.import_module("lieposet.index_engine").ORACLE_TRIALS == 5


def test_every_export_resolves_to_its_defining_module():
    # each name of the export table loads its module on first access and
    # is that module's own object, defined there and not re-exported
    table = lieposet._EXPORTS
    assert len(table) == len(lieposet.__all__) == 65
    for name, module in table.items():
        owner = importlib.import_module(f"lieposet.{module}")
        value = getattr(owner, name)
        assert getattr(lieposet, name) is value
        assert getattr(value, "__module__", owner.__name__) == owner.__name__
        assert name in dir(lieposet)
    with pytest.raises(AttributeError, match="no_such_name"):
        lieposet.no_such_name
    with pytest.raises(ImportError):
        from lieposet import no_such_name  # noqa: F401
    # a submodule that is not a table name still imports as one
    from lieposet import linalg

    assert linalg is sys.modules["lieposet.linalg"]


def test_every_export_is_used_inside_the_package():
    # a public function that only the tests and the export list reach is
    # dead code: delete it, or move it into tests/ as a reference.
    # mask_of_poset stays for the poset keys of ROADMAP item 4
    allowed = {"mask_of_poset"}
    init = PACKAGE / "__init__.py"
    exported = set(lieposet._EXPORTS)
    assert exported
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


def test_no_function_only_reads_an_attribute_of_a_parameter():
    # a function whose whole body, apart from its docstring, is `return
    # P.attr` for a parameter P is a second name for an attribute that
    # the callers can read themselves: each derived object is read one way
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if (
                len(body) == 1
                and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Attribute)
                and isinstance(body[0].value.value, ast.Name)
                and body[0].value.value.id in params
            ):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}")
    assert found == []


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
    # names it only as a string of its export table
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "algebra.py":
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


def _is_click_command(node):
    """True when a function is decorated as a click command or group."""
    return any(
        isinstance(d, ast.Call) and _callable_name(d.func) in ("command", "group")
        for d in node.decorator_list
    )


def test_every_function_is_read_inside_the_package():
    # a function, method or property that nothing in the package reads
    # is dead code: delete it, or move it into tests/.  Python reads the
    # dunders and click the commands, and a class member is read only
    # through an attribute, not by a local of the same name;
    # mask_of_poset stays for the poset keys of ROADMAP item 4,
    # poset_to_text writes the documented text format, and the bench
    # reads ReductionTrace.ranks until ROADMAP item 6
    allowed = {"mask_of_poset", "poset_to_text", "ranks"}
    defined, names, attributes = [], set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        members = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not (dunder or _is_click_command(node)):
                    where = f"{path.relative_to(PACKAGE)}:{node.lineno}"
                    defined.append((where, node.name, node in members))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    assert defined
    unread = [
        f"{where} {name}"
        for where, name, member in defined
        if name not in attributes | allowed and (member or name not in names)
    ]
    assert unread == []


def test_every_name_the_bench_reads_exists():
    # the bench imports lieposet modules and reads functions off them and
    # fields off their results; a rename inside the package must not
    # leave a workload calling a name that is gone
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lieposet"
        for alias in node.names
    }
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert len(read) == 21
    missing = [
        f"{module}.{name}" for module, name in sorted(read)
        if not hasattr(importlib.import_module(f"lieposet.{module}"), name)
    ]
    assert missing == []
    from lieposet import build_poset, frobenius, index_engine

    assert "seed" in inspect.signature(index_engine.reduce).parameters
    P = build_poset("C", 1, [(-1, 1)])
    trace = index_engine.reduce(P, seed=0)
    assert (trace.ranks, trace.final_rank) == ((1,), 1)
    element = frobenius.principal_element(P, frobenius.frobenius_functional(P))
    assert element.diagonal is not None
    report = frobenius.spectrum(P, element)
    assert (report.is_binary, report.zero_count, report.one_count) == (True, 1, 1)


def _readers(name):
    """`module.function` for each function of the package whose own body,
    apart from the functions nested in it, reads `name`; `module.<module>`
    for a read outside every function."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        scopes = [("<module>", tree)] + [
            (node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope, top in scopes:
            stack = list(ast.iter_child_nodes(top))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _callable_name(node) == name:
                    found.add(f"{path.stem}.{scope}")
                stack.extend(ast.iter_child_nodes(node))
    return found


def test_basis_order_is_sorted_only_in_the_borel_basis_and_decompose():
    # a poset's basis is the Borel basis filtered, already in basis
    # order: the Borel basis is sorted once per (family, n) and decompose
    # picks its next element by basis order; no per-poset sort may come
    # back
    assert _readers("sort_key") == {"algebra._borel_basis", "algebra.decompose"}


def test_only_the_campaign_report_reads_the_seed():
    # no campaign check draws a random number: in harness the seed is
    # declared as a CampaignConfig field (the module scope) and read only
    # where run_campaign echoes it in the report, and verify takes no
    # --seed or --trials
    assert {r for r in _readers("seed") if r.startswith("harness.")} == {
        "harness.<module>", "harness.run_campaign",
    }
    for flag, value in (("--seed", "1"), ("--trials", "5")):
        result = CliRunner().invoke(main, ["verify", "--families", "C:1", flag, value])
        assert result.exit_code == 2 and "no such option" in result.output.lower()


def test_h_block_is_read_by_the_oracle_and_the_kirillov_solve():
    # the table's shape test is defined once, in algebra, and the generic
    # rank and the Kirillov solve both take their block route from it
    assert _readers("_h_block") == {"index_engine.generic_rank", "frobenius._solve_kirillov"}
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "_h_block"
    ]
    assert defined == ["algebra._h_block"]


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


def test_every_import_is_used():
    # a name a module imports at its top and never reads is dead weight,
    # and a leftover of code deleted elsewhere; __future__ imports bind
    # nothing
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found.extend(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                         for name in bound if name not in read)
    assert found == []
