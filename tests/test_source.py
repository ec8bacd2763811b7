"""Checks on the package source itself, read as syntax trees."""

import ast
import importlib
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "positroids"


def test_no_assert_statements():
    # python -O strips asserts, so a check that lives in one is no check
    modules = sorted(SOURCE.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert modules
    assert found == []


def test_no_module_level_caches():
    # each cache lives on the Positroid it describes; functools.cache and
    # lru_cache would keep every argument alive in a module-global table
    banned = {"cache", "lru_cache"}
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in banned]
            elif isinstance(node, ast.Attribute) and node.attr in banned:
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the only constructions allowed to skip validation: each is valid by proof
UNCHECKED_CALLERS = {
    ("cyclic.py", "IntervalDecomposition.restrict"),
    ("cyclic.py", "decompose"),
    ("positroid.py", "necklace_of"),
    ("positroid.py", "permutation_of"),
    ("positroid.py", "reduce"),
    ("rank.py", "enumerate_ncp"),
    ("rank.py", "rank"),
    ("realize.py", "matroid_from_matrix"),
}


def _references(tree: ast.AST, name: str, scope: str = "") -> list[tuple[str, ast.AST]]:
    """(enclosing function, node) for every use of `name` below tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
            found += _references(node, name, inner)
            continue
        if isinstance(node, ast.Name) and node.id == name:
            found.append((scope, node))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append((scope, node))
        elif isinstance(node, ast.alias) and name in (node.name, node.asname):
            found.append((scope, node))
        found += _references(node, name, scope)
    return found


def test_unchecked_construction_is_fenced():
    # a new caller of the helper must be added above, with its proof in its
    # docstring; an alias or a bare reference would hide a caller
    callers = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {
            id(node.func) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        for scope, node in _references(tree, "_unchecked"):
            if isinstance(node, ast.alias):
                assert node.asname is None, f"{path.name}: _unchecked imported under an alias"
                continue
            assert id(node) in calls, f"{path.name}:{node.lineno}: _unchecked used without a call"
            callers.add((path.name, scope))
    assert callers == UNCHECKED_CALLERS


def test_is_basis_checks_only_sets_from_outside():
    # is_basis re-validates a listing, so it serves the sets a caller hands
    # to the morph entry points, and repro's checks of documented results
    # through the public API; a set the package builds is its own mask, and
    # its check calls the Gale kernel directly
    callers = {
        (path.name, scope)
        for path in sorted(SOURCE.rglob("*.py"))
        for scope, _ in _references(ast.parse(path.read_text(), filename=str(path)), "is_basis")
    }
    assert callers == {
        ("morph.py", "align_basis"),
        ("morph.py", "interval_exchange"),
        ("repro.py", "_basis_membership"),
        ("repro.py", "_matrix_positroid"),
        ("repro.py", "_witness_basis"),
    }


def test_only_pi_inv_reads_the_inverse():
    # every positroid fact is read off pi's one-line notation; pi^{-1} is
    # built only for a caller of pi_inv, and the tests' helpers call it too
    paths = [*sorted(SOURCE.rglob("*.py")), Path(__file__).with_name("helpers.py")]
    readers = {
        (path.name, scope)
        for path in paths
        for scope, _ in _references(ast.parse(path.read_text(), filename=str(path)), "_inverse")
    }
    assert readers == {("positroid.py", "DecoratedPermutation.pi_inv")}


def test_morph_reads_only_the_proof_from_rank():
    # the search holds no policy of rank_dp's: when rank_dp tries it and
    # when it builds the table stay in rank.py, and morph.py reads only the
    # query and the maximality proof from there, never the module itself
    path = SOURCE / "morph.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("rank", "positroids.rank"):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.name for alias in node.names if alias.name.endswith("rank")]
    assert sorted(imported) == ["_maximal", "_query"]


def test_public_names_listed_by_their_module():
    # each public name has one owner: the module that defines it lists it
    # in its own __all__, as the package's __all__ does
    package = importlib.import_module("positroids")
    unlisted = []
    for name in package.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(getattr(package, name).__module__)
        if name not in getattr(module, "__all__", ()):
            unlisted.append(f"{module.__name__}.{name}")
    assert unlisted == []


# every name the package exported before its __all__ became the union of
# its modules' lists; each must stay importable from the package
EXPORTED = (
    "ArrowTable", "BasisCollection", "ContractViolationError", "CyclicInterval",
    "DecoratedPermutation", "EnumerationLimitError", "ExchangeKind", "ExchangeRecord",
    "GapStatus", "GrassmannNecklace", "IntervalDecomposition", "MorphState",
    "NonCrossingPartition", "NotAPositroidError", "Positroid", "RankCertificate",
    "RationalMatrix", "ValidationError", "align_basis", "arrow_table",
    "bound_for_partition", "ccw_count", "cw_count", "cyclic_leq", "cyclic_less",
    "decompose", "enumerate_bases", "enumerate_ncp", "first_negative_minor",
    "format_set_spec", "gale_leq", "half_open", "interval_contains",
    "interval_exchange", "is_compatible", "is_totally_nonnegative",
    "loops_and_coloops", "matroid_from_matrix", "maximal_minor", "min_elements",
    "mimic", "morph_sequence", "natural_bound", "necklace_from_bases", "necklace_of",
    "open_interval", "parse_set_spec", "permutation_of", "position",
    "positroid_from_matrix", "random_tnn_matrix", "rank", "rank_bruteforce",
    "rank_dp", "rank_of_interval", "reduce", "row_rank", "witness_basis",
)

MODULES = ("cyclic", "errors", "morph", "positroid", "rank", "realize")


def test_package_exports_the_union_of_its_modules_lists():
    package = importlib.import_module("positroids")
    lists = [importlib.import_module(f"positroids.{m}").__all__ for m in MODULES]
    assert package.__all__ == [name for names in lists for name in names] + ["__version__"]
    assert len(EXPORTED) == 58
    missing = [name for name in EXPORTED if not hasattr(package, name)]
    assert missing == []
    assert set(package.__all__) - set(EXPORTED) == {"next_element", "prev_element", "__version__"}
    namespace: dict = {}
    exec("from positroids import *", namespace)
    assert set(EXPORTED) <= set(namespace)


def _self_reaching_functions(module: str) -> list[str]:
    """The module's functions that reach themselves through calls between
    its own functions, matched by name."""
    path = SOURCE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {
        node.name: node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    calls = {
        name: {
            called for node in ast.walk(fn) if isinstance(node, ast.Call)
            for called in [getattr(node.func, "id", getattr(node.func, "attr", None))]
            if called in functions
        }
        for name, fn in functions.items()
    }

    def reaches(start: str, goal: str) -> bool:
        seen, stack = set(), list(calls[start])
        while stack:
            name = stack.pop()
            if name == goal:
                return True
            if name not in seen:
                seen.add(name)
                stack.extend(calls[name])
        return False

    assert functions
    return [name for name in functions if reaches(name, name)]


def test_rank_module_has_no_recursion():
    # partitions are enumerated and certificates walked on explicit stacks,
    # so no query on validated input ends in a RecursionError: no cycle may
    # run through the calls between rank.py's own functions
    assert _self_reaching_functions("rank.py") == []


def test_morph_module_has_no_recursion():
    # the witness's morph recursion, up to s levels deep, runs on an
    # explicit stack of levels, so rank --witness cannot end in a
    # RecursionError either
    assert _self_reaching_functions("morph.py") == []


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    # the benchmark's tracer wraps these functions by name and reports one
    # the package no longer binds as a null metric, so a rename or removal
    # must fail here first; "Class.method" names a method defined on Class
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("TRACED", "DIRECT", "CLI_MAIN")
    }
    targets = [*tables["TRACED"], *tables["DIRECT"], tables["CLI_MAIN"]]
    assert len(tables["TRACED"]) >= 20 and tables["DIRECT"]
    unbound = []
    for module_name, attr in targets:
        module = importlib.import_module(f"positroids.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            bound = isinstance(cls, type) and method in vars(cls)
        else:
            bound = callable(getattr(module, attr, None))
        if not bound:
            unbound.append(f"{module_name}.{attr}")
    assert unbound == []
