"""The benchmark in bench/ reaches arclat by name: its traced entry points,
the lru caches it reports and the functions its workloads call.  These
tests only read bench/; a rename or deletion in src/ that would break a
benchmark run fails here first."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import arclat

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


@pytest.fixture(scope="module")
def bench():
    """bench/tracing.py and bench/worker.py, imported as the worker imports them."""
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(BENCH))


def resolve(module: str, path: str):
    obj = importlib.import_module(f"arclat.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_entry_point_resolves(bench):
    tracing, _worker = bench
    assert len(tracing.ENTRY_POINTS) > 30
    for name, module, path, kind in tracing.ENTRY_POINTS:
        assert kind in ("span", "count"), name
        assert callable(resolve(module, path)), name
        assert getattr(arclat, module) is importlib.import_module(f"arclat.{module}")
    # The ratio hooks read these attributes of their arguments.
    assert callable(resolve("geometry", "Arrangement.m"))
    assert "n" in resolve("forcing", "ArcCongruence").__dataclass_fields__


def test_traced_modules_are_loaded_by_the_workloads():
    """The tracer finds each module of ENTRY_POINTS as an attribute of the
    arclat package, without importing it.  In a fresh interpreter with
    src/ and bench/ on the path, as in a benchmark worker, importing
    arclat, workloads and tracing must already have loaded every one of
    them; a module that arclat imports only lazily would not be."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import arclat, workloads, tracing\n"
        "print(sorted({m for _, m, _, _ in tracing.ENTRY_POINTS if not hasattr(arclat, m)}))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_cache_counts_reads_arclat_caches(bench):
    _tracing, worker = bench
    counts = worker.cache_counts()
    assert set(counts) == {"forcing.descent_cache", "arcs_b.unfold_arcs"}
    assert all(isinstance(v, int) and v >= 0 for pair in counts.values() for v in pair)


def workload_names():
    """(module, dotted attribute path) of every arclat attribute chain that
    bench/workloads.py reads, such as forcing.ArcCongruence.from_generators,
    and of every name it imports from an arclat module."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "arclat":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("arclat."):
            names.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in modules:
            names.add((node.id, ".".join(path)))
    return names


def test_workload_names_exist():
    names = workload_names()
    assert {("forcing", "is_subarc_symmetric"), ("arcs_b", "unfold_phi_inv"), ("arcs_b", "all_arcs"),
            ("forcing", "ArcCongruence.from_generators")} <= names
    missing = []
    for module, path in sorted(names):
        try:
            resolve(module, path)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert not missing
