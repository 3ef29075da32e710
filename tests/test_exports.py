"""Every name a module exports in ``__all__`` must exist and have a caller,
and so must every function and method the package defines; every name a
module imports must be used in it.

A stale entry otherwise fails only on ``from module import *``, and a name
that nothing in the package uses is API kept alive only by its tests.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import splitstream

MODULES = [
    f"splitstream.{m.name}"
    for m in pkgutil.iter_modules(splitstream.__path__)
    if m.name != "__main__"  # runs the CLI on import
]

# API the acceptance criteria call directly, with the criterion that does;
# nothing else in the package needs to
CRITERION_API = {
    "compression_ratio": 2,
    "EQUIVARIANCE_BORDER": 6,   # its one use in src is its assignment
    "apply_mask": 7,
    "crossover_bandwidth": 8,
    "process_send_buffer": 9,
    "reassemble": 9,
}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _referenced(tree: ast.Module) -> set[str]:
    """Names read, and attributes accessed, anywhere in a module.

    Definitions, assignments, imports and ``__all__`` strings are not
    references, so a name counts only where some code uses it.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _defined(node, prefix: str = ""):
    """Qualified name and bare name of each function and method defined
    under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qualname = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield qualname, child.name
            yield from _defined(child, f"{qualname}.")
        else:
            yield from _defined(child, prefix)


def _package(package_dir: Path):
    """(module trees, names referenced in the package); the package root
    only re-exports, so its imports are not callers."""
    trees = {p.stem: ast.parse(p.read_text()) for p in package_dir.glob("*.py")}
    used = set().union(*(_referenced(t) for m, t in trees.items()
                         if m != "__init__"))
    return trees, used


def unused_exports(package_dir: Path) -> list[str]:
    """``module.name`` for each exported name that no module references."""
    trees, used = _package(package_dir)
    return sorted(f"{m}.{name}" for m, t in trees.items()
                  for name in _exported(t) if name not in used)


def unused_functions(package_dir: Path) -> list[str]:
    """``module.qualname`` for each function or method, dunders apart,
    whose name no module references."""
    trees, used = _package(package_dir)
    return sorted(f"{m}.{qualname}" for m, t in trees.items()
                  for qualname, name in _defined(t)
                  if name not in used
                  and not (name.startswith("__") and name.endswith("__")))


def _imported(tree: ast.Module):
    """Each name an import binds in a module, ``from __future__`` apart."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def unused_imports(package_dir: Path) -> list[str]:
    """``module.name`` for each imported name its module never reads (an
    attribute of the same name, such as ``report.mse``, is not a read); the
    package root's imports are its re-exports."""
    trees, _ = _package(package_dir)
    return sorted(
        f"{m}.{name}" for m, t in trees.items() if m != "__init__"
        for name in set(_imported(t)) - {
            node.id for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)})


def test_every_module_listed():
    assert {"splitstream.tiling", "splitstream.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_export_has_a_caller():
    unused = unused_exports(Path(splitstream.__file__).parent)
    assert [n for n in unused if n.split(".")[1] not in CRITERION_API] == []
    # an exception that gains a caller leaves the list
    assert sorted({n.split(".")[1] for n in unused}) == sorted(CRITERION_API)


def test_every_function_has_a_caller():
    unused = unused_functions(Path(splitstream.__file__).parent)
    assert [n for n in unused if n.split(".")[-1] not in CRITERION_API] == []


def test_every_import_is_used():
    assert unused_imports(Path(splitstream.__file__).parent) == []


# the frame path's stages; only codec.pack and codec.unpack chain them
FRAME_STAGES = {"quantize", "dequantize", "tile", "detile", "encode",
                "encode_to_target", "decode", "decode_prefix",
                "undecoded_plane_mask", "conceal"}


def frame_stages_used(tree: ast.Module) -> set[str]:
    """Frame stages a module calls, as ``f(...)`` or ``module.f(...)``, or
    imports (to pass on as a callable)."""
    found = set(_imported(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            found.add(func.id if isinstance(func, ast.Name)
                      else getattr(func, "attr", None))
    return found & FRAME_STAGES


def test_pipeline_has_no_second_frame_path():
    path = Path(splitstream.__file__).parent / "pipeline.py"
    assert frame_stages_used(ast.parse(path.read_text())) == set()


def sums_rows(tree: ast.Module) -> bool:
    """Whether a module calls ``add.reduce``, as ``np.add.reduce(...)`` or
    ``numpy.add.reduce(...)``."""
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "reduce"
               and getattr(node.func.value, "attr", None) == "add"
               for node in ast.walk(tree))


def test_only_the_tensor_module_replays_numpy_sums():
    # every pinned norm, stat and digest rests on one replay of numpy's
    # float64 reduction order, tensor._moments
    trees, _ = _package(Path(splitstream.__file__).parent)
    assert sorted(m for m, t in trees.items() if sums_rows(t)) == ["tensor"]
    assert sums_rows(ast.parse("np.add.reduce(buf, axis=0)"))
    assert not sums_rows(ast.parse("np.add(a, b)\nnp.maximum.reduce(a)"))


# modules that start processes; the package forks in one place only
FORKING_MODULES = {"multiprocessing", "concurrent"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add((node.module or "").split(".")[0])
    return found


def forks(tree: ast.Module) -> bool:
    """Whether a module imports a process-starting module or calls a
    ``fork``, as ``os.fork(...)`` or a bare ``fork(...)``."""
    return bool(imported_modules(tree) & FORKING_MODULES) or any(
        isinstance(node, ast.Call) and "fork" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree))


def test_only_the_model_forks():
    # model._fan_out is the one fan-out: calibration, corpus_stats and
    # SplitModel.sweep run their images through it
    trees, _ = _package(Path(splitstream.__file__).parent)
    assert sorted(m for m, t in trees.items() if forks(t)) == ["model"]
    assert forks(ast.parse("import os\nos.fork()"))
    assert forks(ast.parse("from concurrent.futures import ProcessPoolExecutor"))
    assert not forks(ast.parse("import os\nos.getpid()"))


def test_the_package_imports_no_process_module():
    # the fan-out forks with os.fork; importing multiprocessing alone raises
    # a process's peak RSS by about 0.6 MiB
    trees, _ = _package(Path(splitstream.__file__).parent)
    assert sorted(m for m, t in trees.items()
                  if imported_modules(t) & FORKING_MODULES) == []
    assert imported_modules(ast.parse("import multiprocessing.pool")) == {
        "multiprocessing"}
