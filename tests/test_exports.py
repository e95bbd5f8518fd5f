import ast
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import solmanifold
from solmanifold.grid import RadialGrid


def test_every_exported_name_resolves():
    # a deleted function left in an __all__ or in the package's imports
    missing = []
    for info in pkgutil.iter_modules(solmanifold.__path__):
        module = importlib.import_module(f"solmanifold.{info.name}")
        missing += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    tree = ast.parse(pathlib.Path(solmanifold.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = importlib.import_module(f"solmanifold.{node.module}")
            missing += [
                f"{source.__name__}.{alias.name}"
                for alias in node.names
                if not hasattr(source, alias.name) or not hasattr(solmanifold, alias.name)
            ]
    assert missing == []


def test_import_leaves_scipy_optimize_and_linalg_unloaded():
    # a fresh process: the package imports neither, and scipy.linalg
    # arrives with the first ground-state eigensolve
    code = (
        "import sys, solmanifold\n"
        "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])\n"
        "solmanifold.ground_state(solmanifold.RadialGrid(R=20.0, n=201))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["[]", "True"]


def test_tracer_targets_resolve():
    # perfbench/tracing.py patches these names from outside the package; a
    # renamed or deleted target, or r cached by anything but a plain
    # property, would break the benchmark's traced runs
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for pairs in tracing.GROUPS.values() for t in pairs]
    targets += list(tracing.COUNTED.values())
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"solmanifold.{module}"), name, None))
    ]
    assert missing == []
    assert type(vars(RadialGrid)["r"]) is property
