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


def test_ground_state_and_a_run_load_no_scipy(tmp_path):
    # a fresh process: the package, its ground-state eigensolve and one
    # whole experiment run on numpy and the standard library alone, and no
    # run loads the process pool (nor multiprocessing with it)
    config = tmp_path / "stationarity.ini"
    config.write_text("[experiment]\nname = stationarity\n[grid]\nR = 40\nn = 401\n[time]\nT = 6\n")
    code = (
        "import sys, solmanifold\n"
        "from solmanifold.experiments import ExperimentConfig, run\n"
        "solmanifold.ground_state(solmanifold.RadialGrid(R=20.0, n=201))\n"
        "cfg = ExperimentConfig.from_file(sys.argv[1])\n"
        "cfg.output_dir = sys.argv[2]\n"
        "print(run(cfg).passed, [m for m in sys.modules if m.startswith('scipy')],\n"
        "      'concurrent.futures.process' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["True", "[]", "False"]


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


def test_the_snapshot_format_stays_in_grid_and_propagators():
    # _leapfrog hands its consumers field values: only the module that
    # defines the w -> f conversion and the stepper that applies it name it
    package = pathlib.Path(solmanifold.__file__).resolve().parent
    users = sorted(
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "_values_from_w")
        or (isinstance(node, ast.Attribute) and node.attr == "_values_from_w")
        or (isinstance(node, ast.alias) and node.name == "_values_from_w")
        or (isinstance(node, ast.FunctionDef) and node.name == "_values_from_w")
    )
    assert set(users) == {"grid.py", "propagators.py"}


def test_no_module_imports_a_process_pool():
    # every run takes one process: no module imports concurrent.futures or
    # multiprocessing, nor any name from them
    package = pathlib.Path(solmanifold.__file__).resolve().parent
    imported = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert "numpy" in imported
    pools = [name for name in imported if name.split(".")[0] in ("concurrent", "multiprocessing")]
    assert pools == []
