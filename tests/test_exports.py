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
    # a fresh process: the package, its ground-state eigensolve and two whole
    # experiment runs, one of them (a small h_scaling) on the seeded draws
    # and the Chebyshev proxy, load numpy's core and the standard library
    # alone: no scipy, numpy.random or numpy.polynomial, and no process pool
    # (nor multiprocessing with it)
    stationarity = tmp_path / "stationarity.ini"
    stationarity.write_text("[experiment]\nname = stationarity\n[grid]\nR = 40\nn = 401\n[time]\nT = 6\n")
    h_scaling = tmp_path / "h_scaling.ini"
    h_scaling.write_text("[experiment]\nname = h_scaling\nseed = 5\n[grid]\nR = 20\nn = 201\n"
                         "R_obs = 8\n[time]\nT = 6\n[sweep]\nvalues = 1e-4, 2e-4\n")
    code = (
        "import sys, solmanifold\n"
        "from solmanifold.experiments import ExperimentConfig, run\n"
        "solmanifold.ground_state(solmanifold.RadialGrid(R=20.0, n=201))\n"
        "reports = []\n"
        "for path in sys.argv[2:]:\n"
        "    cfg = ExperimentConfig.from_file(path)\n"
        "    cfg.output_dir = sys.argv[1]\n"
        "    reports.append(run(cfg))\n"
        "print(reports[0].passed, sum('error' in r for rep in reports for r in rep.records),\n"
        "      len(reports[1].checks),\n"
        "      [m for m in sys.modules if m.startswith(('scipy', 'numpy.random', 'numpy.polynomial'))],\n"
        "      'concurrent.futures.process' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out"), str(stationarity), str(h_scaling)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    # the small h_scaling makes its four checks (two slope bounds, one
    # agreement per sweep value) without an error record
    assert proc.stdout.split() == ["True", "0", "4", "[]", "False"]


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


def test_the_traced_names_time_live_work(tmp_path):
    # the spans perfbench/tracing.py opens for the fixed-point h, x_pm, the
    # modulation rate and the mixed norms wrap what a run calls: one small
    # h_scaling and one small contraction call each at least once
    from solmanifold.experiments import ExperimentConfig, run

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    small = dict(R=20.0, n=201, R_obs=8.0, T=6.0)
    tracer = tracing.Tracer("live")
    tracer.install()
    try:
        reports = [run(ExperimentConfig(name, seed=seed, sweep=sweep, **small,
                                        output_dir=str(tmp_path / name)))
                   for name, seed, sweep in (("h_scaling", 5, (1e-4, 2e-4)),
                                             ("contraction", 3, (5e-4, 1e-3)))]
    finally:
        tracer.restore()
    assert [r for rep in reports for r in rep.records if "error" in r] == []
    calls = {name: tracer.calls[name] for name in (
        "modulation.h_fixed_point", "modulation.xpm_evolution",
        "modulation.modulation_rate_series", "norms.mixed_norm")}
    assert min(calls.values()) >= 1, calls


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
