import ast
import importlib
import importlib.util
import pathlib
import pkgutil

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
