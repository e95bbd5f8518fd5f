"""One benchmark run in a fresh process; prints one JSON result line.

Usage: python3 perfbench/child.py '<spec JSON>'

The spec names the checkout root, the workload config, an output directory,
whether to stop after set-up, and whether to trace.  The package is imported
from ``<root>/src`` and nowhere else.  Set-up is interpreter start, the
package import, the workload's RadialGrid and, where the experiment uses
spectral data, ``spectral.ground_state`` on that grid; the ``ready`` time is
CLOCK_MONOTONIC, which the parent compares with its own clock at spawn.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _digest(outdir):
    """sha256 over the CSV bodies a run wrote (byte-identical per config and seed)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main(spec):
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    sys.path.insert(0, src)
    import numpy
    import scipy

    import solmanifold
    from solmanifold import experiments, spectral

    if not os.path.realpath(solmanifold.__file__).startswith(src + os.sep):
        raise ImportError(f"solmanifold imported from {solmanifold.__file__}, not {src}")

    import tracing
    import workloads

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["run_id"], measure_alloc=spec["measure_alloc"])
        tracer.install()
    kw = dict(spec["config"])
    kw["sweep"] = tuple(kw.get("sweep", ()))
    cfg = experiments.ExperimentConfig(output_dir=spec["outdir"], **kw)
    grid = cfg.grid()
    if cfg.experiment in workloads.SPECTRAL:
        spectral.ground_state(grid)
    out = {"ready": time.monotonic()}
    if spec["setup_only"]:
        return out

    out["sizes"] = workloads.sizes(cfg, solmanifold)
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "solmanifold": solmanifold.__version__,
    }
    out["thread_env"] = {
        k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    errors = []
    failed_checks = []
    t0 = time.perf_counter()
    try:
        report = experiments.run(cfg)
    except Exception:
        report = None
        errors.append(traceback.format_exc())
    run_s = time.perf_counter() - t0
    if tracer is not None:
        traced_s = time.perf_counter() - tracer.started
        tracer.restore()
    if report is not None:
        errors += [r["error"] for r in report.records if "error" in r]
        failed_checks = [
            f"{c.name}: {c.value:.6g} {c.op} {c.threshold:.6g}" for c in report.checks if not c.passed
        ]
        out["oracle"] = workloads.oracle(report)
        out["csv_sha256"] = _digest(spec["outdir"])
    out.update(
        run_s=run_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        errors=errors,
        failed_checks=failed_checks,
        failed=bool(errors or failed_checks or report is None),
    )
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(overhead_ratio=None)
        out["traced_s"] = traced_s
        out["self_s_total"] = sum(tracer.self_s.values())
        if not spec["measure_alloc"]:
            tracer.write_spans(spec["spans_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
