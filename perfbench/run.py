"""Benchmark of the solmanifold laboratory on four pinned workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every run of ``experiments.run`` happens in a fresh child process
(perfbench/child.py) with BLAS/OpenMP threads pinned to 1.  With
``--trace 0`` the benchmark first starts SETUP_PROBES children that stop
after set-up, then runs the workload in fresh children until the next one
would overrun ``--seconds`` (at least one), and reports the medians of
``run_s``, ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` it runs the
workload once untraced and once traced, and reports the per-layer metrics
of the traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the provenance, the oracle readout of every run and the error text of every
failed run.  A run fails if its report has a failed check, if the runner
recorded an error, if it raised, or if its child exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# one invocation must end within 180 s; leave room for the last child
CHILD_TIMEOUT = 160.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed workload run)."""


def _child(spec, deadline):
    """Run one child; returns (its result dict or None, spawn time, error text)."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, min(CHILD_TIMEOUT, deadline - spawned)),
        )
    except subprocess.TimeoutExpired:
        return None, spawned, f"child timed out after {time.monotonic() - spawned:.1f} s"
    if proc.returncode != 0:
        return None, spawned, f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned, None


def _spec(config, run_id, outdir=None, trace=False, measure_alloc=False, setup_only=False):
    spans = f"spans-{config['experiment']}-s{config['seed']}.csv"
    return {
        "root": ROOT,
        "config": config,
        "run_id": run_id,
        "outdir": outdir,
        "trace": trace,
        "measure_alloc": measure_alloc,
        "setup_only": setup_only,
        "spans_path": os.path.join(OUT, spans),
    }


def _run_once(config, run_id, deadline, setups, trace=False, measure_alloc=False):
    """One workload run in a fresh child; a crashed child becomes a failed run."""
    outdir = os.path.join(OUT, run_id)
    res, spawned, err = _child(_spec(config, run_id, outdir, trace, measure_alloc), deadline)
    shutil.rmtree(outdir, ignore_errors=True)
    if res is None:
        res = {"failed": True, "errors": [err]}
    else:
        setups.append(res["ready"] - spawned)
    res["elapsed"] = time.monotonic() - spawned
    res["traced"] = trace
    return res


def run_workload(name, seed=None, seconds=10.0, trace=False, overrides=None):
    """Run the benchmark for one workload; returns the full result dict."""
    if not os.path.isfile(os.path.join(ROOT, "src", "solmanifold", "__init__.py")):
        raise HarnessError(f"no solmanifold package under {ROOT}/src")
    config = workloads.config_for(name, seed, overrides)
    tag = f"{name}-s{config['seed']}-{os.getpid()}"
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT
    setups = []
    runs = []

    if trace:
        # untraced run for the overhead base, traced run for the spans, and,
        # when the nonlinear solver ran, a tracemalloc pass for its peak
        runs.append(_run_once(config, f"{tag}-r0", deadline, setups))
        runs.append(_run_once(config, f"{tag}-r1", deadline, setups, trace=True))
        traced = runs[-1]
        if "layers" not in traced:
            raise HarnessError(f"traced run failed: {traced.get('errors')}")
        if traced["layers"]["modulation.evolve_nonlinear.calls"]:
            runs.append(
                _run_once(config, f"{tag}-r2", deadline, setups, trace=True, measure_alloc=True)
            )
    else:
        for i in range(SETUP_PROBES):
            res, spawned, err = _child(_spec(config, f"{tag}-p{i}", setup_only=True), deadline)
            if err:
                raise HarnessError(f"set-up failed: {err}")
            setups.append(res["ready"] - spawned)
        while True:
            runs.append(_run_once(config, f"{tag}-r{len(runs)}", deadline, setups))
            typical = statistics.median(r["elapsed"] for r in runs)
            if time.monotonic() - start + typical > min(seconds, CHILD_TIMEOUT):
                break

    timed = [r for r in runs if "run_s" in r and not r["traced"]]
    if not timed:
        raise HarnessError("no run finished: " + "; ".join(str(r.get("errors")) for r in runs))
    untraced_s = statistics.median(r["run_s"] for r in timed)
    if trace:
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["run_s"] / untraced_s
        if len(runs) == 3 and "layers" in runs[2]:
            key = "modulation.evolve_nonlinear.peak_alloc_mb"
            values[key] = runs[2]["layers"][key]
        units = tracing.LAYER_METRICS
    else:
        values = {
            "run_s": untraced_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in timed),
        }
        units = END_TO_END
    failed = sum(1 for r in runs if r["failed"])
    digests = {r["csv_sha256"] for r in runs if "csv_sha256" in r}
    return {
        "correct": failed == 0 and len(digests) <= 1,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "fail_ratio": failed / len(runs),
        "deterministic_csv": len(digests) <= 1,
        "setup_samples_s": setups,
        "runs": runs,
        "config": config,
    }


def provenance(seed, result):
    """Versions, machine, commit, seed, thread pinning and sizes of a run."""
    try:
        # the ceiling keeps git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    first = next((r for r in result["runs"] if "versions" in r), {})
    return {
        "versions": first.get("versions"),
        "thread_env_in_child": first.get("thread_env"),
        "sizes": first.get("sizes"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_sha": sha,
        "seed": seed,
        "config": result["config"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="default: the pinned acceptance seed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    seed = result["config"]["seed"]
    print(json.dumps({"provenance": provenance(seed, result)}))
    for i, r in enumerate(result["runs"]):
        detail = {k: r.get(k) for k in ("traced", "failed", "run_s", "rss_mb", "oracle", "errors", "failed_checks")}
        print(json.dumps({"run": i, **detail}))
    print(json.dumps({
        "fail_ratio": result["fail_ratio"],
        "deterministic_csv": result["deterministic_csv"],
        "setup_samples_s": result["setup_samples_s"],
    }))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
