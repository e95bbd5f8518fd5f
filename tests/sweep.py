"""Every shipped config through experiments.run, one fresh process each.

Usage, from the root of a checkout:

    python tests/sweep.py [--pairs N] [--against DIR] [--seeds N] [CONFIG ...]

For every configs/*.ini (or only the named ones), at its pinned seed, the
script starts one fresh child with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1.  The child imports the package from the
checkout's src, runs experiments.run into a fresh temporary directory and
prints one JSON line: the wall time of run, ru_maxrss, every check's
value, the failed checks, every error record with its traceback, and a
sha256 of each CSV.  It changes no grid or threshold: only the output
directory is set, and the seed with --seeds N, which runs every config at
each of the held-out seeds 0..N-1 in place of its pinned one.  Per config
the script prints each check's worst margin over its runs, with the seed
that gave it: value / threshold for a check "value < threshold",
threshold / value for "value > threshold", so a passing check reads
below 1.

Each config runs N times (default 1).  With --against DIR, the checkout at
DIR runs each config N times too, from its own configs/ and src/, in pairs
that alternate which checkout goes first.  Per config the script then
prints each CSV as byte-identical or its largest relative difference, and
the median wall time and max RSS of both checkouts with the median of the
per-pair ratios (this checkout over DIR).  It compares the numbers of the
two report.json files the same way, leaving out output_dir, traceback and
error: "report numbers identical", or the largest relative difference and
its key path.

The script exits 1 on any failed check or error record of either checkout,
at any seed, and when the CSVs of one checkout differ between its runs.
It is not part of tier-1 (pytest does not collect it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# report.json keys that name the run's place or failure, not its numbers
UNCOMPARED = ("output_dir", "traceback", "error")


def child(root, path, outdir, seed):
    """Run one config of the checkout at root into outdir, at seed ("" = pinned); print its JSON line."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    from solmanifold import experiments

    if not os.path.realpath(experiments.__file__).startswith(src + os.sep):
        raise ImportError(f"solmanifold imported from {experiments.__file__}, not {src}")
    cfg = experiments.ExperimentConfig.from_file(path)
    cfg.output_dir = outdir
    if seed:
        cfg.seed = int(seed)
    out = {"checks": [], "failed": [], "errors": []}
    start = time.perf_counter()
    try:
        report = experiments.run(cfg)
    except Exception:
        out["errors"].append({"error": "run raised", "traceback": traceback.format_exc()})
    else:
        out["checks"] = [[c.name, c.value, c.op, c.threshold] for c in report.checks]
        out["failed"] = [f"{c.name}: {c.value:.6g} {c.op} {c.threshold:.6g}"
                         for c in report.checks if not c.passed]
        out["errors"] = [r for r in report.records if "error" in r]
    out["wall_s"] = time.perf_counter() - start
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["csv"] = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out["csv"][name] = hashlib.sha256(fh.read()).hexdigest()
    print(json.dumps(out))


def run_one(root, path, seed=None):
    """One fresh child on one config at seed (None: pinned); returns (result, {csv name: values}, report)."""
    env = dict(os.environ, **{k: "1" for k in THREADS})
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory(prefix="sweep-") as outdir:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", root, path, outdir,
             "" if seed is None else str(seed)],
            env=env, capture_output=True, text=True,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = {"error": f"child exited {proc.returncode}", "traceback": proc.stderr}
            return ({"checks": [], "failed": [], "errors": [error], "wall_s": None,
                     "rss_mb": None, "csv": {}}, {}, None)
        values = {name: _read_csv(os.path.join(outdir, name)) for name in result["csv"]}
        report = os.path.join(outdir, "report.json")
        if os.path.exists(report):
            with open(report) as fh:
                report = json.load(fh)
        else:
            report = None
    return result, values, report


def _read_csv(path):
    with open(path) as fh:
        return [[float(v) for v in line.split(",")] for line in fh.read().splitlines()[1:]]


def _largest_relative_difference(a, b):
    """max |x - y| / max(|x|, |y|) over the entries of two CSV bodies; None if shapes differ."""
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return None
    worst = 0.0
    for x, y in zip(sum(a, []), sum(b, [])):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _numbers(value, path=""):
    """{key path: number} of every number in a parsed report, but under UNCOMPARED keys."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()
                 if k not in UNCOMPARED]
    elif isinstance(value, list):
        # a named entry (a check) is keyed by its name
        items = [(f"{path}[{v.get('name', i) if isinstance(v, dict) else i}]", v)
                 for i, v in enumerate(value)]
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return {path: value} if number else {}
    found = {}
    for key, item in items:
        found.update(_numbers(item, key))
    return found


def _report_verdict(mine, theirs):
    """How the numbers of two parsed reports compare, as one line."""
    if mine is None or theirs is None:
        return "report.json written by one checkout only" if mine or theirs else "no report.json"
    a, b = _numbers(mine), _numbers(theirs)
    if a.keys() != b.keys():
        return f"report numbers at different key paths: {sorted(a.keys() ^ b.keys())[:3]}"
    worst, where, count = 0.0, None, 0
    for key, x in a.items():
        y = b[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        count += 1
        diff = abs(x - y) / max(abs(x), abs(y))
        if where is None or not diff <= worst:
            worst, where = diff, key
    if where is None:
        return "report numbers identical"
    return (f"report numbers: {count} differ, the largest relative difference "
            f"{worst:.3g} at {where}")


def _problems(label, name, runs):
    """Print the failed checks and error records of runs; returns their count."""
    count = 0
    for result in runs:
        for check in result["failed"]:
            print(f"  {label} {name}: FAILED CHECK {check}")
            count += 1
        for record in result["errors"]:
            print(f"  {label} {name}: ERROR {record['error']}\n{record['traceback']}")
            count += 1
    return count


def _margin(value, op, threshold):
    """value / threshold for "<", threshold / value for ">": below 1 passes."""
    if op == "<":
        return value / threshold
    return threshold / value if value else math.inf


def _worst_margins(runs_by_seed):
    """{check: (worst margin, its seed)} over runs_by_seed, a list of (seed, results)."""
    worst = {}
    for seed, runs in runs_by_seed:
        for result in runs:
            for name, value, op, threshold in result["checks"]:
                margin = _margin(value, op, threshold)
                if name not in worst or not margin <= worst[name][0]:
                    worst[name] = (margin, seed)
    return worst


def _median(runs, key):
    values = [r[key] for r in runs if r[key] is not None]
    return statistics.median(values) if values else float("nan")


def _ratio(runs, base, key):
    ratios = [r[key] / b[key] for r, b in zip(runs, base) if r[key] and b[key]]
    return statistics.median(ratios) if ratios else float("nan")


def _configs(root):
    folder = os.path.join(root, "configs")
    names = sorted(f for f in os.listdir(folder) if f.endswith(".ini"))
    return {f[:-4]: os.path.join(folder, f) for f in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", help="config names (default: all)")
    parser.add_argument("--pairs", type=int, default=1, help="runs per config and checkout")
    parser.add_argument("--against", help="a second checkout to compare with")
    parser.add_argument("--seeds", type=int, help="run at seeds 0..N-1, not the pinned seed")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be at least 1")
    other = os.path.abspath(args.against) if args.against else None
    mine = _configs(ROOT)
    unknown = sorted(set(args.configs) - set(mine))
    if unknown:
        parser.error(f"no such config: {', '.join(unknown)}")
    if args.configs:
        mine = {name: mine[name] for name in args.configs}
    theirs = _configs(other) if other else {}
    seeds = [None] if args.seeds is None else list(range(args.seeds))
    bad = 0
    for name, path in mine.items():
        if other and name not in theirs:
            print(f"{name}: no such config in {other}")
            bad += 1
            continue
        by_seed = []
        for seed in seeds:
            label = name if seed is None else f"{name} seed {seed}"
            runs, problems = _compare(label, path, theirs.get(name), other, seed, args.pairs)
            by_seed.append(("pinned" if seed is None else seed, runs))
            bad += problems
        for check, (margin, seed) in _worst_margins(by_seed).items():
            print(f"  margin {check}: {margin:.4g} (seed {seed})")
    print(f"{len(mine)} configs, {bad} failed checks or errors")
    return 1 if bad else 0


def _compare(name, path, their_path, other, seed, pairs):
    """Run one config at one seed here (and at other); print its lines.

    Returns (this checkout's results, count of failed checks and errors).
    """
    bad = 0
    done = {"this": [], "against": []}
    order = ["this", "against"] if other else ["this"]
    for k in range(pairs):
        for side in order if k % 2 == 0 else order[::-1]:
            root, ini = (ROOT, path) if side == "this" else (other, their_path)
            done[side].append(run_one(root, ini, seed))
    runs, base = ([result for result, *_ in done[side]] for side in ("this", "against"))
    line = (f"{name}: wall {_median(runs, 'wall_s'):.3f} s, "
            f"max RSS {_median(runs, 'rss_mb'):.1f} MB")
    if other:
        line += (f"; against: wall {_median(base, 'wall_s'):.3f} s "
                 f"({_ratio(runs, base, 'wall_s'):.3f}x), max RSS "
                 f"{_median(base, 'rss_mb'):.1f} MB ({_ratio(runs, base, 'rss_mb'):.3f}x)")
    print(line, flush=True)
    for label, side in (("this", runs), ("against", base)):
        if len({json.dumps(r["csv"], sort_keys=True) for r in side}) > 1:
            print(f"  {label}: CSVs differ between runs of one checkout")
            bad += 1
        bad += _problems(label, name, side)
    if other:
        for csv in sorted(set(runs[0]["csv"]) | set(base[0]["csv"])):
            mine_hash, their_hash = runs[0]["csv"].get(csv), base[0]["csv"].get(csv)
            if mine_hash is None or their_hash is None:
                verdict = "written by one checkout only"
            elif mine_hash == their_hash:
                verdict = "byte-identical"
            else:
                diff = _largest_relative_difference(done["this"][0][1][csv],
                                                    done["against"][0][1][csv])
                verdict = ("shape differs" if diff is None
                           else f"largest relative difference {diff:.3g}")
            print(f"  {csv}: {verdict}")
        print(f"  {_report_verdict(done['this'][0][2], done['against'][0][2])}")
    else:
        for csv, digest in runs[0]["csv"].items():
            print(f"  {csv}: sha256 {digest[:16]}")
    return runs, bad


if __name__ == "__main__":
    sys.exit(main())
