"""Command-line interface: spectrum | manifold | sweep | validate.

Every claim with checks runs as a config experiment through sweep; energy
conservation and the reverse Strichartz bounds, for instance, are
configs/energy.ini and configs/strichartz_{free,perturbed}.ini.

spectrum and manifold check their arguments as sweep checks a config (the
experiment spectrum and adot_l1, whose pipeline manifold shares), and
write SCHEMA.md beside their files.

Exit codes: 0 = all checks passed, 1 = at least one check failed,
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .experiments import (
    _KEYS,
    _SCHEMA,
    _STRIDE,
    ConfigError,
    ExperimentConfig,
    _csv,
    _diagnostics,
    _g_profile,
    _on_manifold,
    _write,
    family_field,
    run,
    seeded_query,
    validate,
)
from .grid import RadialField, l2_norm
from .modulation import make_query, picard_map, picard_transport
from .norms import TimeProfiles
from .spectral import _g_pairings, ground_state, spectrum_report, x_pm


def _add_grid_args(p, R=60.0, n=1201):
    p.add_argument("--R", type=float, default=R, help="outer radius")
    p.add_argument("--n", type=int, default=n, help="node count (rounded to odd)")
    p.add_argument("--R-obs", type=float, default=None, dest="R_obs")
    p.add_argument("--out", type=str, default="out", help="output directory")


def _checked(args, experiment, **kw):
    """The config of a CLI command's arguments, after the sweep's own validate.

    An issue about a key the command takes as a flag names the flag (--dt, not time.dt).
    """
    cfg = ExperimentConfig(experiment, R=args.R, n=args.n, R_obs=args.R_obs, **kw)
    issues = validate(cfg)
    for i, issue in enumerate(issues):
        key, _, text = issue.partition(": ")
        section, _, name = key.partition(".")
        attr = _KEYS.get(section, {}).get(name, ("",))[0]
        if attr and hasattr(args, attr):
            issues[i] = f"--{attr.replace('_', '-')}: {text}"
    if issues:
        raise ConfigError("; ".join(issues))
    return cfg


def _cmd_spectrum(args):
    if not 0 < args.a < np.inf:
        raise ConfigError(f"--a: soliton scale must be positive and finite, a={args.a}")
    grid = _checked(args, "spectrum").grid()
    S = ground_state(grid, a=args.a)
    rep = spectrum_report(S)
    _write(args.out, "spectrum.json", json.dumps(rep, indent=2, sort_keys=True))
    _write(args.out, "g_profile.csv", _csv(*_g_profile(S)))
    _write(args.out, "SCHEMA.md", _SCHEMA)
    print(json.dumps(rep, indent=2, sort_keys=True))
    return 0


def _cmd_manifold(args):
    if args.picard_iters < 1:
        raise ConfigError(f"--picard-iters: must be at least 1, got {args.picard_iters}")
    # adot_l1 runs the same shoot-then-extract pipeline, under the same checks
    cfg = _checked(args, "adot_l1", seed=args.seed, T=args.T, dt=args.dt, eps=args.eps)
    grid = cfg.grid()
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    if args.family == "pc_bump":
        query = seeded_query(grid, S, args.eps, args.seed)
    else:
        f = family_field(grid, args.family)
        query = make_query(
            S, RadialField(grid, args.eps * f.values / l2_norm(f)), grid.zeros()
        )
    out = {}
    if args.method in ("shoot", "both"):
        # the on-manifold run's radiation, block by block: its norms, x_pm and g-overlap
        profiles = TimeProfiles(grid, _STRIDE * dt)
        pairings = []

        def fold(rows, u, a, udot):
            profiles.add(u)
            pairings.append((*x_pm(u[:, 0], udot[:, 0], S), _g_pairings(u[:, 0], S)))

        (res,), (a,), (adot,) = _on_manifold(S, [query], args.T, dt, fold, tight=False, rates=True)
        out["shoot"] = {
            "h": res.h,
            "method": "shoot",
            "bracket_width": res.bracket_width,
            "tail_bound": None,
        }
        cols = (profiles.dt * np.arange(len(a)), a, adot, *map(np.concatenate, zip(*pairings)))
        _write(args.out, "trajectory.csv", _csv(zip(*cols), "t,a,adot,x_plus,x_minus,g_overlap"))
        (diags,) = _diagnostics(profiles, profiles.dt * (len(a) - 1))
        out["diagnostics"] = [asdict(d) for d in diags]
    if args.method in ("picard", "both"):
        transport = picard_transport(S, args.T, dt)
        it = picard_map(None, None, None, query, S, args.T, dt, transport)
        for _ in range(args.picard_iters - 1):
            it = picard_map(it.u, it.a, it.adot, query, S, args.T, dt, transport)
        out["picard"] = {
            "h": it.h,
            "method": "picard",
            "bracket_width": None,
            "tail_bound": it.tail_bound,
        }
    _write(args.out, "h_report.json", json.dumps(out, indent=2, sort_keys=True))
    _write(args.out, "SCHEMA.md", _SCHEMA)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args):
    config = ExperimentConfig.from_file(args.config)
    if args.out:
        config.output_dir = args.out
    report = run(config)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.value:.6g} {c.op} {c.threshold:.6g}")
    print(f"report: {os.path.join(config.output_dir, 'report.json')}")
    return 0 if report.passed else 1


def _cmd_validate(args):
    config = ExperimentConfig.from_file(args.config)
    issues = validate(config)
    for issue in issues:
        print(f"violation: {issue}")
    if not issues:
        print("config ok")
    return 0 if not issues else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="solmanifold",
        description="numerical laboratory for the soliton centre-stable manifold",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="ground state of the linearized operator")
    _add_grid_args(sp, R=20.0, n=1601)
    sp.add_argument("--a", type=float, default=1.0)
    sp.set_defaults(fn=_cmd_spectrum)

    mf = sub.add_parser("manifold", help="manifold offset by shooting and/or Picard")
    _add_grid_args(mf)
    mf.add_argument("--eps", type=float, default=1e-3)
    mf.add_argument("--family", type=str, default="pc_bump")
    mf.add_argument("--T", type=float, default=18.0)
    mf.add_argument("--dt", type=float, default=None)
    mf.add_argument("--method", type=str, default="shoot", choices=["shoot", "picard", "both"])
    mf.add_argument("--seed", type=int, default=0)
    mf.add_argument("--picard-iters", type=int, default=4, dest="picard_iters")
    mf.set_defaults(fn=_cmd_manifold)

    sw = sub.add_parser("sweep", help="run a config-driven experiment")
    sw.add_argument("--config", type=str, required=True)
    sw.add_argument("--out", type=str, default=None)
    sw.set_defaults(fn=_cmd_sweep)

    va = sub.add_parser("validate", help="static config checks")
    va.add_argument("--config", type=str, required=True)
    va.set_defaults(fn=_cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
