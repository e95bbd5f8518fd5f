"""The benchmark's four workloads: pinned acceptance configs and their oracles.

Each workload is one call of ``solmanifold.experiments.run`` on a pinned
acceptance configuration.  The benchmark seed goes only into ``config.seed``;
every other field is fixed here.  README.md gives the reason for each choice.
"""

from __future__ import annotations

WORKLOADS = {
    "dispersive": {
        "experiment": "strichartz_free",
        "seed": 11,
        "R": 80.0,
        "n": 1601,
        "R_obs": 20.0,
        "T": 40.0,
    },
    "manifold": {
        "experiment": "h_scaling",
        "seed": 5,
        # one process: on the 2-core reference VM, workers=4 measures the scheduler
        "workers": 1,
        "R": 60.0,
        "n": 1201,
        "R_obs": 20.0,
        "T": 18.0,
        "cfl": 0.8,
        "sweep": [1e-4, 2e-4, 4e-4, 8e-4],
    },
    "picard": {
        "experiment": "contraction",
        "seed": 3,
        "R": 40.0,
        "n": 801,
        "R_obs": 12.0,
        "T": 16.0,
        "cfl": 0.8,
        "sweep": [5e-4, 1e-3, 2e-3],
    },
    "long_evolution": {
        "experiment": "energy_conservation",
        "seed": 2,
        "R": 60.0,
        "n": 4801,
        "T": 50.0,
        "cfl": 0.8,
        "eps": 0.3,
    },
}

# Workloads that ignore the benchmark seed.  Criterion 3's drift threshold
# (1e-4) is met at the pinned seed 2 (drift 9.2e-5) but not for every seeded
# bump centre: seed 3 (centre 1.586) gives 1.0046e-4.  The benchmark keeps
# the pinned acceptance config here; README.md records the finding.
FIXED_SEED = {"long_evolution"}

# experiments whose runner calls spectral.ground_state on the config grid;
# their set-up includes that eigensolve
SPECTRAL = {"strichartz_free", "h_scaling", "contraction"}


def config_for(name, seed=None, overrides=None):
    """Config dict of a workload; ``seed`` replaces only ``config.seed``."""
    cfg = dict(WORKLOADS[name])
    cfg.update(overrides or {})
    if seed is not None and name not in FIXED_SEED:
        cfg["seed"] = int(seed)
    return cfg


def sizes(cfg, sm):
    """Grid size n, step count M and step dt of every evolution grid the run uses."""
    grid = sm.RadialGrid(R=cfg.R, n=cfg.n, R_obs=cfg.R_obs)
    exp = cfg.experiment
    if exp == "strichartz_free":
        # exact transport at dt = dr on the config grid and its refinement
        T = min(cfg.T, grid.budget_horizon())
        grids = [grid, sm.RadialGrid(R=cfg.R, n=2 * cfg.n - 1, R_obs=grid.R_obs)]
        return [_size(g.n, T, g.dr) for g in grids]
    if exp == "energy_conservation":
        T = max(cfg.T, 50.0)
        grids = [sm.RadialGrid(R=cfg.R, n=nn) for nn in (cfg.n, 2 * cfg.n - 1)]
        return [_size(g.n, T, cfg.cfl * g.dr) for g in grids]
    T = cfg.T if exp == "h_scaling" else min(cfg.T, grid.budget_horizon())
    return [_size(grid.n, T, cfg.timestep(grid))]


def _size(n, T, dt):
    return {"n": n, "M": int(round(T / dt)), "dt": dt}


def oracle(report):
    """The workload's oracle readout from an ExperimentReport.

    strichartz_free: largest family-variation ratio (threshold 2);
    h_scaling: largest h_diff / (1e-3 eps^2) (threshold 1);
    contraction: the contraction ratios (threshold 1);
    energy_conservation: relative energy drift (threshold 1e-4).
    """
    exp = report.experiment
    records = [r for r in report.records if "error" not in r]
    if exp == "strichartz_free":
        ratios = [f["ratio"] for f in report.fits.values()]
        return {"max_family_variation": max(ratios) if ratios else None}
    if exp == "h_scaling":
        scaled = [r["h_diff"] / (1e-3 * r["eps"] ** 2) for r in records]
        return {"max_h_diff_over_1e-3_eps2": max(scaled) if scaled else None}
    if exp == "contraction":
        return {"contraction_ratios": [r["contraction_ratio"] for r in records]}
    if exp == "energy_conservation":
        return {
            "relative_drift": [r["drift_coarse"] for r in records],
            "relative_drift_refined": [r["drift_fine"] for r in records],
        }
    return {}
