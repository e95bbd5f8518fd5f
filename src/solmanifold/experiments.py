"""Declarative experiment runner: config ingestion, sweeps, reports, plots.

Each experiment reproduces one testable claim at desk scale and emits CSV
records, a JSON report with explicit pass/fail thresholds, and a gnuplot
script referencing the CSVs.  Identical (config, seed) pairs produce
byte-identical CSV bodies.  Of the CSVs only contraction.csv depends on the
BLAS thread count (its Duhamel kernel is made by 32-row matrix products);
every other product pairs one row at a time.
"""

from __future__ import annotations

import configparser
import json
import operator
import os
import traceback
from dataclasses import dataclass, field, asdict
from types import SimpleNamespace

import numpy as np

from . import soliton
from .grid import (
    GridUsageError,
    RadialField,
    RadialGrid,
    h1_seminorm,
    inner_product,
    l2_norm,
    laplacian,
    pair_w,
    weighted_norm,
)
from .modulation import (
    BracketError,
    LeftModulationWindow,
    _fixed_point_hs,
    _manifold_passes,
    evolve_nonlinear,
    make_query,
    picard_map,
    picard_transport,
    shoot_h,
    x_norm,
)
from .norms import NormReport, TimeProfiles, energy, lorentz_norm
from .propagators import (
    PropagatorError,
    _resonance_series,
    _secular_coefficients,
    free_cosine_traj,
    free_sine_traj,
    secular_decomposition_C,
    secular_decomposition_S,
)
from .spectral import SpectralError, ground_state, resonance_pairing, spectrum_report

def _floats(text):
    return tuple(float(v) for v in text.replace(",", " ").split())


# INI section -> key -> (ExperimentConfig field, conversion); the one table
# behind both the unknown-key check and the parsing
_KEYS = {
    "experiment": {"name": ("experiment", str), "seed": ("seed", int)},
    "grid": {"R": ("R", float), "n": ("n", int), "R_obs": ("R_obs", float)},
    "time": {"T": ("T", float), "dt": ("dt", float), "cfl": ("cfl", float)},
    "data": {"eps": ("eps", float)},
    "sweep": {"values": ("sweep", _floats)},
    "output": {"dir": ("output_dir", str)},
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    # every run takes one process; the field stays only for callers that
    # still pass workers=1 (perfbench/workloads.py), and validate refuses
    # any other value
    workers: int = 1
    R: float = 60.0
    n: int = 1201
    R_obs: float = None
    T: float = 18.0
    dt: float = None
    cfl: float = 0.8
    eps: float = 1e-3
    sweep: tuple = ()
    output_dir: str = "out"

    def grid(self):
        return RadialGrid(R=self.R, n=self.n, R_obs=self.R_obs)

    def timestep(self, grid):
        return self.dt if self.dt is not None else self.cfl * grid.dr

    @staticmethod
    def from_file(path):
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case sensitive (R vs r)
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise ConfigError(str(exc)) from exc
        kw = {}
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser[section].items():
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                attr, conv = _KEYS[section][key]
                try:
                    kw[attr] = conv(value)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
        if "experiment" not in kw:
            raise ConfigError("missing experiment.name")
        return ExperimentConfig(**kw)


def validate(config):
    """Static checks; a nonempty list of violations means the config won't run."""
    issues = []
    if config.experiment not in _RUNNERS:
        issues.append(f"experiment.name: unknown experiment {config.experiment!r}")
    if config.seed < 0:
        issues.append(f"experiment.seed: seed must be non-negative, seed={config.seed}")
    if config.workers != 1:
        issues.append(f"workers: every run takes one process, workers={config.workers}")
    try:
        grid = config.grid()
    except ValueError as exc:
        issues.append(f"grid: {exc}")
        return issues
    dt = config.timestep(grid)
    if not dt > 0:
        key = "time.cfl" if config.dt is None else "time.dt"
        issues.append(f"{key}: time step must be positive, dt={dt}")
    elif dt > grid.dr + 1e-12:
        issues.append(f"time.dt: CFL violation dt={dt} > dr={grid.dr}")
    if not 0 < config.T < np.inf:
        issues.append(f"time.T: horizon must be positive and finite, T={config.T}")
    if config.T > grid.budget_horizon() + 1e-12 and config.experiment not in (
        "spectrum",
        "stationarity",
        "energy_conservation",
    ):
        issues.append(
            f"time.T: causality budget violated, T={config.T} > R - R_obs = {grid.budget_horizon()}"
        )
    stride = _ON_MANIFOLD_STRIDE.get(config.experiment)
    if stride and dt > 0 and 0 < config.T < np.inf and int(round((config.T - _TRIM) / dt)) < stride:
        issues.append(
            f"time.T: the on-manifold run ends {_TRIM:g} before T and needs at least "
            f"{stride} step(s) of dt={dt:g}, T={config.T}"
        )
    if not 0 < config.eps < np.inf:
        issues.append(f"data.eps: amplitude must be positive and finite, eps={config.eps}")
    if config.experiment in ("h_scaling", "lipschitz", "contraction") and not config.sweep:
        issues.append("sweep.values: sweep must be nonempty")
    elif config.experiment in _COMPARES_SWEEP and len(config.sweep) and len(set(config.sweep)) < 2:
        issues.append(f"sweep.values: {config.experiment} compares its sweep points and needs "
                      f"at least two distinct values, got {list(config.sweep)}")
    if config.experiment == "secular" and max(_SECULAR_HORIZONS) > grid.budget_horizon():
        issues.append(f"grid: secular needs R - R_obs >= {max(_SECULAR_HORIZONS):g} "
                      f"(horizons {', '.join(f'{h:g}' for h in _SECULAR_HORIZONS)}), "
                      f"R - R_obs = {grid.budget_horizon():g}")
    bad = [v for v in config.sweep if not 0 < v < np.inf]
    if bad:
        issues.append(f"sweep.values: values must be positive and finite, got {bad}")
    return issues


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    op: str  # "<" or ">"
    passed: bool


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    records: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add_check(self, name, value, threshold, op="<"):
        ok = value < threshold if op == "<" else value > threshold
        self.checks.append(Check(name, float(value), float(threshold), op, bool(ok)))
        return ok

    def to_json(self):
        return json.dumps(
            {
                "experiment": self.experiment,
                "config": self.config,
                "records": self.records,
                "fits": self.fits,
                "checks": [asdict(c) for c in self.checks],
                "passed": self.passed,
            },
            indent=2,
            sort_keys=True,
        )


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    # a fresh file: truncating and rewriting an existing one can stall on
    # the flush some file systems (ext4) force when it is closed
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _csv(rows, header):
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _g_profile(S):
    """Rows and header of g_profile.csv: the ground state g on its grid."""
    return zip(S.grid.r, S.g.values), "r,value"


def _loglog_fit(x, y):
    """Least-squares slope of log y vs log x with its standard error (None: two points)."""
    lx, ly = np.log(np.asarray(x)), np.log(np.abs(np.asarray(y)))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    n = len(lx)
    stderr = None
    if n > 2 and np.size(res):
        sigma2 = float(res[0]) / (n - 2)
        cov = sigma2 * np.linalg.inv(A.T @ A)
        stderr = float(np.sqrt(cov[0, 0]))
    return float(coef[0]), float(coef[1]), stderr


def _emit(outdir, name, rows, header, xlabel, ylabel, logscale=False):
    """Write name.csv from rows and name.gp, which plots its columns 1:2."""
    _write(outdir, f"{name}.csv", _csv(rows, header))
    lines = [
        f"# gnuplot script for {name}",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set datafile separator ','",
        "set key top left",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines.append(f"plot '{name}.csv' using 1:2 skip 1 with linespoints title '{name}'")
    _write(outdir, f"{name}.gp", "\n".join(lines) + "\n")


# ----------------------------------------------------------------------------
# data families


def bump_field(grid, center, width):
    return grid.field(np.exp(-((grid.r - center) ** 2) / width**2))


def family_field(grid, family):
    r = grid.r
    if family == "ball":
        return grid.field((r <= 1.0).astype(float))
    if family == "bump":
        return bump_field(grid, 2.0, 1.0)
    if family == "phi5":
        return grid.field(soliton.phi(r, 1.0) ** 5)
    if family == "vdphi_bump":
        # resonance-aligned: the potential-weighted resonance profile
        return grid.field(soliton.resonance_weight(r))
    raise ConfigError(f"unknown data family {family!r}")


# SeedSequence's hash constants, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seeded_uniform(seed):
    """uniform(lo, hi), the draws of numpy's default_rng(seed).uniform, bit for bit.

    default_rng(seed) is PCG64 (O'Neill, HMC-CS-2014-0905) seeded by
    SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit words
    are hashed into a pool of four (hashmix and mix, the words past the
    fourth mixed in last), and the pool into four 64-bit words, the initial
    state and the stream.  A draw is one 128-bit LCG step and its XSL-RR
    output x; uniform(lo, hi) is lo + (hi - lo) (x >> 11) 2^-53.  Owning
    the draw keeps numpy.random out of a run and the pinned seeds off the
    Generator, whose methods NEP 19 leaves free to change.  A negative
    seed raises ValueError, as SeedSequence does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, seed={seed}")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _M32
        return x ^ x >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _M32
        value = value * hash_b & _M32
        state.append(value ^ value >> 16)
    w64 = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
    inc = ((w64[2] << 64 | w64[3]) << 1 | 1) & _M128
    # state 0, one step (to inc), the initial state added, one step
    pcg = ((inc + (w64[0] << 64 | w64[1])) * _PCG_MULT + inc) & _M128

    def uniform(lo, hi):
        nonlocal pcg
        pcg = (pcg * _PCG_MULT + inc) & _M128
        value, rot = (pcg >> 64 ^ pcg) & _M64, pcg >> 122
        x = (value >> rot | value << (64 - rot)) & _M64
        return lo + (hi - lo) * ((x >> 11) * 2.0**-53)

    return uniform


def seeded_bumps(grid, seed, count):
    """Deterministic family of smooth radial bumps for constant sweeps."""
    uniform = _seeded_uniform(seed)
    # centre first, then width: the order the seeded draws are pinned in
    return [bump_field(grid, uniform(0.0, 3.5), uniform(0.7, 2.0)) for _ in range(count)]


def seeded_query(grid, S, eps, seed):
    """Perturbation pair for manifold studies: seeded mix of two bumps."""
    uniform = _seeded_uniform(seed)
    c1, w1 = uniform(1.0, 3.0), uniform(0.8, 1.5)
    c2, w2 = uniform(0.0, 2.0), uniform(0.8, 1.5)
    mix = uniform(0.2, 0.8)
    b = mix * np.exp(-((grid.r - c1) ** 2) / w1**2) + (1 - mix) * np.exp(
        -((grid.r - c2) ** 2) / w2**2
    )
    f = grid.field(b)
    nb = np.sqrt(inner_product(f, f))
    return make_query(S, grid.field(eps * b / nb), grid.zeros())


# ----------------------------------------------------------------------------
# experiment implementations


def _run_spectrum(cfg, outdir, report):
    grid = cfg.grid()
    S = ground_state(grid)
    rep = spectrum_report(S)
    # R-doubling at the same dr
    grid2 = RadialGrid(R=2 * grid.R, n=2 * grid.n - 1)
    S2 = ground_state(grid2)
    # dr-halving for Richardson and the overlap refinement
    gridh = RadialGrid(R=grid.R, n=2 * grid.n - 1)
    Sh = ground_state(gridh)
    k_rich1 = Sh.k + (Sh.k - S.k) / 3.0
    # scaling law at a = 4 with its own dr pair
    S4 = ground_state(grid, a=4.0)
    S4h = ground_state(gridh, a=4.0)
    k_rich4 = S4h.k + (S4h.k - S4.k) / 3.0

    rep.update(
        {
            "k_Rdoubled": S2.k,
            "k_drhalved": Sh.k,
            "k_richardson": k_rich1,
            "k4_richardson": k_rich4,
            "overlap_drhalved": Sh.overlap_g_resonance,
        }
    )
    report.records.append(rep)
    report.add_check("k_stable_under_R_doubling", abs(S2.k - S.k), 1e-8)
    report.add_check("eigen_residual", S.residual, 1e-6)
    report.add_check("overlap_g_daPhi", abs(S.overlap_g_resonance), 1e-4)
    report.add_check(
        "overlap_decreases",
        abs(Sh.overlap_g_resonance) / max(abs(S.overlap_g_resonance), 1e-300),
        1.0,
    )
    report.add_check("negative_count_is_one", abs(S.negative_count - 1), 0.5)
    report.add_check("scaling_k4_eq_2k1", abs(k_rich4 - 2.0 * k_rich1), 1e-4)
    _emit(outdir, "g_profile", *_g_profile(S), "r", "g(r)")
    _write(outdir, "spectrum.json", json.dumps(rep, indent=2, sort_keys=True))


def _completed(run, T):
    """run itself; PropagatorError unless it reached its horizon T."""
    if run.status != "completed":
        raise PropagatorError(f"nonlinear run ended {run.status!r} at "
                              f"t={run.departure_time:.6g} of T={T}")
    return run


def _continuous_part(f, S):
    """P_c f = f - (<f, g>_w / <g, g>_w) g, in the scheme pairing."""
    return f.grid.field(f.values - (pair_w(f, S.g) / S.gg_w) * S.g.values)


def _run_stationarity(cfg, outdir, report):
    grid = cfg.grid()
    # PDE residual refinement
    resids = []
    for nn in (cfg.n, 2 * cfg.n - 1):
        gg = RadialGrid(R=cfg.R, n=nn)
        phi_f = soliton.phi_field(gg)
        res = laplacian(phi_f).values + phi_f.values**5
        half = gg.r <= gg.R / 2
        resids.append(float(np.max(np.abs(res[half]))))
    ratio = resids[0] / resids[1]
    pairing = resonance_pairing(grid)
    truth = np.pi * 3.0**0.25
    # stationary evolution
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    phi_f = soliton.phi_field(grid)
    drifts = []

    def h1_drift(j, psi, psi_t):
        drifts.append(h1_seminorm(psi - phi_f, radius=grid.R_obs))

    T = min(cfg.T, 20.0)
    run = evolve_nonlinear(phi_f, grid.zeros(), T, dt, S=S, stride=25, consume=h1_drift)
    _completed(run, T)
    drift = max(drifts)
    report.records.append(
        {
            "residual_coarse": resids[0],
            "residual_fine": resids[1],
            "refinement_ratio": ratio,
            "pairing_VdaPhi": pairing,
            "pairing_rel_err": abs(pairing - truth) / truth,
            "stationary_drift_H1": drift,
        }
    )
    report.add_check("residual_refinement_ratio", ratio, 3.0, op=">")
    report.add_check("residual_refinement_ratio_upper", ratio, 5.5)
    report.add_check("pairing_VdaPhi_rel_err", abs(pairing - truth) / truth, 1e-4)
    report.add_check("stationary_drift", drift, (grid.dr**2) * 10 + 1e-12)
    rows = [(grid.dr, resids[0]), (grid.dr / 2, resids[1])]
    _emit(outdir, "stationarity", rows, "dr,pde_residual_max", "dr", "residual", logscale=True)


def _energy_drift(R, n, T, cfl, amp, seed):
    """Energy drift along a dispersive (soliton-free) solution over [0, T].

    Any generic near-soliton state departs along the unstable mode by
    t ~ 18 in double precision, so the long-horizon conservation check
    runs in the globally bounded small-data regime instead; with Dirichlet
    walls the energy on the full ball is conserved exactly in the
    continuum.  Each snapshot is reduced to its energy as the run makes it,
    so no trajectory is stored.  The first and the last snapshot, whose
    rates are one-sided, are left out.  A run that does not complete
    raises PropagatorError.
    """
    grid = RadialGrid(R=R, n=n)
    dt = cfl * grid.dr
    b = bump_field(grid, _seeded_uniform(seed)(1.5, 2.5), 1.0)
    psi0 = RadialField(grid, amp * b.values)
    E = []
    held = []

    def reduce(j, psi, psi_t):
        # snapshot j - 1 is reduced once snapshot j arrives, so the last one never is
        if j >= 2:
            E.append(energy(*held))
        held[:] = psi, psi_t

    _completed(evolve_nonlinear(psi0, grid.zeros(), T, dt, stride=10, consume=reduce), T)
    E0 = E[0]
    drift = max(abs(e - E0) for e in E) / abs(E0)
    return drift, E0


def _run_energy(cfg, outdir, report):
    T = max(cfg.T, 50.0)
    amp = cfg.eps  # dispersive-pulse amplitude; see _energy_drift
    rows = []
    drifts = []
    for nn in (cfg.n, 2 * cfg.n - 1):
        drift, E0 = _energy_drift(cfg.R, nn, T, cfg.cfl, amp, cfg.seed)
        drifts.append(drift)
        rows.append((cfg.R / (nn - 1) * cfg.cfl, drift))
    report.records.append(
        {"drift_coarse": drifts[0], "drift_fine": drifts[1], "T": T, "E0": E0}
    )
    report.add_check("relative_drift", drifts[0], 1e-4)
    report.add_check("drift_refinement_ratio", drifts[0] / drifts[1], 2.5, op=">")
    _emit(outdir, "energy_drift", rows, "dt,relative_drift", "dt", "drift", logscale=True)


def _strichartz_constants(grid, dt, T, members, mode):
    """Per-member reverse-Strichartz ratios for sine and cosine evolutions.

    Each member is evolved once by the sine and once by the cosine
    propagator of the mode (free transport, or the dispersive part of the
    perturbed evolution); every mixed norm is 1-homogeneous in the data, so
    dividing it by the member's L2, H1 or L^{3/2,1} size gives the constant
    of the normalised member.  The norms read only the observation ball:
    each evolution streams the rows of its nodes, block by block, into a
    TimeProfiles per kind, and no trajectory is stored.  The free mode
    evolves one member at a time, into profiles of its own.  The perturbed
    mode solves for the ground state of grid, replaces each member f by its
    continuous part, makes all sine series from one transport of q and
    hands them to one split of all members as one sine stack, which
    streams into one TimeProfiles of all their rows, then does the same for
    the cosine kind (see _secular_decomposition), so no transport is held
    through a split.
    """

    def mixed(s, c):  # the five mixed norms of the ratios, of one member or of all
        return (s.norm(("lorentz", 6, 2), "Linf_t"), s.norm("Linf_x", "L2_t"),
                c.norm(("lorentz", 6, 2), "Linf_t"), c.norm("Linf_x", "L2_t"),
                s.norm("Linf_x", "L1_t"))

    def ratios(i, f, n):
        l2, h1, l321 = l2_norm(f), h1_seminorm(f), lorentz_norm(f, 1.5, 1)
        return (i, n[0] / l2, n[1] / l2, n[2] / h1, n[3] / h1, n[4] / l321)

    if mode == "free":
        rows = []
        for i, f in enumerate(members):
            s, c = TimeProfiles(grid, dt), TimeProfiles(grid, dt)
            free_sine_traj(f, T, dt, profiles=s)
            free_cosine_traj(f, T, dt, profiles=c)
            rows.append(ratios(i, f, mixed(s, c)))
        return rows
    S = ground_state(grid)
    # the split evolves P_c f, and builds its secular side from the f it is
    # given: each member is projected once, and measured as projected
    members = [_continuous_part(f, S) for f in members]
    s, c = TimeProfiles(grid, dt), TimeProfiles(grid, dt)
    series = _resonance_series(grid, S.a, T, dt, "sine", members)
    secular_decomposition_S(members, T, dt, S, series=series, profiles=s)
    series = _resonance_series(grid, S.a, T, dt, "cosine", members)
    secular_decomposition_C(members, T, dt, S, series=series, profiles=c)
    return [ratios(i, f, n) for i, (f, n) in enumerate(zip(members, zip(*mixed(s, c))))]


def _run_strichartz(cfg, outdir, report, mode):
    grid = cfg.grid()
    dt = grid.dr  # exact transport for the free pieces
    T = min(cfg.T, grid.budget_horizon())
    members = seeded_bumps(grid, cfg.seed, 20)
    rows = _strichartz_constants(grid, dt, T, members, mode)
    cols = list(zip(*rows))
    names = ("sine_L62Linf_over_L2", "sine_LinfL2_over_L2",
             "cos_L62Linf_over_H1", "cos_LinfL2_over_H1",
             "sine_LinfL1_over_L321")
    fits = {}
    # the free-lemma constants are family-stable within x2; the perturbed
    # remainders vary more with how strongly a bump couples to the potential
    # well, so only uniform boundedness is demanded there
    fam_tol = 2.0 if mode == "free" else 8.0
    for name, vals in zip(names, cols[1:]):
        vals = np.array(vals)
        fits[name] = {"sup": float(vals.max()), "ratio": float(vals.max() / vals.min())}
        report.add_check(f"{name}_family_variation", vals.max() / vals.min(), fam_tol)
        report.add_check(f"{name}_finite", float(vals.max()), 1e6)
    # resolution stability on a refined grid
    grid2 = RadialGrid(R=cfg.R, n=2 * cfg.n - 1, R_obs=grid.R_obs)
    members2 = seeded_bumps(grid2, cfg.seed, 20)
    rows2 = _strichartz_constants(grid2, grid2.dr, T, members2, mode)
    cols2 = list(zip(*rows2))
    for name, v1, v2 in zip(names, cols[1:], cols2[1:]):
        ratio = max(np.array(v2)) / max(np.array(v1))
        fits[name]["resolution_ratio"] = float(ratio)
        report.add_check(
            f"{name}_resolution_variation", max(ratio, 1.0 / ratio), 2.0
        )
    report.fits.update(fits)
    report.records.extend(
        {"member": r[0], **{nm: v for nm, v in zip(names, r[1:])}} for r in rows
    )
    _emit(outdir, f"strichartz_{mode}", rows, "member," + ",".join(names), "member", "constant")


# the horizons _run_secular reads its norms at; validate requires R - R_obs >= the last
_SECULAR_HORIZONS = (25.0, 50.0, 100.0)


def _run_secular(cfg, outdir, report):
    grid = cfg.grid()
    dt = grid.dr
    S = ground_state(grid)
    # split as the split is documented: continuous-spectrum data
    f = _continuous_part(family_field(grid, "vdphi_bump"), S)
    horizons, stride = _SECULAR_HORIZONS, 2
    series = _resonance_series(grid, S.a, max(horizons), dt, "sine", [f])
    coeff = _secular_coefficients(series, dt, S, stride)[0]
    # one pass: the ball's dispersive rows and full rows (plus the rank-one
    # secular part) feed one TimeProfiles each, cut at the horizon rows so
    # that each horizon's norms are read as its row arrives
    dispersive, full = TimeProfiles(grid, stride * dt), TimeProfiles(grid, stride * dt)
    resonance = S.resonance.values[: full.inside.stop]
    ends = [int(round(T / (stride * dt))) + 1 for T in horizons]  # rows fed at each horizon
    rows = []
    fed = 0

    def add(block):  # (rows, 1, cols) dispersive rows of the one field
        nonlocal fed
        block = block[:, 0, : len(resonance)]
        for part in np.split(block, [e - fed for e in ends if fed < e < fed + len(block)]):
            dispersive.add(part)
            full.add(coeff[fed : fed + len(part), None] * resonance + part)
            fed += len(part)
            if fed in ends:
                rows.append((horizons[len(rows)], dispersive.norm("Linf_x", "L2_t"),
                             full.norm("Linf_x", "L1_t")))

    sink = SimpleNamespace(inside=full.inside, add=add)
    secular_decomposition_S([f], max(horizons), dt, S, series, sink, stride=stride)
    _, s_norms, full_l1 = zip(*rows)
    slope, _, stderr = _loglog_fit(horizons, full_l1)
    report.fits["secular_growth_exponent"] = {"slope": slope, "stderr": stderr}
    report.records.extend(
        {"T": T, "S_LinfL2": a, "full_LinfL1": b} for (T, a, b) in rows
    )
    report.add_check("S_bounded_variation", max(s_norms) / min(s_norms), 1.5)
    report.add_check("full_growth_exponent_low", slope, 0.85, op=">")
    report.add_check("full_growth_exponent_high", slope, 1.15)
    _emit(outdir, "secular", rows, "T,S_LinfL2,full_LinfL1", "T", "norm", logscale=True)


def _run_pairing_identity(cfg, outdir, report):
    grid = cfg.grid()
    dt = grid.dr
    T = grid.R / 2.0
    psi1 = family_field(grid, "phi5")
    M = int(round(T / dt))
    # <sine-free(psi1)(t), V dphi> (V dphi = Delta dphi_da), paired on the q side
    series = _resonance_series(grid, 1.0, T, dt, "sine", [psi1])[0]
    lhs = float(np.trapezoid(series, dx=dt))
    rhs = -inner_product(soliton.dphi_da_field(grid), psi1)
    scale = float(np.trapezoid(np.abs(series), dx=dt))
    rows = [((m * dt), float(np.trapezoid(series[: m + 1], dx=dt))) for m in range(0, M + 1, max(1, M // 200))]
    report.records.append(
        {"lhs_at_T": lhs, "rhs": rhs, "abs_mass_scale": scale, "T": T}
    )
    report.add_check("pairing_identity_rel_to_mass", abs(lhs - rhs) / scale, 0.01)
    _emit(outdir, "pairing_identity", rows, "T,integral", "T", "integral")


# on-manifold runs stop this long before the shooting horizon: the final
# shooting bracket leaves a growing amplitude ~ width * e^{kT} at its end
_TRIM = 4.0
# the snapshot stride of the on-manifold runs adot_l1, lipschitz and the CLI read
_STRIDE = 5
# the stride of each experiment's on-manifold run: its readers need two
# snapshots (np.gradient of the scales), so a run must make at least one
# stride of steps
_ON_MANIFOLD_STRIDE = {"h_scaling": 1, "adot_l1": _STRIDE, "lipschitz": _STRIDE}
# the experiments whose checks compare their sweep points (a slope, a ratio
# of largest to smallest, an ordering): a sweep of one distinct value would
# pass or fail them vacuously
_COMPARES_SWEEP = ("h_scaling", "lipschitz", "contraction", "adot_l1")


def _run_h_scaling(cfg, outdir, report):
    grid = cfg.grid()
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    queries = [seeded_query(grid, S, e, cfg.seed) for e in cfg.sweep]
    shots = [shoot_h(q, S, cfg.T, dt) for q in queries]
    # fixed-point h of every on-manifold run, trimmed by _TRIM (the truncated
    # tail of the h integral is e^{-k(T-4)}-small), from two streamed passes
    # over all the points at once: no run is stored
    fixed = _fixed_point_hs(queries, [res.h for res in shots], S, cfg.T - _TRIM, dt)
    results = [
        {
            "eps_nominal": eps,
            "eps": query.epsilon,
            "h_shoot": res.h,
            "h_fixed_point": hfp,
            "h_diff": abs(hfp - res.h),
            "bracket_width": res.bracket_width,
            "shoot_runs": len(res.trace),
            "tail_bound": tail,
        }
        for eps, query, res, (hfp, tail) in zip(cfg.sweep, queries, shots, fixed)
    ]
    report.records.extend(results)
    eps = [r["eps"] for r in results]
    hs = [abs(r["h_shoot"]) for r in results]
    slope, _, stderr = _loglog_fit(eps, hs)
    report.fits["h_scaling"] = {"slope": slope, "stderr": stderr}
    report.add_check("h_loglog_slope_low", slope, 1.9, op=">")
    report.add_check("h_loglog_slope_high", slope, 2.1)
    for r in results:
        report.add_check(
            f"h_agreement_eps_{r['eps_nominal']:g}",
            r["h_diff"],
            1e-3 * r["eps"] ** 2,
        )
    rows = [(r["eps"], abs(r["h_shoot"]), abs(r["h_fixed_point"])) for r in results]
    header = "eps,abs_h_shoot,abs_h_fixed_point"
    _emit(outdir, "h_scaling", rows, header, "eps", "|h|", logscale=True)


def _run_codim1(cfg, outdir, report):
    grid = cfg.grid()
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    query = seeded_query(grid, S, cfg.eps, cfg.seed)
    res = shoot_h(query, S, cfg.T, dt)
    rows = []
    signs = {}
    for offset in (+1e-6, -1e-6):
        psi0, psi1 = query.initial_data(S, res.h + offset)
        run = evolve_nonlinear(psi0, psi1, cfg.T, dt, S=S, overlap_cap=0.1)
        ov = run.g_overlap
        t = run.times_dense
        window = (np.abs(ov) > 10 * abs(offset)) & (np.abs(ov) < 0.05)
        if np.count_nonzero(window) < 2:
            raise BracketError(f"offset {offset:+.0e}: the departure window 10|offset| < |ov| < "
                               f"0.05 holds {np.count_nonzero(window)} step(s); horizon "
                               f"T={cfg.T} too short to classify the offsets")
        rate = np.polyfit(t[window], np.log(np.abs(ov[window])), 1)[0]
        signs[offset] = float(np.sign(ov[-1]))
        rows.append((offset, rate, signs[offset]))
        report.records.append(
            {
                "offset": offset,
                "rate": float(rate),
                "rate_rel_err": float(abs(rate - S.k) / S.k),
                "exit_sign": signs[offset],
                "status": run.status,
            }
        )
        report.add_check(
            f"departure_rate_offset_{offset:+.0e}", abs(rate - S.k) / S.k, 0.02
        )
    report.add_check(
        "opposite_exit_signs", -(signs[1e-6] * signs[-1e-6]), 0.0, op=">"
    )
    _emit(outdir, "codim1", rows, "offset,rate,exit_sign", "offset", "rate")


def _tight_tol(query):
    # tighter-than-default bracket: the residual growing amplitude
    # (~ tol * e^{kT}) must stay below the smallest trajectory differences
    # measured downstream
    return 1e-15 * max(query.epsilon, 1e-6)


def _on_manifold(S, queries, T, dt, fold, tight=True, rates=False):
    """(shots, a, adot): shoot each query, then read the runs from the shot h by _manifold_passes.

    Each bracket closes at _tight_tol (tight) or at shoot_h's tolerance;
    the runs end _TRIM before T and are read every _STRIDE steps.
    """
    shots = [shoot_h(q, S, T, dt, tol=_tight_tol(q) if tight else None) for q in queries]
    a, adot = _manifold_passes(queries, [res.h for res in shots], S, T - _TRIM, dt, fold,
                               stride=_STRIDE, rates=rates)
    return shots, a, adot


# the mixed norms of the radiation u of an on-manifold run that adot_l1 and
# the CLI's manifold report: (kind, outer, inner)
_DIAGNOSTICS = (("L62x_Linf_t", ("lorentz", 6, 2), "Linf_t"), ("Linf_x_L2_t", "Linf_x", "L2_t"))


def _diagnostics(profiles, horizon):
    """[[NormReport of each kind] per trajectory] of the rows of K trajectories in profiles."""
    grid = profiles.grid
    values = [profiles.norm(outer, inner) for _, outer, inner in _DIAGNOSTICS]
    return [
        [NormReport(kind=kind, value=v, R=grid.R, R_obs=grid.R_obs, n=grid.n, dt=profiles.dt,
                    T=horizon) for (kind, _, _), v in zip(_DIAGNOSTICS, point)]
        for point in zip(*values)
    ]


def _run_adot_l1(cfg, outdir, report):
    grid = cfg.grid()
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    sweep = cfg.sweep or (1e-3, 3e-3, 1e-2)
    queries = [seeded_query(grid, S, e, cfg.seed) for e in sweep]
    # one TimeProfiles of the radiation of all the sweep's runs
    profiles = TimeProfiles(grid, _STRIDE * dt)
    _, a, adot = _on_manifold(S, queries, cfg.T, dt, lambda rows, u, a, udot: profiles.add(u))
    diagnostics = _diagnostics(profiles, profiles.dt * (a.shape[1] - 1))
    rows = []
    consts = []
    for query, rate, diags in zip(queries, adot, diagnostics):
        adot_l1 = float(np.sum(np.abs(rate)) * profiles.dt)
        mixed = max(d.value for d in diags)
        consts.append(mixed / query.epsilon)
        rows.append((query.epsilon, adot_l1, mixed, adot_l1 / query.epsilon))
        report.records.append(
            {"eps": query.epsilon, "adot_l1": adot_l1, "mixed_norm": mixed}
        )
    ratios = [r[3] for r in rows]
    report.fits["adot_l1_over_eps"] = {"values": ratios}
    report.add_check("adot_l1_constant_stable", max(ratios) / max(min(ratios), 1e-300), 3.0)
    report.add_check("mixed_norm_constant_stable", max(consts) / min(consts), 3.0)
    # consistency of the two adot routes on the last trajectory
    tv = float(np.sum(np.abs(np.diff(a[-1]))))
    report.add_check(
        "extraction_vs_condition_tv",
        abs(tv - rows[-1][1]) / max(rows[-1][1], 1e-300),
        0.05,
    )
    header = "eps,adot_l1,mixed_norm,adot_l1_over_eps"
    _emit(outdir, "adot_l1", rows, header, "eps", "adot L1", logscale=True)


def _run_lipschitz(cfg, outdir, report):
    grid = cfg.grid()
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    base = seeded_query(grid, S, cfg.eps, cfg.seed)
    bump = bump_field(grid, 1.5, 1.2)
    size = l2_norm(bump)
    others = [
        make_query(S, RadialField(grid, base.psi0_perturbation.values + d * bump.values / size),
                   grid.zeros())
        for d in cfg.sweep
    ]
    # the base run is row 0 of the stack; the radiation of each other run,
    # less the base run's, feeds one TimeProfiles
    diffs = TimeProfiles(grid, _STRIDE * dt)
    cols = diffs.inside.stop

    def fold(rows, u, a, udot):
        diffs.add(u[:, 1:, :cols] - u[:, :1, :cols])

    (res0, *shots), _, _ = _on_manifold(S, [base] + others, cfg.T, dt, fold)
    dnorms = diffs.norm(("lorentz", 6, 2), "Linf_t")
    rows = []
    consts = []
    for other, res1, dnorm in zip(others, shots, dnorms):
        dist = h1_seminorm(other.psi0_perturbation - base.psi0_perturbation)
        consts.append(dnorm / dist)
        rows.append((dist, dnorm, dnorm / dist, abs(res1.h - res0.h)))
        report.records.append(
            {"delta": dist, "traj_distance": dnorm, "h_shift": abs(res1.h - res0.h)}
        )
    report.fits["lipschitz_constants"] = {"values": consts}
    report.add_check("lipschitz_constant_stable", max(consts) / min(consts), 3.0)
    header = "delta,traj_distance,constant,h_shift"
    _emit(outdir, "lipschitz", rows, header, "delta", "distance", logscale=True)


def _run_contraction(cfg, outdir, report):
    grid = cfg.grid()
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    T = min(cfg.T, grid.budget_horizon())
    # one transport of q each way serves the 4 iterates of every eps
    transport = picard_transport(S, T, dt)
    cols = grid.obs_slice().stop

    def ball(it):
        """What x_norm reads of an iterate: its rows at the ball's nodes, and adot."""
        return it.u.samples[:, :cols].copy(), it.adot

    def distance(x, y):
        return x_norm(x[0] - y[0], x[1] - y[1], dt, grid)

    ratios = []
    for e in cfg.sweep:
        # one whole history at a time: each iterate's ball is kept for the
        # distances, and the iterate itself only while a map reads it
        query = seeded_query(grid, S, e, cfg.seed)
        p1 = picard_map(None, None, None, query, S, T, dt, transport)
        f1 = picard_map(p1.u, p1.a, p1.adot, query, S, T, dt, transport)
        b1, g1 = ball(p1), ball(f1)
        del p1, f1
        q2 = seeded_query(grid, S, e, cfg.seed + 1)
        p2 = picard_map(None, None, None, q2, S, T, dt, transport)
        den = distance(b1, ball(p2))
        f2 = picard_map(p2.u, p2.a, p2.adot, query, S, T, dt, transport)
        del p2
        ratios.append(distance(g1, ball(f2)) / den)
        del f2, b1, g1
        report.records.append({"eps": e, "contraction_ratio": ratios[-1]})
        report.add_check(f"contraction_ratio_eps_{e:g}", ratios[-1], 1.0)
    sorted_r = np.array(ratios)[np.argsort(cfg.sweep)]
    report.add_check("ratio_decreases_with_eps", sorted_r[0] / sorted_r[-1], 1.0)
    rows = zip(cfg.sweep, ratios)
    _emit(outdir, "contraction", rows, "eps,contraction_ratio", "eps", "ratio", logscale=True)


def _run_weighted_growth(cfg, outdir, report):
    grid = cfg.grid()
    dt = cfg.timestep(grid)
    S = ground_state(grid)
    query = seeded_query(grid, S, cfg.eps, cfg.seed)
    res = shoot_h(query, S, cfg.T, dt)
    phi_f = soliton.phi_field(grid)
    rows = []

    def reduce(j, psi, psi_t):
        rows.append((j * (dt * 5), weighted_norm(psi - phi_f, "<x>^-1 H1", radius=grid.R_obs)))

    data = query.initial_data(S, res.h)
    _completed(evolve_nonlinear(*data, 5.0, dt, S=S, stride=5, consume=reduce), 5.0)
    t = np.array([r[0] for r in rows])
    D = np.array([r[1] for r in rows])
    C = float(np.max(D / (np.exp(t) * query.epsilon)))
    mask = t >= 0.5
    slope = float(np.polyfit(t[mask], np.log(np.maximum(D[mask], 1e-300)), 1)[0])
    report.records.append({"C": C, "exponent": slope, "eps": query.epsilon})
    report.fits["weighted_growth"] = {"C": C, "exponent": slope}
    report.add_check("bounded_by_C_exp_t", C, 1e3)
    report.add_check("growth_exponent", slope, 1.1)
    _emit(outdir, "weighted_growth", rows, "t,weighted_H1", "t", "norm")


_RUNNERS = {
    "spectrum": _run_spectrum,
    "stationarity": _run_stationarity,
    "energy_conservation": _run_energy,
    "strichartz_free": lambda c, o, r: _run_strichartz(c, o, r, "free"),
    "strichartz_perturbed": lambda c, o, r: _run_strichartz(c, o, r, "perturbed"),
    "secular": _run_secular,
    "pairing_identity": _run_pairing_identity,
    "h_scaling": _run_h_scaling,
    "codim1": _run_codim1,
    "lipschitz": _run_lipschitz,
    "contraction": _run_contraction,
    "adot_l1": _run_adot_l1,
    "weighted_growth": _run_weighted_growth,
}

_SCHEMA = """# Emitted file schemas

All CSVs carry a single header row; floats use up to 17 significant digits.

- `g_profile.csv`: `r,value` - ground-state eigenfunction samples.
- `spectrum.json`: `{R, n, a, k, residual, overlap_g_daPhi, pairing_VdaPhi, negative_count, ...}`.
- `stationarity.csv`: `dr,pde_residual_max` - elliptic residual under refinement.
- `energy_drift.csv`: `dt,relative_drift` - energy conservation under dt halving (CFL locked).
- `strichartz_free.csv`: `member,<constant columns>` - per-member reverse-Strichartz ratios of the free evolutions.
- `strichartz_perturbed.csv`: `member,<constant columns>` - the same ratios for the perturbed evolutions.
- `secular.csv`: `T,S_LinfL2,full_LinfL1` - dispersive-part boundedness vs secular growth.
- `pairing_identity.csv`: `T,integral` - running resonance pairing integral.
- `h_scaling.csv`: `eps,abs_h_shoot,abs_h_fixed_point` - manifold offset vs perturbation size.
- `codim1.csv`: `offset,rate,exit_sign` - departure rates for off-manifold offsets.
- `adot_l1.csv`: `eps,adot_l1,mixed_norm,adot_l1_over_eps`.
- `lipschitz.csv`: `delta,traj_distance,constant,h_shift`.
- `contraction.csv`: `eps,contraction_ratio`.
- `weighted_growth.csv`: `t,weighted_H1`.
- `trajectory.csv` (manifold runs): `t,a,adot,x_plus,x_minus,g_overlap`.
- `h_report.json` (manifold runs): `{shoot, picard}` with `h, method, bracket_width, tail_bound` each, and `diagnostics`, one `{kind, value, R, R_obs, n, dt, T}` per norm of the shot trajectory.
- `report.json`: config echo, per-run records, fits with uncertainties, explicit pass/fail checks.
"""


# the package's typed numerical failures; anything else (a TypeError from a
# programming slip, say) propagates instead of posing as a failed check
_RUN_FAILURES = (
    GridUsageError,
    SpectralError,
    PropagatorError,
    BracketError,
    LeftModulationWindow,
)


def run(config):
    """Execute the named experiment; returns an ExperimentReport.

    The package's typed numerical failures become failed runs recorded in
    the report, with their traceback; configuration errors raise
    ConfigError and every other exception propagates.
    """
    issues = validate(config)
    if issues:
        raise ConfigError("; ".join(issues))
    outdir = config.output_dir
    report = ExperimentReport(
        experiment=config.experiment,
        config={k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()},
    )
    runner = _RUNNERS[config.experiment]
    try:
        runner(config, outdir, report)
    except _RUN_FAILURES as exc:
        report.records.append(
            {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        )
        report.add_check("run_completed", 1.0, 0.5)
    _write(outdir, "report.json", report.to_json())
    _write(outdir, "SCHEMA.md", _SCHEMA)
    return report
