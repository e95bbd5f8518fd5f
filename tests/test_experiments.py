import glob
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solmanifold.cli import main
from solmanifold.experiments import (
    ConfigError,
    ExperimentConfig,
    _energy_drift,
    _seeded_uniform,
    run,
    validate,
)
from solmanifold.propagators import PropagatorError

from schema_check import assert_schema_names_outputs


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """[experiment]
name = stationarity
seed = 3

[grid]
R = 40
n = 401

[time]
T = 6
"""


# every (lo, hi) the seeded callers draw with, twice over
_BOUNDS = [(0.0, 3.5), (0.7, 2.0), (1.0, 3.0), (0.8, 1.5), (0.0, 2.0), (0.2, 0.8), (1.5, 2.5)] * 2


def _numpy_draws(seed, bounds):
    rng = np.random.default_rng(seed)
    return [rng.uniform(lo, hi) for lo, hi in bounds]


def test_seeded_draws_are_default_rngs_bits():
    # seeds of one word, and of 2, 5 and 7 32-bit words: SeedSequence hashes
    # up to four into its pool and mixes the rest in after
    long = [2**32 + 7, 2**64 - 1, 2**130 + 11, 2**159 + 2**96 + 3, 2**200 + 5, 2**223 + 12345]
    assert [-(-s.bit_length() // 32) for s in long] == [2, 2, 5, 5, 7, 7]
    for seed in list(range(301)) + long:
        uniform = _seeded_uniform(seed)
        assert [uniform(lo, hi) for lo, hi in _BOUNDS] == _numpy_draws(seed, _BOUNDS), seed


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2**192 - 1))
def test_seeded_draws_are_default_rngs_bits_for_any_seed(seed):
    uniform = _seeded_uniform(seed)
    assert [uniform(lo, hi) for lo, hi in _BOUNDS] == _numpy_draws(seed, _BOUNDS)


def test_a_negative_seed_is_a_value_error():
    with pytest.raises(ValueError, match="seed must be non-negative, seed=-1"):
        _seeded_uniform(-1)
    with pytest.raises(ValueError):
        np.random.default_rng(-1)


@pytest.mark.parametrize("caller", ["seeded_bumps", "seeded_query", "_energy_drift"])
def test_seeded_callers_draw_default_rngs_values_in_the_pinned_order(monkeypatch, caller):
    # each caller's (lo, hi) in order, the values numpy's Generator gives for
    # them, and the caller's output bits with numpy's Generator drawing instead
    import solmanifold.experiments as ex
    from solmanifold import RadialGrid, ground_state

    grid = RadialGrid(R=20.0, n=201)
    S = ground_state(grid)
    call, bounds = {
        "seeded_bumps": (lambda: [f.values for f in ex.seeded_bumps(grid, 4, 3)],
                         [(0.0, 3.5), (0.7, 2.0)] * 3),
        "seeded_query": (lambda: ex.seeded_query(grid, S, 1e-3, 2).psi0_perturbation.values,
                         [(1.0, 3.0), (0.8, 1.5), (0.0, 2.0), (0.8, 1.5), (0.2, 0.8)]),
        "_energy_drift": (lambda: ex._energy_drift(10.0, 101, 4.0, 0.8, 0.3, 5), [(1.5, 2.5)]),
    }[caller]
    drawn = []

    def recording(seed):
        uniform = _seeded_uniform(seed)

        def draw(lo, hi):
            drawn.append((seed, lo, hi, uniform(lo, hi)))
            return drawn[-1][-1]
        return draw

    monkeypatch.setattr(ex, "_seeded_uniform", recording)
    ours = call()
    seed = drawn[0][0]
    assert [d[1:3] for d in drawn] == bounds and {d[0] for d in drawn} == {seed}
    assert [d[3] for d in drawn] == _numpy_draws(seed, bounds)
    monkeypatch.setattr(ex, "_seeded_uniform", lambda seed: np.random.default_rng(seed).uniform)
    assert np.array_equal(call(), ours)


def test_config_parsing(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path, BASE))
    assert cfg.experiment == "stationarity"
    assert cfg.seed == 3
    assert cfg.R == 40.0 and cfg.n == 401
    assert validate(cfg) == []


def test_unknown_key_is_error(tmp_path):
    for edit, message in (
        (("[grid]\n", "[grid]\nbogus = 1\n"), "unknown key grid.bogus"),
        (("[time]\n", "[data]\nfamily = ball\n\n[time]\n"), "unknown key data.family"),
        (("[time]\n", "[data]\ncenter = 2\n\n[time]\n"), "unknown key data.center"),
        (("[time]\n", "[data]\nwidth = 1\n\n[time]\n"), "unknown key data.width"),
        (("[grid]", "[grud]"), r"unknown config section \[grud\]"),
        (("name = stationarity\n", ""), "missing experiment.name"),
        # every run takes one process: an old config's workers is never ignored
        (("seed = 3\n", "seed = 3\nworkers = 4\n"), r"unknown key experiment\.workers"),
    ):
        bad = BASE.replace(*edit)
        assert bad != BASE
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_file(write_config(tmp_path, bad))


@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.ini"))),
    ids=os.path.basename,
)
def test_shipped_configs_parse_and_validate(path):
    from dataclasses import fields

    from solmanifold.experiments import _KEYS

    assert validate(ExperimentConfig.from_file(path)) == []
    # every config field is set by exactly one INI key, except workers: it
    # has no key, and validate accepts only its default
    attrs = [attr for keys in _KEYS.values() for attr, _ in keys.values()]
    assert sorted(attrs) == sorted(f.name for f in fields(ExperimentConfig) if f.name != "workers")


def test_validate_flags_cfl_and_causality(tmp_path):
    text = """[experiment]
name = secular

[grid]
R = 50
n = 101

[time]
T = 45
dt = 9.0
"""
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    issues = validate(cfg)
    assert any("CFL" in s for s in issues)
    assert any("causality" in s for s in issues)
    # a time step or horizon that is not positive
    for edit, key in (
        ("T = 6\ncfl = 0\n", "time.cfl"),
        ("T = 6\ndt = 0\n", "time.dt"),
        ("T = 6\ndt = -0.01\n", "time.dt"),
        ("T = 6\ncfl = -0.8\n", "time.cfl"),
        ("T = -5\n", "time.T"),
    ):
        cfg = ExperimentConfig.from_file(write_config(tmp_path, BASE.replace("T = 6\n", edit)))
        assert any(s.startswith(f"{key}: ") and "must be positive" in s for s in validate(cfg))
    # a negative seed, which the seeded draws (as numpy's SeedSequence) reject
    cfg = ExperimentConfig.from_file(write_config(tmp_path, BASE.replace("seed = 3", "seed = -1")))
    assert any(s.startswith("experiment.seed: ") for s in validate(cfg))


@pytest.mark.parametrize("experiment, short, enough", [
    ("h_scaling", (3.0, 4.0), 4.08),
    ("adot_l1", (3.0, 4.2), 4.4),
    ("lipschitz", (3.0, 4.2), 4.4),
])
def test_a_horizon_within_the_trim_is_a_config_error(tmp_path, experiment, short, enough):
    # the on-manifold run ends _TRIM = 4 before T; with dt = 0.08 it must make
    # one step for h_scaling's passes and one stride of 5 for the scales'
    # np.gradient, or numpy's ValueError would escape run untyped
    def config(T):
        cfg = ExperimentConfig(experiment=experiment, seed=6, R=30.0, n=301, R_obs=10.0, T=T,
                               sweep=(1e-4, 2e-4), output_dir=str(tmp_path / "out"))
        return cfg, [s for s in validate(cfg) if s.startswith("time.T: ")]

    for T in short:
        cfg, issues = config(T)
        assert issues == [f"time.T: the on-manifold run ends 4 before T and needs at least "
                          f"{1 if experiment == 'h_scaling' else 5} step(s) of dt=0.08, T={T}"]
        with pytest.raises(ConfigError, match="time.T: the on-manifold run"):
            run(cfg)
    assert config(enough)[1] == []


@pytest.mark.parametrize("experiment, sweep", [
    ("h_scaling", (1e-4,)),
    ("h_scaling", (1e-4, 1e-4)),
    ("lipschitz", (1e-4,)),
    ("adot_l1", (1e-3,)),
    ("contraction", (1e-3,)),
])
def test_a_sweep_of_one_distinct_value_is_a_config_error(tmp_path, experiment, sweep):
    # each of these compares its sweep points: a slope (which one value, or
    # one value twice, fits with stderr 0), a largest-over-smallest ratio
    # (exactly 1 for one point) or an ordering (dropped for one point); two
    # distinct values validate
    def config(values):
        return ExperimentConfig(experiment=experiment, seed=6, R=30.0, n=301, R_obs=10.0,
                                T=10.0, sweep=values, output_dir=str(tmp_path / "out"))

    assert validate(config(sweep)) == [
        f"sweep.values: {experiment} compares its sweep points and needs at least two "
        f"distinct values, got {list(sweep)}"
    ]
    with pytest.raises(ConfigError, match="sweep.values: "):
        run(config(sweep))
    assert validate(config((sweep[0], 2 * sweep[0]))) == []


def test_a_secular_grid_short_of_its_horizons_is_a_config_error(tmp_path):
    # secular reads its norms at T = 25, 50 and 100, so it needs R - R_obs
    # >= 100: validate says so, before any run
    def config(R):
        return ExperimentConfig(experiment="secular", R=R, n=int(10 * R) + 1, R_obs=10.0,
                                T=6.0, output_dir=str(tmp_path / "out"))

    assert validate(config(109.0)) == [
        "grid: secular needs R - R_obs >= 100 (horizons 25, 50, 100), R - R_obs = 99"
    ]
    with pytest.raises(ConfigError, match="grid: secular needs"):
        run(config(109.0))
    assert validate(config(110.0)) == []


@pytest.mark.parametrize("experiment", ["energy_conservation", "stationarity", "spectrum"])
def test_an_infinite_horizon_is_a_config_error(tmp_path, experiment):
    # these three are exempt from the causality budget, so only the horizon
    # check stands between T = inf and a step count that overflows in run
    def config(T):
        return ExperimentConfig(experiment=experiment, R=30.0, n=301, R_obs=10.0, T=T,
                                output_dir=str(tmp_path / "out"))

    assert validate(config(np.inf)) == ["time.T: horizon must be positive and finite, T=inf"]
    with pytest.raises(ConfigError, match="time.T: horizon"):
        run(config(np.inf))
    assert validate(config(6.0)) == []


def test_workers_other_than_one_is_a_config_error(tmp_path):
    from dataclasses import replace

    cfg = ExperimentConfig("h_scaling", workers=2, R=40.0, n=401, R_obs=12.0, T=14.0,
                           sweep=(1e-3, 2e-3), output_dir=str(tmp_path / "out"))
    assert validate(replace(cfg, workers=1)) == []
    issues = validate(cfg)
    assert len(issues) == 1 and issues[0].startswith("workers:") and "workers=2" in issues[0]
    with pytest.raises(ConfigError, match="workers=2"):
        run(cfg)
    assert not (tmp_path / "out").exists()


def test_validate_unknown_experiment(tmp_path):
    cfg = ExperimentConfig.from_file(
        write_config(tmp_path, BASE.replace("stationarity", "nope"))
    )
    assert any("unknown experiment" in s for s in validate(cfg))


def test_run_rejects_invalid_config(tmp_path):
    cfg = ExperimentConfig.from_file(
        write_config(tmp_path, BASE.replace("stationarity", "nope"))
    )
    with pytest.raises(ConfigError):
        run(cfg)


def test_run_records_typed_failures_and_reraises_others(tmp_path, monkeypatch):
    import solmanifold.experiments as experiments
    from solmanifold.propagators import PropagatorError

    cfg = ExperimentConfig.from_file(write_config(tmp_path, BASE))
    cfg.output_dir = str(tmp_path / "out")

    def slip(config, outdir, report):
        raise TypeError("programming slip")

    monkeypatch.setitem(experiments._RUNNERS, "stationarity", slip)
    with pytest.raises(TypeError, match="programming slip"):
        run(cfg)

    def unstable(config, outdir, report):
        raise PropagatorError("leapfrog instability")

    monkeypatch.setitem(experiments._RUNNERS, "stationarity", unstable)
    rep = run(cfg)
    assert not rep.passed
    (record,) = [r for r in rep.records if "error" in r]
    assert record["error"] == "PropagatorError: leapfrog instability"
    assert "Traceback" in record["traceback"] and "unstable" in record["traceback"]


def test_stationarity_run_and_determinism(tmp_path):
    cfg1 = ExperimentConfig.from_file(write_config(tmp_path, BASE))
    cfg1.output_dir = str(tmp_path / "out1")
    rep1 = run(cfg1)
    assert rep1.passed
    cfg2 = ExperimentConfig.from_file(write_config(tmp_path, BASE))
    cfg2.output_dir = str(tmp_path / "out2")
    run(cfg2)
    body1 = open(os.path.join(cfg1.output_dir, "stationarity.csv"), "rb").read()
    body2 = open(os.path.join(cfg2.output_dir, "stationarity.csv"), "rb").read()
    assert body1 == body2
    # report carries explicit thresholds
    rep = json.load(open(os.path.join(cfg1.output_dir, "report.json")))
    assert all({"name", "value", "threshold", "op", "passed"} <= set(c) for c in rep["checks"])
    assert os.path.exists(os.path.join(cfg1.output_dir, "SCHEMA.md"))
    gp = open(os.path.join(cfg1.output_dir, "stationarity.gp")).read()
    assert gp == (
        "# gnuplot script for stationarity\n"
        "set xlabel 'dr'\n"
        "set ylabel 'residual'\n"
        "set datafile separator ','\n"
        "set key top left\n"
        "set logscale xy\n"
        "plot 'stationarity.csv' using 1:2 skip 1 with linespoints title 'stationarity'\n"
    )


def test_rerun_into_one_directory_writes_fresh_files(tmp_path):
    # a second run into the same directory gives the same file set and the
    # same CSV bytes; each output is a fresh file, not the old one truncated
    # (the old one, held open here, is unlinked and keeps its bytes)
    cfg = ExperimentConfig.from_file(write_config(tmp_path, BASE))
    cfg.output_dir = str(tmp_path / "out")

    def outputs():
        names = sorted(os.listdir(cfg.output_dir))
        return names, {n: open(os.path.join(cfg.output_dir, n), "rb").read()
                       for n in names if n.endswith(".csv")}

    run(cfg)
    first = outputs()
    assert "stationarity.csv" in first[1]
    with open(os.path.join(cfg.output_dir, "stationarity.csv"), "rb") as old:
        run(cfg)
        assert os.fstat(old.fileno()).st_nlink == 0
        assert old.read() == first[1]["stationarity.csv"]
    assert outputs() == first


@pytest.mark.parametrize("amp, t_stop", [(1.0, "1.4"), (2.0, "0.36")])
def test_stopped_energy_run_raises(amp, t_stop):
    # the blow-up detector stops both runs; their energies give no drift
    with pytest.raises(PropagatorError, match=rf"'blowup' at t={t_stop} of T=20"):
        _energy_drift(30.0, 601, 20.0, 0.8, amp, 2)


def _traced_peak(measured):
    """The tracemalloc peak, in bytes, of one call of measured()."""
    import tracemalloc

    tracemalloc.start()
    try:
        measured()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_drift_memory_does_not_grow_with_steps():
    # each snapshot is reduced as it is made; storing the stride-10 rows
    # would hold two stacks of 41 rows at T = 16
    def peak(T):
        return _traced_peak(lambda: _energy_drift(30.0, 601, T, 0.8, 0.3, 2))

    short, long = peak(8.0), peak(16.0)
    assert long < 1.25 * short
    assert long < 40 * 601 * 8


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["validate", "--config", path]) == 0
    bad = write_config(tmp_path, BASE.replace("stationarity", "nope"), name="bad.ini")
    assert main(["validate", "--config", bad]) == 1
    assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 2
    zero_step = write_config(tmp_path, BASE.replace("T = 6\n", "T = 6\ndt = 0\n"), name="dt0.ini")
    assert main(["sweep", "--config", zero_step, "--out", str(tmp_path / "dt0")]) == 2
    negative_seed = write_config(tmp_path, BASE.replace("seed = 3", "seed = -1"), name="seed.ini")
    assert main(["sweep", "--config", negative_seed, "--out", str(tmp_path / "seed")]) == 2
    zero_value = write_config(tmp_path, BASE + "\n[sweep]\nvalues = 0, 1e-3\n", name="v0.ini")
    assert main(["sweep", "--config", zero_value, "--out", str(tmp_path / "v0")]) == 2
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "w"), "--workers", "2"]) == 2
    assert main(["bogus-subcommand"]) == 2
    # spectrum and manifold arguments pass the same checks before any run
    out = ["--out", str(tmp_path / "cli")]
    shoot = ["manifold", "--R", "40", "--n", "401", "--R-obs", "12"]
    for argv in (
        ["spectrum", "--a", "0"],
        ["spectrum", "--n", "8"],
        shoot + ["--T", "14", "--dt", "0.5"],
        shoot + ["--T", "40"],
        shoot + ["--T", "14", "--method", "picard", "--picard-iters", "0"],
    ):
        assert main(argv + out) == 2, argv
    # their errors name the flag that was typed, not the config key
    for argv, flag, key in (
        (["--T", "14", "--dt", "0.5"], "--dt: CFL violation", "time.dt"),
        (["--T", "14", "--seed", "-2"], "--seed: seed must be non-", "experiment.seed"),
        (["--T", "14", "--eps", "0"], "--eps: amplitude must be positive", "data.eps"),
    ):
        argv = shoot + argv
        capsys.readouterr()
        assert main(argv + out) == 2, argv
        err = capsys.readouterr().err
        assert flag in err and key not in err, err


def test_cli_malformed_value_exits_2(tmp_path, capsys):
    bad = write_config(tmp_path, BASE.replace("n = 401", "n = abc"))
    assert main(["validate", "--config", bad]) == 2
    assert "grid.n" in capsys.readouterr().err


def test_cli_repeated_section_exits_2(tmp_path):
    bad = write_config(tmp_path, BASE + "\n[grid]\nR = 30\n")
    assert main(["validate", "--config", bad]) == 2


def test_cli_sweep_pass(tmp_path):
    path = write_config(tmp_path, BASE)
    code = main(["sweep", "--config", path, "--out", str(tmp_path / "sweep_out")])
    assert code == 0
    assert os.path.exists(tmp_path / "sweep_out" / "report.json")


def test_cli_spectrum(tmp_path, capsys):
    code = main(["spectrum", "--R", "16", "--n", "1281", "--out", str(tmp_path / "spec")])
    assert code == 0
    rep = json.loads((tmp_path / "spec" / "spectrum.json").read_text())
    assert rep["negative_count"] == 1
    assert rep["k"] == pytest.approx(1.9055, abs=2e-3)
    g_csv = (tmp_path / "spec" / "g_profile.csv").read_text()
    assert g_csv.splitlines()[0] == "r,value"
    assert_schema_names_outputs(tmp_path / "spec")


def test_cli_manifold_shoot(tmp_path):
    code = main(
        [
            "manifold",
            "--R", "40", "--n", "401", "--R-obs", "12",
            "--T", "14", "--eps", "1e-3", "--method", "shoot",
            "--out", str(tmp_path / "mf"),
        ]
    )
    assert code == 0
    rep = json.loads((tmp_path / "mf" / "h_report.json").read_text())
    assert "shoot" in rep and np.isfinite(rep["shoot"]["h"])
    header, *lines = (tmp_path / "mf" / "trajectory.csv").read_text().splitlines()
    assert header == "t,a,adot,x_plus,x_minus,g_overlap"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    assert rows.shape == (len(lines), 6) and len(lines) > 2
    assert np.all(np.isfinite(rows))
    assert rep["diagnostics"]
    for d in rep["diagnostics"]:
        assert set(d) == {"kind", "value", "R", "R_obs", "n", "dt", "T"}
        # one row per stored time of the run the diagnostics were taken on
        assert len(lines) == round(d["T"] / d["dt"]) + 1
        assert rows[0, 0] == 0 and np.isclose(rows[-1, 0], d["T"], rtol=1e-12, atol=0)
        assert np.allclose(np.diff(rows[:, 0]), d["dt"], rtol=1e-9, atol=0)
    assert_schema_names_outputs(tmp_path / "mf")


@pytest.mark.parametrize("mode", ["free", "perturbed"])
def test_strichartz_constants_match_normalised_evolutions(monkeypatch, mode):
    import solmanifold.experiments as ex
    from solmanifold import RadialField, RadialGrid, ground_state, h1_seminorm, l2_norm
    from solmanifold.norms import lorentz_norm, mixed_norm

    from oracles import project_continuous_w, stored_secular_split

    grid = RadialGrid(R=40.0, n=401)
    dt, T = grid.dr, grid.budget_horizon()
    S = ground_state(grid)
    members = ex.seeded_bumps(grid, 4, 3)

    # reference: three stored evolutions per member, each of the normalised
    # member; the perturbed split is of P_c f, and so are the sizes
    def evolve(f, kind):
        if mode == "free":
            return (ex.free_sine_traj if kind == "sine" else ex.free_cosine_traj)(f, T, dt)
        return stored_secular_split(f, T, dt, S, kind)[0]

    ref = []
    for i, f in enumerate(members):
        if mode == "perturbed":
            f = project_continuous_w(f, S)
        s = evolve(RadialField(grid, f.values / l2_norm(f)), "sine")
        c = evolve(RadialField(grid, f.values / h1_seminorm(f)), "cosine")
        lt = evolve(RadialField(grid, f.values / lorentz_norm(f, 1.5, 1)), "sine")
        ref.append((
            i,
            mixed_norm(s, ("lorentz", 6, 2), "Linf_t"),
            mixed_norm(s, "Linf_x", "L2_t"),
            mixed_norm(c, ("lorentz", 6, 2), "Linf_t"),
            mixed_norm(c, "Linf_x", "L2_t"),
            mixed_norm(lt, "Linf_x", "L1_t"),
        ))

    # count the evolutions, with the radius of the profiles they stream to
    # (None: stored; the node count for a consumer without a radius): the
    # free transports under both names (experiments calls them for the free
    # members, propagators._resonance_series for q) and the splits
    import solmanifold.propagators as prop

    calls = []
    names = {
        ex: ("free_sine_traj", "free_cosine_traj", "secular_decomposition_S",
             "secular_decomposition_C"),
        prop: ("free_sine_traj", "free_cosine_traj"),
    }
    for module, traced in names.items():
        for name in traced:
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                p = kwargs.get("profiles")
                calls.append((_name, None if p is None else getattr(p, "radius", p.inside.stop)))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    rows = ex._strichartz_constants(grid, dt, T, members, mode)
    assert [row[0] for row in rows] == [0, 1, 2]
    got, want = np.array(rows)[:, 1:], np.array(ref)[:, 1:]
    assert np.max(np.abs(got - want) / want) < 1e-12
    if mode == "free":
        # every member streams the rows of the observation ball, twice
        assert sorted(calls) == (
            [("free_cosine_traj", grid.R_obs)] * 3 + [("free_sine_traj", grid.R_obs)] * 3
        )
    else:
        # one transport of q per kind, streamed on the whole grid, serves
        # all three members, which split as one stack per kind and stream
        # the rows of the observation ball; nothing is stored
        assert sorted(calls) == [
            ("free_cosine_traj", grid.n), ("free_sine_traj", grid.n),
            ("secular_decomposition_C", grid.R_obs), ("secular_decomposition_S", grid.R_obs),
        ]


def test_resonance_series_leave_no_transport_held():
    # the series stream the transport of q through a whole-grid consumer,
    # so no (M+1, n) stack of it is ever held: peaks in stacks, at most 0.3
    # for the series of four fields and 0.5 for the perturbed constants of
    # four members (holding the transport read 1.13 and 1.14)
    import solmanifold.experiments as ex
    from solmanifold import RadialGrid, ground_state

    grid = RadialGrid(R=40.0, n=801, R_obs=10.0)
    dt, T = grid.dr, 30.0
    stack = (round(T / dt) + 1) * grid.n * 8
    S = ground_state(grid)
    members = ex.seeded_bumps(grid, 4, 4)
    for measured, bound in (
        (lambda: ex._resonance_series(grid, S.a, T, dt, "sine", members), 0.3),
        (lambda: ex._strichartz_constants(grid, dt, T, members, "perturbed"), 0.5),
    ):
        assert _traced_peak(measured) <= bound * stack


def test_secular_split_holds_no_dispersive_stack():
    # secular's split on the test grid (R = 110, n = 1101, T = 100, stride
    # 2), its series made first: the transport of q and the dispersive rows
    # stream, so the peak stays near one block and its profiles' copy.
    # Measured 0.204 of the (501, 1101) stack of its dispersive rows; the
    # bound leaves a margin of 1.47x.  A split that stored those rows read
    # 1.13 with its series
    import solmanifold.experiments as ex
    from solmanifold import RadialGrid, ground_state
    from solmanifold.norms import TimeProfiles

    grid = RadialGrid(R=110.0, n=1101, R_obs=10.0)
    dt, T = grid.dr, 100.0
    stack = (round(T / (2 * dt)) + 1) * grid.n * 8
    S = ground_state(grid)
    f = ex._continuous_part(ex.family_field(grid, "vdphi_bump"), S)

    def split():
        series = ex._resonance_series(grid, S.a, T, dt, "sine", [f])
        ex.secular_decomposition_S([f], T, dt, S, series, TimeProfiles(grid, 2 * dt), stride=2)

    assert _traced_peak(split) <= 0.3 * stack


def test_contraction_holds_one_history_at_a_time(tmp_path):
    # the runner keeps the observation ball of each iterate that a distance
    # reads, and a whole iterate only while a map reads it: its peak stays
    # below the q transport pair (two stacks), one history and one map
    # output, the two kept balls, and 14 blocks of _ROWS whole-grid rows
    # for the source fold's temporaries.  Measured 5.77 stacks against a
    # bound of 6.09; holding three iterates and the (M+1)^2 kernel read 6.74
    import tracemalloc

    import solmanifold.experiments as ex
    from solmanifold.modulation import _ROWS

    cfg = ExperimentConfig(experiment="contraction", seed=3, R=40.0, n=401, R_obs=12.0,
                           T=24.0, sweep=(1e-3, 2e-3), output_dir=str(tmp_path / "out"))
    grid = cfg.grid()
    M = int(round(cfg.T / cfg.timestep(grid)))
    stack = (M + 1) * grid.n * 8
    ball = (M + 1) * grid.obs_slice().stop * 8
    ex.ground_state(grid)  # the eigensolve's one-time set-up is not the runner's
    report = ex.ExperimentReport("contraction", {})
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        ex._run_contraction(cfg, cfg.output_dir, report)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert report.passed
    assert M == 300 and peak < 4 * stack + 2 * ball + 14 * _ROWS * grid.n * 8


def test_strichartz_perturbed_projects_each_member_once(tmp_path):
    # seed 25 on a 21-node grid: with members split as given, the g-component
    # of a member entered the secular side through its free transport, and
    # four family-variation checks read 8.7-12.6 against 8; projected once,
    # every check passes
    cfg = ExperimentConfig(experiment="strichartz_perturbed", seed=25, R=6.0, n=21,
                           R_obs=2.0, T=4.0, output_dir=str(tmp_path / "out"))
    report = run(cfg)
    assert [c.name for c in report.checks if not c.passed] == []


def test_streamed_free_member_with_a_nan_fails_typed():
    import solmanifold.experiments as ex
    from solmanifold import GridUsageError, RadialGrid

    grid = RadialGrid(R=40.0, n=401)
    f = ex.seeded_bumps(grid, 4, 1)[0]
    bad = f.values.copy()
    bad[grid.obs_slice().stop // 2] = np.nan
    with pytest.raises(GridUsageError, match="non-finite trajectory samples"):
        ex._strichartz_constants(grid, grid.dr, 10.0, [grid.field(bad)], "free")


SMALL_MANIFOLD = """[experiment]
name = {name}
seed = 6

[grid]
R = 30
n = 301
R_obs = 10

[time]
T = 10
cfl = 0.8

[sweep]
values = 1e-4, 2e-4
"""


def _spy_on_manifold(monkeypatch):
    """Record the (S, queries, T, dt) and the (shots, a, adot) of every _on_manifold call."""
    import solmanifold.experiments as ex

    calls = []
    on_manifold = ex._on_manifold

    def spy(S, queries, T, dt, *args, **kwargs):
        out = on_manifold(S, queries, T, dt, *args, **kwargs)
        calls.append(((S, queries, T, dt), out))
        return out

    monkeypatch.setattr(ex, "_on_manifold", spy)
    return calls


def test_adot_l1_reads_the_values_of_the_stored_runs(tmp_path, monkeypatch):
    # the passes store no run, yet every number adot_l1 reads (a, adot, the
    # adot L1 norm and both mixed norms of the radiation) is that of one
    # stored stride-5 run per point and its whole-run extraction, bit for bit
    import solmanifold.experiments as ex

    from oracles import manifold_trajectory

    calls = _spy_on_manifold(monkeypatch)
    diagnostics = []
    reports = ex._diagnostics

    def spy(*args):
        diagnostics.append(reports(*args))
        return diagnostics[-1]

    monkeypatch.setattr(ex, "_diagnostics", spy)
    cfg = ExperimentConfig.from_file(write_config(tmp_path, SMALL_MANIFOLD.format(name="adot_l1")))
    cfg.output_dir = str(tmp_path / "out")
    report = run(cfg)
    (((S, queries, T, dt), (shots, a, adot)),), (diags,) = calls, diagnostics
    assert len(queries) == len(report.records) == 2
    for k, (query, record) in enumerate(zip(queries, report.records)):
        res, traj = manifold_trajectory(S, query, T, dt, ex._tight_tol(query))
        assert shots[k] == res
        assert np.array_equal(a[k], traj.a) and np.array_equal(adot[k], traj.adot)
        assert diags[k] == traj.diagnostics
        assert record["adot_l1"] == traj.adot_l1
        assert record["mixed_norm"] == max(d.value for d in traj.diagnostics)


def test_lipschitz_reads_the_differences_of_the_stored_runs(tmp_path, monkeypatch):
    # each sweep point's trajectory distance is the mixed norm of the
    # difference of two stored runs' radiation, bit for bit
    import solmanifold.experiments as ex
    from solmanifold.norms import mixed_norm
    from solmanifold.propagators import SpaceTimeField

    from oracles import manifold_trajectory

    calls = _spy_on_manifold(monkeypatch)
    cfg = ExperimentConfig.from_file(write_config(tmp_path,
                                                  SMALL_MANIFOLD.format(name="lipschitz")))
    cfg.output_dir = str(tmp_path / "out")
    report = run(cfg)
    (((S, (base, *others), T, dt), _),) = calls
    res0, traj0 = manifold_trajectory(S, base, T, dt, ex._tight_tol(base))
    assert len(others) == len(report.records) == 2
    for other, record in zip(others, report.records):
        res1, traj1 = manifold_trajectory(S, other, T, dt, ex._tight_tol(other))
        u = traj1.u_snapshots.samples - traj0.u_snapshots.samples
        diff = SpaceTimeField(S.grid, traj0.u_snapshots.dt, u)
        assert record["traj_distance"] == mixed_norm(diff, ("lorentz", 6, 2), "Linf_t")
        assert record["h_shift"] == abs(res1.h - res0.h)


def test_cli_manifold_trajectory_is_the_stored_runs(tmp_path):
    # trajectory.csv and the diagnostics of h_report.json, from the passes,
    # are those of the stored run's extraction, digit for digit
    from dataclasses import asdict

    from solmanifold import RadialGrid, ground_state
    from solmanifold.experiments import _csv, seeded_query

    from oracles import manifold_trajectory

    argv = ["manifold", "--R", "30", "--n", "301", "--R-obs", "10", "--T", "10",
            "--eps", "1e-3", "--seed", "2", "--method", "shoot", "--out", str(tmp_path / "mf")]
    assert main(argv) == 0
    grid = RadialGrid(R=30.0, n=301, R_obs=10.0)
    S = ground_state(grid)
    query = seeded_query(grid, S, 1e-3, 2)
    res, traj = manifold_trajectory(S, query, 10.0, 0.8 * grid.dr, None)
    cols = (traj.times, traj.a, traj.adot, traj.x_plus, traj.x_minus, traj.g_overlap)
    expected = _csv(zip(*cols), "t,a,adot,x_plus,x_minus,g_overlap")
    assert (tmp_path / "mf" / "trajectory.csv").read_text() == expected
    rep = json.loads((tmp_path / "mf" / "h_report.json").read_text())
    assert rep["shoot"]["h"] == res.h
    assert rep["diagnostics"] == [asdict(d) for d in traj.diagnostics]


def test_manifold_trajectory_leaving_the_window_fails_the_run(tmp_path, monkeypatch):
    # a window that holds no scale near 1: every on-manifold row leaves it,
    # and the lipschitz run must fail with the typed error, not pass quietly
    from solmanifold import soliton

    text = SMALL_MANIFOLD.format(name="lipschitz")
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    cfg.output_dir = str(tmp_path / "out")
    monkeypatch.setattr(soliton, "MODULATION_WINDOW", (1.05, 1.5))
    rep = run(cfg)
    assert not rep.passed
    (record,) = [r for r in rep.records if "error" in r]
    assert record["error"].startswith("LeftModulationWindow: sweep point 0: row 0 ")
    assert "_run_lipschitz" in record["traceback"] and "_manifold_passes" in record["traceback"]
    (check,) = [c for c in rep.checks if c.name == "run_completed"]
    assert not check.passed


@pytest.mark.parametrize("experiment, caller", [
    ("stationarity", "_run_stationarity"),
    ("weighted_growth", "_run_weighted_growth"),
])
def test_a_stopped_nonlinear_run_fails_the_run(tmp_path, monkeypatch, experiment, caller):
    # every nonlinear run an experiment reads must reach its horizon: one
    # that reports a blow-up is a typed failure with its traceback, never a
    # shorter trajectory read as if it were whole
    import dataclasses

    import solmanifold.experiments as ex

    evolve = ex.evolve_nonlinear

    def blown_up(*args, **kwargs):
        run = evolve(*args, **kwargs)
        return dataclasses.replace(run, status="blowup", departure_time=run.times_dense[-1])

    monkeypatch.setattr(ex, "evolve_nonlinear", blown_up)
    text = SMALL_MANIFOLD.format(name=experiment)
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    cfg.output_dir = str(tmp_path / "out")
    rep = run(cfg)
    (record,) = [r for r in rep.records if "error" in r]
    assert record["error"].startswith("PropagatorError: nonlinear run ended 'blowup'")
    assert caller in record["traceback"] and "_completed" in record["traceback"]
    (check,) = [c for c in rep.checks if c.name == "run_completed"]
    assert not check.passed


def _last_stacked_row_blows_up(monkeypatch):
    """Make the shared blow-up test flag the last row of every stacked state."""
    import solmanifold.modulation as mo

    frame = mo._u_frame

    def frame_with_test(grid, S):
        phi, wphi, overlap, blown = frame(grid, S)

        def test(wu, ov):
            out = blown(wu, ov)
            if np.ndim(wu) == 2:  # the shoots step one state, the pass a stack
                out = out.copy()
                out[-1] = True
            return out

        return phi, wphi, overlap, test

    monkeypatch.setattr(mo, "_u_frame", frame_with_test)


def test_a_blown_up_pass_row_fails_h_scaling(tmp_path, monkeypatch):
    # h_scaling's fixed-point passes step its sweep points as one stack and
    # call no evolve_nonlinear: a stacked row that the shared blow-up test
    # flags (here the last, point 1 of 2) ends the run with the typed error
    # naming that point, never a truncated run read as if it were whole
    _last_stacked_row_blows_up(monkeypatch)
    text = SMALL_MANIFOLD.format(name="h_scaling")
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    cfg.output_dir = str(tmp_path / "out")
    rep = run(cfg)
    (record,) = [r for r in rep.records if "error" in r]
    # the test is first read at step 2, t = 2 dt = 0.16 of the trimmed T = 10 - 4
    assert record["error"] == ("PropagatorError: nonlinear run of sweep point 1 ended 'blowup' "
                               "at t=0.16 of T=6.0")
    assert "_run_h_scaling" in record["traceback"] and "_proxy_products" in record["traceback"]
    (check,) = [c for c in rep.checks if c.name == "run_completed"]
    assert not check.passed


@pytest.mark.parametrize("experiment, caller, point", [
    ("lipschitz", "_run_lipschitz", 2),  # the base run is point 0, the sweep's 1 and 2
    ("adot_l1", "_run_adot_l1", 1),
])
def test_a_blown_up_pass_row_fails_the_run(tmp_path, monkeypatch, experiment, caller, point):
    # adot_l1 and lipschitz read their on-manifold runs through the same
    # stacked passes: a flagged row fails the run, typed, naming its point
    _last_stacked_row_blows_up(monkeypatch)
    text = SMALL_MANIFOLD.format(name=experiment)
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    cfg.output_dir = str(tmp_path / "out")
    rep = run(cfg)
    (record,) = [r for r in rep.records if "error" in r]
    assert record["error"] == (f"PropagatorError: nonlinear run of sweep point {point} ended "
                               "'blowup' at t=0.16 of T=6.0")
    assert caller in record["traceback"] and "_proxy_products" in record["traceback"]
    (check,) = [c for c in rep.checks if c.name == "run_completed"]
    assert not check.passed


def test_secular_splits_continuous_spectrum_data(tmp_path, monkeypatch):
    # the split builds its secular side from the f it is given, so
    # _run_secular hands it the continuous part of vdphi_bump (whose own
    # g-share is -0.65): no g-component above rounding in the scheme pairing
    import solmanifold.experiments as ex
    from solmanifold.grid import pair_w

    seen = []
    split = ex.secular_decomposition_S

    def spy(fields, T, dt, S, *args, **kwargs):
        seen.append((fields, S))
        return split(fields, T, dt, S, *args, **kwargs)

    monkeypatch.setattr(ex, "secular_decomposition_S", spy)
    cfg = ExperimentConfig(experiment="secular", R=110.0, n=1101, R_obs=10.0,
                           output_dir=str(tmp_path / "out"))
    run(cfg)
    (([f], S),) = seen
    assert abs(pair_w(f, S.g)) <= 1e-12 * np.sqrt(S.gg_w * pair_w(f, f))


def test_secular_reads_its_horizons_in_one_pass(tmp_path):
    # one pass feeds the rows of the ball to two TimeProfiles and reads each
    # horizon's norms as the rows reach it: exactly the mixed norms of the
    # stored prefix stacks, dispersive and dispersive + coeff * resonance
    import solmanifold.experiments as ex
    from solmanifold import ground_state, mixed_norm
    from solmanifold.propagators import SpaceTimeField

    from oracles import stored_secular_split

    cfg = ExperimentConfig(experiment="secular", R=110.0, n=1101, R_obs=10.0,
                           output_dir=str(tmp_path / "out"))
    report = run(cfg)
    grid = cfg.grid()
    S = ground_state(grid)
    f = ex._continuous_part(ex.family_field(grid, "vdphi_bump"), S)
    S_traj, coeff = stored_secular_split(f, 100.0, grid.dr, S, "sine", stride=2)
    full = S_traj.samples + coeff[:, None] * S.resonance.values
    assert [r["T"] for r in report.records] == [25.0, 50.0, 100.0]
    for record in report.records:
        m = int(round(record["T"] / S_traj.dt)) + 1
        for key, stack, inner in (("S_LinfL2", S_traj.samples, "L2_t"), ("full_LinfL1", full, "L1_t")):
            prefix = SpaceTimeField(grid, S_traj.dt, stack[:m])
            assert record[key] == mixed_norm(prefix, "Linf_x", inner)


def test_a_two_point_loglog_fit_reports_no_standard_error(tmp_path):
    # two points leave no residual: the slope is exact only by construction,
    # so its standard error is unknown (null in report.json), never 0
    from solmanifold.experiments import _loglog_fit

    slope, _, stderr = _loglog_fit([1e-4, 2e-4], [3e-8, 1.1e-7])
    assert np.isfinite(slope) and stderr is None
    assert _loglog_fit([1.0, 2.0, 4.0], [1.0, 4.5, 15.0])[2] > 0.0
    cfg = ExperimentConfig.from_file(write_config(tmp_path,
                                                  SMALL_MANIFOLD.format(name="h_scaling")))
    cfg.output_dir = str(tmp_path / "out")
    run(cfg)
    fits = json.loads((tmp_path / "out" / "report.json").read_text())["fits"]
    assert fits["h_scaling"]["stderr"] is None


@pytest.mark.parametrize("T", [0.2, 1.0])
def test_a_codim1_horizon_too_short_to_classify_fails_typed(tmp_path, T):
    # at these horizons no step of an offset run leaves 10 |offset| before
    # T, so there is no departure to fit: a typed BracketError naming the
    # offset and the window, not numpy's TypeError from an empty fit
    cfg = ExperimentConfig(experiment="codim1", R=30.0, n=301, R_obs=10.0, T=T, seed=1,
                           output_dir=str(tmp_path / "out"))
    assert validate(cfg) == []
    rep = run(cfg)
    (record,) = [r for r in rep.records if "error" in r]
    assert record["error"].startswith("BracketError: offset +1e-06: the departure window "
                                      "10|offset| < |ov| < 0.05 holds 0 step(s)")
    assert "_run_codim1" in record["traceback"]
    (check,) = [c for c in rep.checks if c.name == "run_completed"]
    assert not check.passed


def test_h_scaling_shoots_on_the_validated_grid_and_step(tmp_path, monkeypatch):
    # each sweep point runs on cfg.grid() (R_obs defaults to R/2) with
    # cfg.timestep() (a set time.dt), the grid and step that validate checked
    import solmanifold.experiments as ex

    text = """[experiment]
name = h_scaling
seed = 5

[grid]
R = 30
n = 301

[time]
T = 10
dt = 0.07

[sweep]
values = 1e-4, 2e-4
"""
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    cfg.output_dir = str(tmp_path / "out")
    assert validate(cfg) == []
    seen = []
    shoot_h = ex.shoot_h

    def spy(query, S, T, dt, **kw):
        seen.append((S.grid.R, S.grid.n, S.grid.R_obs, T, dt))
        return shoot_h(query, S, T, dt, **kw)

    monkeypatch.setattr(ex, "shoot_h", spy)
    run(cfg)
    assert seen == [(30.0, 301, 15.0, 10.0, 0.07)] * 2


@pytest.mark.parametrize("caller", ["contraction", "cli"])
def test_picard_callers_share_one_transport_of_their_grid(tmp_path, monkeypatch, caller):
    # every iterate of a run is handed the same (sine, cosine) pair, and it
    # is the one picard_transport makes for the iterate's (S, T, dt)
    import solmanifold.cli as cli
    import solmanifold.experiments as ex
    from solmanifold.modulation import picard_transport

    pairs = []
    picard_map = ex.picard_map

    def spy(u0, a0, adot0, query, S, T, dt, transport):
        pairs.append(transport)
        for (E, w), (E_ref, w_ref) in zip(transport, picard_transport(S, T, dt), strict=True):
            assert np.array_equal(E, E_ref) and np.array_equal(w, w_ref)
        return picard_map(u0, a0, adot0, query, S, T, dt, transport)

    monkeypatch.setattr(ex, "picard_map", spy)
    monkeypatch.setattr(cli, "picard_map", spy)
    if caller == "contraction":
        text = BASE.replace("stationarity", "contraction").replace("T = 6", "T = 12")
        path = write_config(tmp_path, text + "\n[sweep]\nvalues = 1e-3, 2e-3\n")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "c")]) == 0
        calls = 8
    else:
        argv = ["manifold", "--R", "40", "--n", "401", "--R-obs", "12", "--T", "12",
                "--method", "picard", "--picard-iters", "3"]
        assert main(argv + ["--out", str(tmp_path / "m")]) == 0
        calls = 3
    assert len(pairs) == calls and all(p is pairs[0] for p in pairs)
