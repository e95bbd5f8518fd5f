from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from solmanifold import (
    RadialField,
    RadialGrid,
    SpaceTimeField,
    evolve_nonlinear,
    extract_modulation,
    ground_state,
    h_fixed_point,
    inner_product,
    make_query,
    picard_map,
    picard_transport,
    shoot_h,
    x_norm,
    xpm_evolution,
)
from solmanifold import GridUsageError, soliton
from solmanifold.grid import pair_w
from solmanifold.modulation import (
    _ROWS,
    LeftModulationWindow,
    ManifoldQuery,
    PicardIterate,
    _quintic_force,
    _series_roots,
    modulation_rate_series,
)
from solmanifold.spectral import secular_coefficient

from oracles import (
    antidiagonal_sums,
    kernel_sums,
    modulation_series,
    nonlinearity,
    project_continuous_w,
    restricted,
    source_stacks,
    stored_leapfrog,
    stored_linear,
    stored_nonlinear,
    trajectory_modulation,
)


@pytest.fixture(scope="module")
def query_mod(mod_grid, S_mod):
    b = mod_grid.field(np.exp(-((mod_grid.r - 2.0) ** 2)))
    nb = np.sqrt(inner_product(b, b))
    return make_query(S_mod, RadialField(mod_grid, 4e-4 * b.values / nb), mod_grid.zeros())


@pytest.fixture(scope="module")
def query_psi1(mod_grid, S_mod, query_mod):
    """query_mod with a velocity: psi1 has a continuous-spectrum part."""
    psi1 = mod_grid.field(2e-4 * mod_grid.r * np.exp(-((mod_grid.r - 3.0) ** 2)))
    return make_query(S_mod, query_mod.psi0_perturbation, psi1)


@pytest.fixture(scope="module")
def manifold_run(mod_grid, S_mod, query_mod):
    """Shoot once, evolve on-manifold densely; reused by several tests."""
    dt = 0.8 * mod_grid.dr
    res = shoot_h(query_mod, S_mod, 18.0, dt)
    run = stored_nonlinear(*query_mod.initial_data(S_mod, res.h), 18.0, dt, S=S_mod)
    return res, run, dt


def _strided(traj, s):
    """Every s-th row of a trajectory: a stride-s run stores exactly these."""
    return SpaceTimeField(traj.grid, s * traj.dt, traj.samples[::s])


def test_nonlinearity_examples(mod_grid):
    phi_f = soliton.phi_field(mod_grid)
    assert np.max(np.abs(nonlinearity(mod_grid.zeros(), phi_f).values)) == 0.0
    out = nonlinearity(phi_f, phi_f)
    assert np.allclose(out.values, 26.0 * phi_f.values**5, rtol=1e-12)
    u = mod_grid.field(np.full(mod_grid.n, 0.3))
    out = nonlinearity(u, mod_grid.zeros())
    assert np.allclose(out.values, 0.3**5, rtol=1e-12)


def test_soliton_is_stationary(mod_grid, S_mod):
    from solmanifold.grid import h1_seminorm

    dt = 0.8 * mod_grid.dr
    run = stored_nonlinear(
        soliton.phi_field(mod_grid), mod_grid.zeros(), 20.0, dt, S=S_mod, stride=50
    )
    assert run.status == "completed"
    drift = max(
        h1_seminorm(run.psi.slice(m) - soliton.phi_field(mod_grid), radius=mod_grid.R_obs)
        for m in range(run.psi.samples.shape[0])
    )
    assert drift <= 10 * mod_grid.dr**2


def test_soliton_is_an_exact_equilibrium(mod_grid, S_mod):
    # the force at u = 0 is exactly 0 only if w_phi^5 is rounded exactly as
    # the step's own fifth power of w_phi + w_u
    dt = 0.8 * mod_grid.dr
    phi = soliton.phi_field(mod_grid)
    run = stored_nonlinear(phi, mod_grid.zeros(), 250 * dt, dt, S=S_mod)
    assert run.status == "completed"
    assert len(run.times_dense) == 251
    assert all(np.array_equal(row, phi.values) for row in run.psi.samples)
    assert not run.g_overlap.any()


def test_pow_free_force_and_energy_match_pow_formulas(mod_grid):
    from solmanifold.grid import h1_seminorm
    from solmanifold.norms import energy

    grid = mod_grid
    r = grid.r
    dt = 0.8 * grid.dr
    phi = soliton.phi(r, 1.0)
    wphi = r * phi
    b = grid.field(0.3 * np.exp(-((r - 2.0) ** 2)))
    run = stored_nonlinear(b, grid.zeros(), 16.0, dt, stride=40)
    force = _quintic_force(r, wphi)
    rows = run.psi.samples.shape[0]
    assert rows >= 10
    for m in range(1, rows - 1):
        psi, psi_t = run.psi.slice(m), run.dpsi_dt.slice(m)
        wu = r * (psi.values - phi)
        new = np.zeros(grid.n - 2)
        force(wu, m, new)
        old = ((wphi[1:-1] + wu[1:-1]) ** 5 - wphi[1:-1] ** 5) / r[1:-1] ** 4
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
        cube = grid.field(psi.values**3)
        E_old = 0.5 * (h1_seminorm(psi) ** 2 + inner_product(psi_t, psi_t))
        E_old -= inner_product(cube, cube) / 6.0
        assert abs(energy(psi, psi_t) - E_old) <= 1e-14 * abs(E_old)


def test_energy_conserved_along_nonlinear(mod_grid, S_mod):
    from solmanifold.norms import energy

    dt = 0.8 * mod_grid.dr
    b = mod_grid.field(0.3 * np.exp(-((mod_grid.r - 2.0) ** 2)))
    run = stored_nonlinear(b, mod_grid.zeros(), 20.0, dt, stride=10)
    E = [
        energy(run.psi.slice(m), run.dpsi_dt.slice(m))
        for m in range(1, run.psi.samples.shape[0] - 1)
    ]
    drift = max(abs(e - E[0]) for e in E) / abs(E[0])
    assert drift < 1e-3


def test_unstable_mode_departure_rate(mod_grid, S_mod):
    dt = 0.8 * mod_grid.dr
    d = 1e-3
    psi0 = RadialField(mod_grid, soliton.phi(mod_grid.r, 1.0) + d * S_mod.g.values)
    psi1 = RadialField(mod_grid, d * S_mod.k * S_mod.g.values)
    run = evolve_nonlinear(psi0, psi1, 10.0, dt, S=S_mod, overlap_cap=0.1)
    assert run.status == "departed"
    ov = run.g_overlap
    t = run.times_dense
    m = (np.abs(ov) > 3e-3) & (np.abs(ov) < 3e-2)
    rate = np.polyfit(t[m], np.log(np.abs(ov[m])), 1)[0]
    assert rate == pytest.approx(S_mod.k, rel=0.02)


def test_blowup_detected_as_outcome(mod_grid, S_mod):
    dt = 0.8 * mod_grid.dr
    psi0 = RadialField(mod_grid, soliton.phi(mod_grid.r, 1.0) + 0.3 * S_mod.g.values)
    run = evolve_nonlinear(psi0, mod_grid.zeros(), 20.0, dt, S=S_mod)
    assert run.status == "blowup"
    assert run.departure_time is not None and np.sign(run.g_overlap[-1]) != 0


@pytest.mark.parametrize("cap", [None, 0.1])
def test_strided_run_stores_the_dense_rows(mod_grid, S_mod, cap):
    # cap None completes at M = 75 steps; cap 0.1 departs early
    dt = 0.8 * mod_grid.dr
    d = 1e-3
    psi0 = RadialField(mod_grid, soliton.phi(mod_grid.r, 1.0) + d * S_mod.g.values)
    psi1 = RadialField(mod_grid, d * S_mod.k * S_mod.g.values)
    T = 3.0 if cap is None else 10.0
    dense = stored_nonlinear(psi0, psi1, T, dt, S=S_mod, overlap_cap=cap)
    assert dense.status == ("completed" if cap is None else "departed")
    m_end = len(dense.times_dense) - 1
    # dpsi_dt is five-point centred inside, centred next to the ends and
    # one-sided at both ends
    psi, dpsi = dense.psi.samples, dense.dpsi_dt.samples
    ref = np.empty_like(psi)
    ref[2:-2] = (-psi[4:] + 8.0 * psi[3:-1] - 8.0 * psi[1:-3] + psi[:-4]) / (12.0 * dt)
    ref[[1, -2]] = (psi[[2, -1]] - psi[[0, -3]]) / (2.0 * dt)
    ref[0] = (psi[1] - psi[0]) / dt
    ref[-1] = (psi[-1] - psi[-2]) / dt
    assert np.max(np.abs(dpsi - ref)) < 1e-9 * np.max(np.abs(dpsi))
    # strides 2 and 59 store the state m_end - 1 of the completed (75) and
    # of the departed (60) run, whose rate is centred, not five-point
    for s in (2, 3, 5, 7, 59):
        run = stored_nonlinear(psi0, psi1, T, dt, S=S_mod, stride=s, overlap_cap=cap)
        assert (run.status, run.departure_time) == (dense.status, dense.departure_time)
        assert np.array_equal(run.g_overlap, dense.g_overlap)
        assert run.psi.dt == run.dpsi_dt.dt == s * dt
        assert run.psi.samples.shape[0] == m_end // s + 1
        assert np.array_equal(run.psi.samples, dense.psi.samples[::s])
        assert np.array_equal(run.dpsi_dt.samples, dense.dpsi_dt.samples[::s])


@pytest.mark.parametrize(
    "stride, with_S, cap, T",
    [
        (10, False, None, 8.0),
        (5, True, None, 3.0),
        # departs at step 60; stride 1 leaves both of the last two rows to the flush
        (1, True, 0.1, 10.0),
    ],
)
def test_consumer_sees_the_stored_rows(mod_grid, S_mod, stride, with_S, cap, T):
    dt = 0.8 * mod_grid.dr
    if with_S:
        d = 1e-3
        psi0 = RadialField(mod_grid, soliton.phi(mod_grid.r, 1.0) + d * S_mod.g.values)
        psi1 = RadialField(mod_grid, d * S_mod.k * S_mod.g.values)
    else:
        psi0 = mod_grid.field(0.3 * np.exp(-((mod_grid.r - 2.0) ** 2)))
        psi1 = mod_grid.zeros()
    S = S_mod if with_S else None
    stored = stored_nonlinear(psi0, psi1, T, dt, S=S, stride=stride, overlap_cap=cap)
    got = []
    streamed = evolve_nonlinear(
        psi0, psi1, T, dt, S=S, stride=stride, overlap_cap=cap,
        consume=lambda j, psi, psi_t: got.append((j, psi, psi_t)),
    )
    assert stored.status == ("completed" if cap is None else "departed")
    assert not {"psi", "dpsi_dt"} & set(vars(streamed))  # the package's run stores none
    assert (streamed.status, streamed.departure_time) == (stored.status, stored.departure_time)
    assert np.array_equal(streamed.times_dense, stored.times_dense)
    assert np.array_equal(streamed.g_overlap, stored.g_overlap)
    assert [j for j, _, _ in got] == list(range(stored.psi.samples.shape[0]))
    for j, psi, psi_t in got:
        assert np.array_equal(psi.values, stored.psi.slice(j).values)
        assert np.array_equal(psi_t.values, stored.dpsi_dt.slice(j).values)


def test_kept_fields_outlive_the_loops_blocks(mod_grid):
    # a consumer that keeps every RadialField it gets, as _energy_drift
    # keeps the previous snapshot, still holds the stored run's rows once
    # the run is over: the fields are copies, never views of the block
    # buffer the loop reuses for each later snapshot
    dt = 0.8 * mod_grid.dr
    psi0 = mod_grid.field(0.3 * np.exp(-((mod_grid.r - 2.0) ** 2)))
    kept = []
    evolve_nonlinear(psi0, mod_grid.zeros(), 3.0, dt, stride=2,
                     consume=lambda j, psi, psi_t: kept.append((psi, psi_t)))
    stored = stored_nonlinear(psi0, mod_grid.zeros(), 3.0, dt, stride=2)
    assert len(kept) == len(stored.psi.samples) > 2
    assert np.array_equal([psi.values for psi, _ in kept], stored.psi.samples)
    assert np.array_equal([psi_t.values for _, psi_t in kept], stored.dpsi_dt.samples)


def test_streamed_rows_are_checked_finite(mod_grid):
    # a stored run checks its stacks when they become SpaceTimeFields; a
    # streamed one checks each row before handing it on
    from solmanifold.grid import GridUsageError

    dt = 0.8 * mod_grid.dr
    psi0 = RadialField(mod_grid, np.full(mod_grid.n, np.nan))
    with pytest.raises(GridUsageError, match="non-finite trajectory samples"):
        evolve_nonlinear(psi0, mod_grid.zeros(), 1.0, dt, stride=10, consume=lambda *row: None)


def test_nan_run_without_S_stops_at_its_first_tested_step(mod_grid):
    # without S the overlap test sees nothing, so the sup test must catch a
    # NaN: the dense run stops at step 2, and the stored and the streamed
    # strided runs then fail alike on their non-finite rows
    from solmanifold.grid import GridUsageError

    dt = 0.8 * mod_grid.dr
    psi0 = RadialField(mod_grid, np.full(mod_grid.n, np.nan))
    run = evolve_nonlinear(psi0, mod_grid.zeros(), 1.0, dt)
    assert run.status == "blowup"
    assert run.departure_time == 2 * dt
    for evolve in (stored_nonlinear, partial(evolve_nonlinear, consume=lambda *row: None)):
        with pytest.raises(GridUsageError, match="non-finite trajectory samples"):
            evolve(psi0, mod_grid.zeros(), 1.0, dt, stride=10)


def test_nonlinear_memory_follows_stored_rows():
    # doubling T and stride together keeps the stored rows, so the peak
    # allocation stays put; storing every step would double it
    import tracemalloc

    from solmanifold import RadialGrid

    grid = RadialGrid(R=30.0, n=601)
    dt = 0.8 * grid.dr
    b = grid.field(0.3 * np.exp(-((grid.r - 2.0) ** 2)))

    def peak(T, stride):
        tracemalloc.start()
        try:
            stored_nonlinear(b, grid.zeros(), T, dt, stride=stride)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(8.0, 10), peak(16.0, 20)
    assert long < 1.25 * short
    steps = int(round(16.0 / dt)) + 1
    assert long < 0.5 * steps * grid.n * 8


def test_stride_one_run_holds_two_stacks():
    # psi and dpsi_dt are the loop's own two (M+1, n) stacks, converted in
    # place; a copy of the rows or a second pass for the rates adds a third
    import tracemalloc

    from solmanifold import RadialGrid

    grid = RadialGrid(R=30.0, n=601)
    dt = 0.8 * grid.dr
    b = grid.field(0.3 * np.exp(-((grid.r - 2.0) ** 2)))
    tracemalloc.start()
    try:
        run = stored_nonlinear(b, grid.zeros(), 8.0, dt)
        shapes = run.psi.samples.shape, run.dpsi_dt.samples.shape
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = int(round(8.0 / dt)) + 1
    assert shapes == ((steps, grid.n),) * 2
    assert peak < 2.5 * steps * grid.n * 8


def test_extract_modulation_exact_roots(mod_grid, S_mod):
    for a_star in (0.9, 1.0, 1.1):
        psi = soliton.phi_field(mod_grid, a_star)
        got = extract_modulation(psi, S_mod)
        assert got == pytest.approx(a_star, abs=1e-8)


def test_extract_modulation_g_neutrality(mod_grid, S_mod):
    # g-perturbations are nearly modulation-neutral: the first-order response
    # is <g, V dphi> c / <dphi, V dphi>, so pick c small enough for 1e-4
    c = 5e-5
    psi = RadialField(mod_grid, soliton.phi(mod_grid.r, 1.0) + c * S_mod.g.values)
    got = extract_modulation(psi, S_mod)
    assert abs(got - 1.0) < 1e-4


def test_extract_modulation_least_squares_consistency(mod_grid, S_mod, rng):
    # the orthogonality root sits within 1e-3 of the H1 best fit
    from solmanifold.grid import h1_seminorm

    pert = 1e-3 * rng.standard_normal(3)
    a_true = 1.05
    psi = RadialField(
        mod_grid,
        soliton.phi(mod_grid.r, a_true)
        + 1e-3 * np.exp(-((mod_grid.r - 2.0) ** 2)),
    )
    a_orth = extract_modulation(psi, S_mod)

    def h1_dist(a):
        return h1_seminorm(
            RadialField(mod_grid, psi.values - soliton.phi(mod_grid.r, a))
        )

    # golden-section scan
    lo, hi = 0.9, 1.2
    for _ in range(60):
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        if h1_dist(m1) < h1_dist(m2):
            hi = m2
        else:
            lo = m1
    a_ls = 0.5 * (lo + hi)
    assert abs(a_orth - a_ls) < 1e-3


def test_extract_modulation_window_error(mod_grid, S_mod):
    psi = soliton.phi_field(mod_grid, 0.45)  # outside the trusted window
    with pytest.raises(LeftModulationWindow):
        extract_modulation(psi, S_mod)


def _brentq_scale(row, grid, a_prev):
    """The extraction modulation_series replaced, kept as its oracle: a
    bracket grown outward from the previous scale, closed by brentq.
    Returns None when the bracket cannot be closed inside the window."""
    from scipy.optimize import brentq

    r = grid.r

    def F(a):
        return inner_product(
            RadialField(grid, row - soliton.phi(r, a)),
            grid.field(soliton.resonance_weight(r, a)),
        )

    lo, hi = soliton.MODULATION_WINDOW
    a0 = min(max(a_prev, lo + 1e-9), hi - 1e-9)
    step = 0.01
    aL = aR = a0
    fL = fR = F(a0)
    for _ in range(60):
        if fL > 0:
            aL = max(lo, aL - step)
            fL = F(aL)
        if fR < 0:
            aR = min(hi, aR + step)
            fR = F(aR)
        step *= 1.6
        if fL <= 0 <= fR:
            break
    else:
        return None
    if fL == 0.0:
        return aL
    if fR == 0.0:
        return aR
    return brentq(F, aL, aR, xtol=1e-14, rtol=1e-14)


def test_modulation_series_matches_brentq_oracle(manifold_run, mod_grid, S_mod):
    _, run, _ = manifold_run
    samples = run.psi.samples
    a, u = modulation_series(samples, S_mod)
    ref = []
    for row in samples:
        ref.append(_brentq_scale(row, mod_grid, ref[-1] if ref else 1.0))
    assert None not in ref
    assert np.max(np.abs(a - ref)) < 1e-13
    assert np.array_equal(u, samples - soliton.phi(mod_grid.r, a[:, None]))


def test_modulation_series_window_miss_raises(mod_grid, S_mod):
    # a miss on the first row, on a middle row and after _ROWS good rows
    for scales, row in (
        ((0.45, 1.1), 0),
        ((1.0, 0.45, 1.1), 1),
        ([1.0 + 1e-3 * m for m in range(_ROWS)] + [0.45], _ROWS),
    ):
        rows = np.array([soliton.phi(mod_grid.r, s) for s in scales])
        with pytest.raises(LeftModulationWindow, match=rf"^row {row} has no modulation root in "):
            modulation_series(rows, S_mod)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_modulation_series_non_finite_row_is_a_miss(mod_grid, S_mod, bad):
    # one non-finite entry in a middle row of a stack longer than one block
    rows = soliton.phi(mod_grid.r, np.linspace(0.9, 1.1, 2 * _ROWS + 1)[:, None])
    rows[_ROWS + 3, 17] = bad
    with pytest.raises(LeftModulationWindow, match=rf"^row {_ROWS + 3} has no modulation root in "):
        modulation_series(rows, S_mod)


def test_series_roots_on_the_window_ends():
    # F(s) = 1 + s and 1 - s vanish exactly at s = -1 and s = 1: a root, not a miss
    s, miss = _series_roots(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert not miss.any()
    assert np.max(np.abs(s - [-1.0, 1.0])) < 1e-15


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_series_roots_solve_each_column_alone():
    # one root-find serves every run of a sweep only if each column gets the
    # bits it has alone.  Columns c0 + c1 T_1 + small terms, |c0| < 1/2 and
    # |c1| = 1, change sign once on [-1, 1]; column 5 does not, and columns
    # 6 and 7 hold a NaN and an inf
    rng = np.random.default_rng(3)
    coef = rng.standard_normal((32, 16)) * 0.1 ** np.arange(32)[:, None]
    coef[0] = rng.uniform(-0.5, 0.5, 16)
    coef[1] = rng.choice([-1.0, 1.0], 16)
    coef[0, 5], coef[1, 5] = 3.0, 1.0
    coef[4, 6], coef[7, 7] = np.nan, np.inf
    s, miss = _series_roots(coef)
    assert list(np.flatnonzero(miss)) == [5, 6, 7]
    for j in range(coef.shape[1]):
        s_j, miss_j = _series_roots(coef[:, j : j + 1])
        assert np.array_equal(s_j, s[j : j + 1], equal_nan=True) and miss_j[0] == miss[j]


def test_modulation_series_roots_near_the_window_edges(mod_grid, S_mod):
    lo, hi = soliton.MODULATION_WINDOW
    scales = [lo + 1e-3, hi - 1e-3]
    rows = np.array([soliton.phi(mod_grid.r, s) for s in scales])
    a, _ = modulation_series(rows, S_mod)
    assert np.max(np.abs(a - scales)) < 1e-12


@pytest.mark.parametrize("n_rows", [3, 351])
def test_modulation_series_evaluates_the_profiles_once(monkeypatch, mod_grid, S_mod, n_rows):
    # one evaluation at the Chebyshev nodes per series, whatever its length
    calls = []
    weight = soliton.resonance_weight

    def counted(r, a=1.0):
        calls.append(a)
        return weight(r, a)

    monkeypatch.setattr(soliton, "resonance_weight", counted)
    scales = np.linspace(0.9, 1.1, n_rows)
    a, _ = modulation_series(soliton.phi(mod_grid.r, scales[:, None]), S_mod)
    assert np.max(np.abs(a - scales)) < 1e-12
    assert len(calls) == 1


def test_make_query_constraint(mod_grid, S_mod, rng):
    b = mod_grid.field(rng.standard_normal(mod_grid.n) * 1e-3)
    c = mod_grid.field(rng.standard_normal(mod_grid.n) * 1e-3)
    q = make_query(S_mod, b, c)
    assert q.constraint_residual < 1e-10
    assert abs(inner_product(q.psi0_perturbation, S_mod.g)) < 1e-14
    assert abs(inner_product(q.psi1, S_mod.g)) < 1e-14
    assert q.epsilon > 0


def test_adot_zero_for_orthogonal_data(mod_grid, S_mod):
    # u(0) orthogonal to V dphi gives adot(0) = 0
    q = RadialField(
        mod_grid, soliton.potential(mod_grid.r, 1.0) * S_mod.resonance.values
    )
    b = mod_grid.field(np.exp(-((mod_grid.r - 2.0) ** 2)))
    b2 = RadialField(
        mod_grid, b.values - inner_product(b, q) / inner_product(q, q) * q.values
    )
    ser = modulation_rate_series(b2, mod_grid.zeros(), None, [1.0], [0.0], S_mod, 0.0, 0.04)
    assert abs(ser[0]) < 1e-12


def test_adot_initial_magnitude(mod_grid, S_mod):
    # |adot(0)| = cQ |<V dphi, u(0)>|; orientation is pinned by the secular
    # cancellation (opposite to some written accounts, see ledger)
    b = mod_grid.field(1e-3 * np.exp(-((mod_grid.r - 2.0) ** 2)))
    ser = modulation_rate_series(b, mod_grid.zeros(), None, [1.0], [0.0], S_mod, 0.0, 0.04)
    q = RadialField(
        mod_grid, soliton.potential(mod_grid.r, 1.0) * S_mod.resonance.values
    )
    expected = secular_coefficient(S_mod) * inner_product(q, b)
    assert abs(ser[0]) == pytest.approx(abs(expected), rel=1e-12)
    assert ser[0] == pytest.approx(-expected, rel=1e-12)


def test_simplified_ansatz_modulation_integral(mod_grid, S_mod):
    # data (phi, psi1): the velocity-only modulation rate integrates to
    # (4 pi / <V,dphi>^2) <dphi, psi1> as the horizon grows (the resonance
    # pairing identity in adot form); for psi1 = phi^5 the limit vanishes
    dt = mod_grid.dr
    T = mod_grid.budget_horizon()
    M = int(round(T / dt))
    cQ = secular_coefficient(S_mod)
    for profile, expected in (
        (mod_grid.field(np.exp(-(mod_grid.r**2))), None),
        (mod_grid.field(soliton.phi(mod_grid.r, 1.0) ** 5), 0.0),
    ):
        ser = modulation_rate_series(
            mod_grid.zeros(), profile, None, np.ones(M + 1), np.zeros(M + 1),
            S_mod, T, dt,
        )
        total = float(np.trapezoid(ser, dx=dt))
        target = (
            cQ * inner_product(S_mod.resonance, profile) if expected is None else 0.0
        )
        scale = cQ * inner_product(
            RadialField(mod_grid, np.abs(S_mod.resonance.values)),
            RadialField(mod_grid, np.abs(profile.values)),
        )
        assert abs(total - target) < 0.02 * scale


def test_h_fixed_point_zero_histories(mod_grid, S_mod):
    M = 100
    dt = 0.04
    u0 = SpaceTimeField(mod_grid, dt, np.zeros((M + 1, mod_grid.n)))
    h, tail = h_fixed_point(u0, np.ones(M + 1), S_mod)
    assert h == 0.0
    assert tail == 0.0


def test_h_fixed_point_window_guard(mod_grid, S_mod):
    M = 10
    dt = 0.04
    u0 = SpaceTimeField(mod_grid, dt, np.zeros((M + 1, mod_grid.n)))
    a0 = np.ones(M + 1)
    a0[-1] = 1.6
    with pytest.raises(LeftModulationWindow):
        h_fixed_point(u0, a0, S_mod)


def test_h_quadratic_dominance(mod_grid, S_mod):
    # h(lambda u0)/h(u0) -> lambda^2 when the quadratic nonlinear term dominates
    M = 200
    dt = 0.04
    b = np.exp(-((mod_grid.r - 2.0) ** 2))
    profile = np.outer(np.exp(-0.3 * dt * np.arange(M + 1)), 1e-3 * b)
    hs = []
    for lam in (1.0, 0.5, 0.25):
        u0 = SpaceTimeField(mod_grid, dt, lam * profile)
        h, _ = h_fixed_point(u0, np.ones(M + 1), S_mod)
        hs.append(h)
    assert hs[1] / hs[0] == pytest.approx(0.25, rel=0.01)
    assert hs[2] / hs[0] == pytest.approx(0.0625, rel=0.01)


def test_shoot_h_zero_perturbation(mod_grid, S_mod):
    q = make_query(S_mod, mod_grid.zeros(), mod_grid.zeros())
    res = shoot_h(q, S_mod, 14.0, 0.8 * mod_grid.dr, h_max=1e-9)
    assert abs(res.h) < 1e-12


def test_shoot_h_agrees_with_fixed_point(manifold_run, mod_grid, S_mod, query_mod):
    res, run, dt = manifold_run
    M = int(round(14.0 / dt))
    u_traj = SpaceTimeField(
        mod_grid, dt, run.psi.samples[: M + 1] - soliton.phi(mod_grid.r, 1.0)
    )
    pg0 = pair_w(query_mod.psi0_perturbation, S_mod.g)
    pg1 = pair_w(query_mod.psi1, S_mod.g)
    h_fp, tail = h_fixed_point(
        u_traj,
        np.ones(M + 1),
        S_mod,
        pert_overlap_w=pg0,
        psi1_overlap_w=pg1,
    )
    assert abs(h_fp - res.h) < 1e-3 * query_mod.epsilon**2


@pytest.fixture(scope="module")
def small_shots():
    """Three h_scaling sweep points on a small grid, shot at T = 10: (S, [(query, h)], dt)."""
    from solmanifold.experiments import seeded_query

    grid = RadialGrid(R=30.0, n=301, R_obs=10.0)
    S = ground_state(grid)
    dt = 0.8 * grid.dr
    queries = [seeded_query(grid, S, eps, 6) for eps in (1e-4, 2e-4, 4e-4)]
    return S, [(q, shoot_h(q, S, 10.0, dt).h) for q in queries], dt


def test_stacked_quintic_rows_equal_their_own_runs(small_shots):
    # every operation of the stacked leapfrog acts along the last axis or
    # elementwise, so each row of a K = 3 stack is its K = 1 run, bit for bit
    from solmanifold.modulation import _u_frame

    S, shots, dt = small_shots
    grid = S.grid
    r = grid.r
    phi, wphi = _u_frame(grid, S)[:2]
    # the shot data, and one off the manifold that the force drives hard
    data = [q.initial_data(S, h) for q, h in shots[:2]] + [shots[2][0].initial_data(S, 0.01)]
    w0 = np.array([(psi0.values - phi) * r for psi0, _ in data])
    w1 = np.array([r * psi1.values for _, psi1 in data])
    rows = stored_leapfrog(grid, w0, w1, 2.0, dt, _quintic_force(r, wphi, (3,)))
    assert rows.shape == (int(round(2.0 / dt)) + 1, 3, grid.n)
    assert np.abs(rows[-1, 2]).max() > 100 * np.abs(rows[-1, 0]).max()
    for k in range(3):
        alone = stored_leapfrog(grid, w0[k], w1[k], 2.0, dt, _quintic_force(r, wphi))
        assert np.array_equal(rows[:, k], alone)


def test_streamed_fixed_point_h_equals_the_stored_run(manifold_run, mod_grid, S_mod, query_mod):
    # the two passes store no run, yet give h_fixed_point's bits along the
    # stored stride-1 run at each shot h, over the trimmed horizon 18 - 4 of
    # the h_scaling grid: every row is paired with the proxy by its own dot
    # products, so 32-row blocks give the scales of the whole run
    from solmanifold.modulation import _fixed_point_hs

    from oracles import stored_fixed_point_h

    res, _, dt = manifold_run
    other = make_query(S_mod, RadialField(mod_grid, 2.0 * query_mod.psi0_perturbation.values),
                       mod_grid.zeros())
    shots = [(query_mod, res.h), (other, shoot_h(other, S_mod, 18.0, dt).h)]
    streamed = _fixed_point_hs([q for q, _ in shots], [h for _, h in shots], S_mod, 14.0, dt)
    for (q, h), got in zip(shots, streamed):
        assert got == stored_fixed_point_h(q, h, S_mod, 14.0, dt)
        assert abs(got[0] - h) < 1e-3 * q.epsilon**2


def test_streamed_fixed_point_h_equals_the_stored_run_on_a_small_grid(small_shots):
    # R = 30, n = 301, T = 6 (76 rows): when the proxy products were one
    # matrix product per block, h differed here from the stored run's by
    # 1.8e-9 relative
    from solmanifold.modulation import _fixed_point_hs

    from oracles import stored_fixed_point_h

    S, shots, dt = small_shots
    streamed = _fixed_point_hs([q for q, _ in shots], [h for _, h in shots], S, 6.0, dt)
    for (q, h), got in zip(shots, streamed):
        assert got == stored_fixed_point_h(q, h, S, 6.0, dt)


def test_the_scales_of_a_run_do_not_depend_on_its_blocking(small_shots):
    # each row's proxy products, and so every scale, are the same in blocks
    # of 1, 7 and 32 rows as in one product of the whole run
    from solmanifold.modulation import _modulation_proxy

    from oracles import stored_nonlinear

    S, shots, dt = small_shots
    q, h = shots[1]
    samples = stored_nonlinear(*q.initial_data(S, h), 6.0, dt, S=S).psi.samples
    product, scales = _modulation_proxy(S)
    whole = product(samples)
    a, miss = scales([whole])
    assert whole.shape == (len(samples), 32) and not miss.any()
    for size in (1, 7, 32):
        blocked = np.concatenate([product(samples[s : s + size])
                                  for s in range(0, len(samples), size)])
        assert np.array_equal(blocked, whole)
        assert np.array_equal(scales([blocked])[0], a)


@pytest.mark.parametrize("offset, error, match", [
    (1e-2, "PropagatorError", r"^nonlinear run of sweep point 1 ended 'blowup' at t=2\.32 of T=6\.0$"),
    (-1e-2, "LeftModulationWindow", r"^sweep point 1: row 28 has no modulation root in \(0\.5, 1\.5\)$"),
])
def test_a_stacked_point_off_the_manifold_fails_typed(small_shots, offset, error, match):
    # point 1 of two, moved off the manifold along g: one sign collapses,
    # the other spreads out of the window; either failure names point 1
    from solmanifold import modulation

    S, shots, dt = small_shots
    q, h = shots[0]
    with pytest.raises(getattr(modulation, error), match=match):
        modulation._fixed_point_hs([q, q], [h, h + offset], S, 6.0, dt)


def test_the_passes_hold_less_than_one_stored_run(manifold_run, S_mod, query_mod):
    # each pass holds _ROWS rows per point, against the (M+1, n) stack the
    # stored run held (M = 350, n = 1201)
    import tracemalloc

    from solmanifold.modulation import _fixed_point_hs

    res, _, dt = manifold_run
    tracemalloc.start()
    try:
        _fixed_point_hs([query_mod, query_mod], [res.h, res.h], S_mod, 14.0, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (int(round(14.0 / dt)) + 1) * S_mod.grid.n * 8


def test_xpm_evolution_pure_decay(mod_grid, S_mod):
    # frozen (u0, a0) = (0, 1), decaying data: x_minus(t) = x_minus(0) e^{-kt}
    M = 200
    dt = 0.04
    u0 = SpaceTimeField(mod_grid, dt, np.zeros((M + 1, mod_grid.n)))
    d = 1e-3
    pert = RadialField(mod_grid, d * S_mod.g.values)
    psi1 = RadialField(mod_grid, -d * S_mod.k * S_mod.g.values)
    query = ManifoldQuery(pert, psi1, epsilon=d, constraint_residual=0.0)

    xp, xm, tail = xpm_evolution(u0, np.ones(M + 1), query, S_mod, 0.0)
    t = dt * np.arange(M + 1)
    expected = xm[0] * np.exp(-S_mod.k * t)
    assert np.max(np.abs(xm - expected)) < 1e-12 * abs(xm[0]) + 1e-15
    assert np.max(np.abs(xp)) < 1e-15


def test_picard_zero_fixed_point(mod_grid, S_mod):
    q = make_query(S_mod, mod_grid.zeros(), mod_grid.zeros())
    T, dt = 8.0, 0.8 * mod_grid.dr
    it = picard_map(None, None, None, q, S_mod, T, dt, picard_transport(S_mod, T, dt))
    assert it.h == 0.0
    assert np.max(np.abs(it.u.samples)) == 0.0
    assert np.max(np.abs(it.adot)) == 0.0


def test_picard_limit_matches_nonlinear_flow(mod_grid, S_mod, query_mod):
    # the Picard limit reconstructs the same psi as the nonlinear solver
    # (gauge-free comparison), to discretization accuracy
    dt = 0.8 * mod_grid.dr
    T = 12.0
    transport = picard_transport(S_mod, T, dt)
    it = picard_map(None, None, None, query_mod, S_mod, T, dt, transport)
    for _ in range(3):
        it = picard_map(it.u, it.a, it.adot, query_mod, S_mod, T, dt, transport)
    res = shoot_h(query_mod, S_mod, T, dt)
    assert abs(it.h - res.h) < 0.05 * query_mod.epsilon**2
    run = stored_nonlinear(*query_mod.initial_data(S_mod, res.h), T, dt, S=S_mod)
    sl = mod_grid.obs_slice()
    data_scale = np.max(np.abs(query_mod.psi0_perturbation.values))
    worst = 0.0
    for m in range(0, run.psi.samples.shape[0], 15):
        psi_pic = it.u.samples[m] + soliton.phi(mod_grid.r, it.a[m])
        psi_nl = run.psi.samples[m]
        worst = max(worst, np.max(np.abs(psi_pic[sl] - psi_nl[sl])))
    assert worst < 0.05 * data_scale


def test_picard_contracts(mod_grid, S_mod, query_mod):
    dt = 0.8 * mod_grid.dr
    T = 14.0
    transport = picard_transport(S_mod, T, dt)
    it1 = picard_map(None, None, None, query_mod, S_mod, T, dt, transport)
    it2 = picard_map(it1.u, it1.a, it1.adot, query_mod, S_mod, T, dt, transport)
    it3 = picard_map(it2.u, it2.a, it2.adot, query_mod, S_mod, T, dt, transport)
    d21 = x_norm(it2.u.samples - it1.u.samples, it2.adot - it1.adot, dt, mod_grid)
    d32 = x_norm(it3.u.samples - it2.u.samples, it3.adot - it2.adot, dt, mod_grid)
    assert d32 < d21
    assert d32 / d21 < 0.1


def test_picard_h_converges_to_the_shooting_h():
    # the third route to h: iterating the Picard map from the zero history
    # converges to an h that agrees with shoot_h's up to an O(dr^2) gap
    # (R = 20, T = 8, cfl 0.8, eps 1e-3; gap in units of 1e-3 eps^2).
    # Measured: ratios of successive h differences at least 117 and 837,
    # gap 0.5165 / 0.1260 / 0.0315 (seed 3) and 0.5437 / 0.1326 / 0.0331
    # (seed 8) at n = 101 / 201 / 401, observed orders 2.03 and 2.00.
    # The bounds:
    # - each ratio >= 50: criterion 9 measures contraction ratios near 1e-3
    #   at eps of this size, so each h difference should shrink by two orders
    #   or more; 50 keeps a 2.3x margin below the smallest measured ratio,
    #   and a map that does not converge (ratio near 1) fails by far;
    # - |gap| < 1 at n >= 201: criterion 7's agreement bound between shooting
    #   and the fixed-point formula, which the Picard h must also meet;
    # - order in [1.8, 2.2]: the gap is a second-order spatial term; the
    #   window admits the higher-order part at n = 101 (2.03) and rejects a
    #   first-order gap or one that does not shrink
    from solmanifold.experiments import seeded_query

    for seed in (3, 8):
        gaps = []
        for n in (101, 201, 401):
            grid = RadialGrid(R=20.0, n=n)
            S = ground_state(grid)
            T, dt = 8.0, 0.8 * grid.dr
            query = seeded_query(grid, S, 1e-3, seed)
            transport = picard_transport(S, T, dt)
            it = picard_map(None, None, None, query, S, T, dt, transport)
            hs = [it.h]
            for _ in range(3):
                it = picard_map(it.u, it.a, it.adot, query, S, T, dt, transport)
                hs.append(it.h)
            d = np.abs(np.diff(hs))
            assert d[0] / d[1] >= 50 and d[1] / d[2] >= 50, (seed, n, d)
            gaps.append((hs[-1] - shoot_h(query, S, T, dt).h) / (1e-3 * query.epsilon**2))
        assert abs(gaps[1]) < 1 and abs(gaps[2]) < 1, (seed, gaps)
        orders = np.log2(np.divide(gaps[:-1], gaps[1:]))
        assert np.all((orders >= 1.8) & (orders <= 2.2)), (seed, gaps, orders)


def test_trajectory_modulation_diagnostics(manifold_run, mod_grid, S_mod):
    res, run, dt = manifold_run
    # re-run strided to the trimmed horizon for analysis
    traj = trajectory_modulation(
        type(run)(
            grid=run.grid,
            dt=run.dt,
            status=run.status,
            times_dense=run.times_dense,
            g_overlap=run.g_overlap,
            psi=restricted(_strided(run.psi, 5), 14.0),
            dpsi_dt=restricted(_strided(run.dpsi_dt, 5), 14.0),
        ),
        S_mod,
    )
    assert np.all(np.abs(traj.a - 1.0) < 0.01)
    assert traj.adot_l1 < 0.1
    kinds = {d.kind for d in traj.diagnostics}
    assert {"L62x_Linf_t", "Linf_x_L2_t"} <= kinds


def test_nonlinear_path_is_scale_covariant():
    # the scaling of test_linear_evolution_is_scale_covariant (lambda = 4) on
    # the nonlinear path, centred at S.a = 16 on (R/4, n) with dt/4: data
    # (f, f1) -> (2 f, 8 f1) maps psi -> 2 psi, psi_t -> 8 psi_t, g -> 8 g,
    # so g-overlaps -> 1/4 and h -> h/4, and a -> 16 a, adot -> 64 adot;
    # every factor is a power of two, so the maps are exact
    big = RadialGrid(R=40.0, n=801, R_obs=12.0)
    small = RadialGrid(R=10.0, n=801, R_obs=3.0)
    T, dt = 16.0, 0.8 * big.dr
    S, Ss = ground_state(big, 1.0), ground_state(small, 16.0)
    f = 4e-4 * np.exp(-((big.r - 2.0) ** 2))
    f1 = 2e-4 * big.r * np.exp(-((big.r - 3.0) ** 2))
    q = make_query(S, big.field(f), big.field(f1))
    qs = make_query(Ss, small.field(2.0 * f), small.field(8.0 * f1))

    # shooting: the growth amplitude is read past an absolute overlap of
    # 1e-3, so the regula falsi steps differ; both brackets close on the root
    h_max, tol = 200.0 * q.epsilon**2, 1e-12 * q.epsilon
    sh = shoot_h(q, S, T, dt, h_max=h_max, tol=tol)
    shs = shoot_h(qs, Ss, T / 4, dt / 4, h_max=h_max / 4, tol=tol / 4)
    assert abs(4.0 * shs.h - sh.h) <= sh.bracket_width

    # the on-manifold run, to the trimmed horizon
    run = stored_nonlinear(*q.initial_data(S, sh.h), T - 4.0, dt, S=S, stride=4)
    runs = stored_nonlinear(
        *qs.initial_data(Ss, sh.h / 4), (T - 4.0) / 4, dt / 4, S=Ss, stride=4
    )
    assert run.status == runs.status == "completed"
    assert np.array_equal(runs.psi.samples, 2.0 * run.psi.samples)
    assert np.array_equal(runs.dpsi_dt.samples, 8.0 * run.dpsi_dt.samples)
    assert np.array_equal(runs.g_overlap, run.g_overlap / 4)

    # the modulation root-find: xatol is absolute, so not exactly covariant
    tm, tms = trajectory_modulation(run, S), trajectory_modulation(runs, Ss)
    assert np.max(np.abs(tms.a - 16.0 * tm.a)) <= 1e-13 * 16.0 * np.max(tm.a)

    # two Picard iterates, and the fixed-point h of the first one's history
    def check(it, its):
        assert 4.0 * its.h == it.h
        assert np.array_equal(its.a, 16.0 * it.a)
        assert np.array_equal(its.adot, 64.0 * it.adot)
        assert np.array_equal(its.u.samples, 2.0 * it.u.samples)

    pair, pairs = picard_transport(S, T, dt), picard_transport(Ss, T / 4, dt / 4)
    it = picard_map(None, None, None, q, S, T, dt, pair)
    its = picard_map(None, None, None, qs, Ss, T / 4, dt / 4, pairs)
    check(it, its)
    h_fp = h_fixed_point(it.u, it.a, S)[0]
    assert 4.0 * h_fixed_point(its.u, its.a, Ss)[0] == h_fp
    it2 = picard_map(it.u, it.a, it.adot, q, S, T, dt, pair)
    its2 = picard_map(its.u, its.a, its.adot, qs, Ss, T / 4, dt / 4, pairs)
    check(it2, its2)
    # centred on S.a = 16, not on 1
    assert np.max(np.abs(its2.a / 16.0 - 1.0)) < 0.02


# -- loop-free Picard map against per-step references -------------------------


def _trap(y, dt):
    if len(y) < 2:
        return 0.0
    return float(dt * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def _loop_sums(B, dt):
    """Per-step trapezoid double loops: the Duhamel and secular sums of B."""
    M = B.shape[0] - 1
    duh = np.zeros(M + 1)
    sec = np.zeros(M + 1)
    for m in range(1, M + 1):
        jdx = np.arange(m + 1)
        w = np.full(m + 1, dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        duh[m] = np.sum(w * B[jdx, m - jdx])
        inner = np.array([_trap(B[j, : m - j + 1], dt) for j in jdx])
        sec[m] = np.sum(w * inner)
    return duh, sec


def _rel_err(got, ref):
    return np.max(np.abs(np.asarray(got) - ref)) / max(np.max(np.abs(ref)), 1e-300)


def _folded_sums(B, dt, rows=_ROWS):
    """(duhamel, secular): the package's kernel fold fed B in blocks of rows, from row 0."""
    from solmanifold.modulation import _kernel_fold, _Sources

    M = len(B) - 1
    src = _Sources(Fg=None, gamma=None, residual=None,
                   duhamel=np.empty(M + 1), secular=np.empty(M + 1))
    fold = _kernel_fold(src, dt)
    for start in range(0, M + 1, rows):
        fold(start, B[start : start + rows].copy())
    return src.duhamel, src.secular


@pytest.mark.parametrize("M", [0, 1, 2, 7, 40])
def test_antidiagonal_sums_match_trapezoid_loops(M):
    dt = 0.04
    B = np.random.default_rng(M).standard_normal((M + 1, M + 1))
    duh, sec = _loop_sums(B, dt)
    got_duh, got_sec = _folded_sums(B, dt)
    if M == 0:
        assert got_duh.tolist() == [0.0] and got_sec.tolist() == [0.0]
        return
    assert _rel_err(got_duh, duh) < 1e-13
    assert _rel_err(got_sec, sec) < 1e-13


@pytest.mark.parametrize("M", [0, 31, 32, 33, 100])
def test_folded_kernel_sums_equal_the_whole_kernel(M):
    # the kernel is folded a block of rows at a time and never held whole:
    # for any blocking, the bits of the whole-B sums, on entries whose
    # magnitudes span 24 decades
    from oracles import kernel_sums

    dt = 0.04
    rng = np.random.default_rng(M)
    B = rng.standard_normal((M + 1, M + 1)) * 10.0 ** rng.uniform(-12.0, 12.0, (M + 1, M + 1))
    want = kernel_sums(B, dt)
    for rows in (1, 7, _ROWS, M + 1):
        got = _folded_sums(B, dt, rows)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), rows


@pytest.mark.parametrize("n", [1, 2, 3, 401])
def test_antidiagonal_sums_equal_the_bincount(n):
    # the row loop adds each anti-diagonal's terms to 0.0 in increasing row
    # order, the order of a bincount over the flattened matrix: the same
    # bits, on entries whose magnitudes span 24 decades
    from solmanifold.modulation import _antidiagonal_sums

    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-12.0, 12.0, (n, n))
    assert np.array_equal(_antidiagonal_sums(X), antidiagonal_sums(X))


@pytest.fixture(scope="module")
def history(mod_grid):
    """A nonzero frozen history (u0, a0, adot0) with M = 100 steps."""
    M = 100
    dt = 0.04
    t = dt * np.arange(M + 1)
    r = mod_grid.r
    u = np.outer(np.exp(-0.3 * t), 1e-3 * np.exp(-((r - 2.0) ** 2)))
    u += np.outer(np.sin(t), 4e-4 * np.exp(-((r - 4.0) ** 2)))
    a0 = 1.0 + 2e-3 * np.sin(0.7 * t)
    adot0 = np.gradient(a0, dt)
    return SpaceTimeField(mod_grid, dt, u), a0, adot0


def _loop_sources(u0_traj, a0, adot0, S):
    """Per-step reference of the modulation source and its g-pairings."""
    grid = S.grid
    r = grid.r
    Vc = soliton.potential(r, S.a)
    phic = soliton.phi(r, S.a)
    wg = r * S.g.values

    def rho(phi_vals):
        w = r * phi_vals
        out = np.zeros(grid.n)
        out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / grid.dr**2
        out[1:-1] += (phi_vals**5 * r)[1:-1]
        return out

    F, D, Fg, gam, res = [], [], [], [], []
    for j, a in enumerate(a0):
        u = RadialField(grid, u0_traj.samples[j])
        phia = soliton.phi_field(grid, a)
        vdiff = RadialField(grid, (Vc - soliton.potential(r, a)) * u.values)
        Nf = nonlinearity(u, phia)
        F.append(vdiff.values + Nf.values)
        D.append(adot0[j] * soliton.resonance_defect_profile(r, a, S.a))
        Fg.append(pair_w(vdiff, S.g) + pair_w(Nf, S.g))
        gam.append(pair_w(RadialField(grid, phia.values - phic), S.g))
        res.append(4.0 * np.pi * grid.dr * np.sum((rho(phia.values) - rho(phic)) * wg))
    return np.array(F), np.array(D), np.array(Fg), np.array(gam), np.array(res)


def test_h_fixed_point_matches_per_step_reference(history, S_mod):
    from solmanifold.modulation import _leapfrog_rates

    u0, a0, adot0 = history
    dt = u0.dt
    M = len(a0) - 1
    _, _, Fg, gam, res = _loop_sources(u0, a0, adot0, S_mod)
    _, kt, khat = _leapfrog_rates(S_mod.k, dt)
    q = Fg - S_mod.k**2 * gam + res
    w = np.exp(-kt * np.arange(M + 1) * dt) * dt
    w[0] *= 0.5
    h_ref = -(khat * 2e-4 + 3e-4 + np.sum(w * q)) / ((khat + S_mod.k) * S_mod.gg_w)
    h, _ = h_fixed_point(u0, a0, S_mod, pert_overlap_w=2e-4, psi1_overlap_w=3e-4)
    assert abs(h - h_ref) < 1e-10 * abs(h_ref)
    h_src, _ = h_fixed_point(u0, a0, S_mod)
    h_src_ref = -np.sum(w * q) / ((khat + S_mod.k) * S_mod.gg_w)
    assert abs(h_src - h_src_ref) < 1e-10 * abs(h_src_ref)


def test_xpm_evolution_matches_per_step_reference(history, S_mod, query_mod):
    from solmanifold.modulation import _d2_series

    u0, a0, adot0 = history
    dt = u0.dt
    k = S_mod.k
    c = 1.0 / np.sqrt(2.0 * k)
    M = len(a0) - 1
    h = 3e-8
    _, _, Fg, gam, _ = _loop_sources(u0, a0, adot0, S_mod)
    w2g = Fg - _d2_series(gam, dt)
    pert_c = RadialField(
        S_mod.grid, query_mod.psi0_perturbation.values + h * S_mod.g.values
    )
    psi1c = RadialField(S_mod.grid, query_mod.psi1.values + h * k * S_mod.g.values)
    x_minus0 = c * (k * pair_w(pert_c, S_mod.g) - pair_w(psi1c, S_mod.g))
    decay = np.exp(-k * dt)
    xm_ref = np.empty(M + 1)
    xm_ref[0] = x_minus0
    run = 0.0
    for m in range(1, M + 1):
        run = run * decay + 0.5 * dt * (w2g[m] + w2g[m - 1] * decay)
        xm_ref[m] = np.exp(-k * m * dt) * x_minus0 - c * run
    xp_ref = np.zeros(M + 1)
    run = 0.0
    for m in range(M - 1, -1, -1):
        run = run * decay + 0.5 * dt * (w2g[m] + w2g[m + 1] * decay)
        xp_ref[m] = -c * run
    xp, xm, _ = xpm_evolution(u0, a0, query_mod, S_mod, h)
    assert _rel_err(xp, xp_ref) < 1e-10
    assert _rel_err(xm, xm_ref) < 1e-10


def _q_side_pairings(data0, data1, S, T, dt):
    """Per-step reference of the data pairings, on the q side: Esin, Ecos and
    <cos-free(t) data0 + sine-free(t) data1, q> = <data0, Ecos(t)> + <data1, Esin(t)>."""
    from solmanifold.propagators import free_cosine_traj, free_sine_traj

    grid = S.grid
    q = RadialField(grid, soliton.potential(grid.r, S.a) * S.resonance.values)
    Esin = free_sine_traj(q, T, dt)
    Ecos = free_cosine_traj(q, T, dt)
    base = np.array(
        [
            inner_product(data0, Ecos.slice(m)) + inner_product(data1, Esin.slice(m))
            for m in range(Esin.samples.shape[0])
        ]
    )
    return Esin.samples, Ecos.samples, base


def test_modulation_rate_series_matches_per_step_reference(history, S_mod, query_mod):
    u0, a0, adot0 = history
    dt = u0.dt
    M = len(a0) - 1
    T = M * dt
    grid = S_mod.grid
    data0, data1 = query_mod.psi0_perturbation, query_mod.psi1 + 0.3 * query_mod.psi0_perturbation
    Esin, Ecos, base = _q_side_pairings(data0, data1, S_mod, T, dt)
    F, D, _, _, _ = _loop_sources(u0, a0, adot0, S_mod)
    wmat = grid.simpson_weights * grid.r**2 * 4.0 * np.pi
    duh, _ = _loop_sums((F * wmat) @ Esin.T - (D * wmat) @ Ecos.T, dt)
    ref = -(a0**1.25) * secular_coefficient(S_mod) * (base + duh)
    got = modulation_rate_series(data0, data1, u0, a0, adot0, S_mod, T, dt)
    assert np.max(np.abs(duh)) > 1e-3 * np.max(np.abs(base))  # the source counts
    assert _rel_err(got, ref) < 1e-10


def _pc_u(data0, data1, u0, a0, adot0, S):
    """picard_map's P_c u of the data pair (data0, data1), before the discrete part.

    The runs of _pc_u_series on the source blocks, then the secular term of
    the data pairings and of the kernel the blocks folded.  Returns
    (samples, src, base).
    """
    from solmanifold.grid import cumulative_trapezoid
    from solmanifold.modulation import (
        _add_outer,
        _pc_u_series,
        _resonance_pairings,
        _source_rows,
    )

    dt, T = u0.dt, u0.horizon
    transport = picard_transport(S, T, dt)
    src, F, D = _source_rows(u0.samples, a0, adot0, S, dt, transport)
    query = ManifoldQuery(data0, data1, epsilon=0.0, constraint_residual=0.0)
    got = _pc_u_series(query, F, D, S, T, dt)
    base = _resonance_pairings(data0, data1, transport)
    sec = cumulative_trapezoid(base, dx=dt) + src.secular
    _add_outer(got, secular_coefficient(S) * sec, S.resonance.values)
    return got, src, base


def test_pc_u_series_matches_four_separate_runs(history, S_mod, query_mod):
    u0, a0, adot0 = history
    dt, T = u0.dt, u0.horizon
    grid = S_mod.grid
    data0 = query_mod.psi0_perturbation
    data1 = query_mod.psi1 + 0.3 * query_mod.psi0_perturbation
    got, src, base = _pc_u(data0, data1, u0, a0, adot0, S_mod)
    Esin, Ecos, base_ref = _q_side_pairings(data0, data1, S_mod, T, dt)
    assert _rel_err(base, base_ref) < 1e-10
    F, D = source_stacks(u0, a0, adot0, S_mod)
    wmat = grid.simpson_weights * grid.r**2 * 4.0 * np.pi
    B = (F * wmat) @ Esin.T - (D * wmat) @ Ecos.T
    for got_sums, want_sums in zip((src.duhamel, src.secular), kernel_sums(B, dt)):
        assert _rel_err(got_sums, want_sums) < 1e-12

    # reference: the cosine run, the sine run and the two sine Duhamels apart
    def run(v0, v1, source):
        return stored_linear(v0, v1, source, T, dt, a=S_mod.a, project_out=S_mod).samples

    def pc(rows):  # the oracle P_c, row by row
        return np.array([project_continuous_w(grid.field(v), S_mod).values for v in rows])

    zero = grid.zeros()
    Fpc = SpaceTimeField(grid, dt, pc(F))
    Dpc = SpaceTimeField(grid, dt, pc(D))
    zs = run(zero, zero, Dpc)
    duh_cos = np.zeros_like(zs)
    duh_cos[1:-1] = (zs[2:] - zs[:-2]) / (2.0 * dt)
    duh_cos[-1] = (zs[-1] - zs[-2]) / dt
    _, sec_src = _loop_sums(B, dt)
    sec = np.cumsum(np.r_[0.0, 0.5 * dt * (base_ref[1:] + base_ref[:-1])])
    ref = run(project_continuous_w(data0, S_mod), zero, None)
    ref += run(zero, project_continuous_w(data1, S_mod), None)
    ref += run(zero, zero, Fpc) - duh_cos
    ref += np.outer(secular_coefficient(S_mod) * (sec + sec_src), S_mod.resonance.values)
    assert np.max(np.abs(duh_cos)) > 1e-3 * np.max(np.abs(ref))  # the defect counts
    assert _rel_err(got, ref) < 1e-12


@pytest.mark.parametrize("M", [1, 2, 100])
def test_streamed_defect_run_gives_the_stored_series(history, S_mod, query_mod, M):
    # the source blocks and the defect run handed to _pc_u_series row by row
    # give, bit for bit, the runs of the stored source stacks, the defect
    # run differenced by np.gradient (none for M < 2), and the secular term
    # added in blocks gives the whole outer product; the blocks' pairings
    # with g are the whole stack's gemv
    from solmanifold.grid import cumulative_trapezoid

    u0, a0, adot0 = history
    dt = u0.dt
    T = M * dt
    u0 = restricted(u0, T)
    a0, adot0 = a0[: M + 1], adot0[: M + 1]
    grid = S_mod.grid
    data0 = query_mod.psi0_perturbation
    data1 = query_mod.psi1 + 0.3 * query_mod.psi0_perturbation
    got, src, base = _pc_u(data0, data1, u0, a0, adot0, S_mod)
    F, D = source_stacks(u0, a0, adot0, S_mod)
    assert np.array_equal(src.Fg, F @ (4.0 * np.pi * grid.dr * grid.r * grid.r * S_mod.g.values))

    def run(v0, v1, source):
        return stored_linear(v0, v1, SpaceTimeField(grid, dt, source), T, dt, a=S_mod.a,
                             project_out=S_mod).samples

    ref = run(data0, data1, F)
    zs = run(grid.zeros(), grid.zeros(), D)
    if M >= 2:
        ref[1:] -= np.gradient(zs, dt, axis=0)[1:]
    sec = cumulative_trapezoid(base, dx=dt) + src.secular
    ref = ref + np.outer(secular_coefficient(S_mod) * sec, S_mod.resonance.values)
    assert got.shape == (M + 1, grid.n)
    assert np.array_equal(got, ref)


@pytest.fixture(scope="module")
def long_history(mod_grid):
    """The history fixture's frozen history on M = 400 steps (T = 16)."""
    M = 400
    dt = 0.04
    t = dt * np.arange(M + 1)
    r = mod_grid.r
    u = np.outer(np.exp(-0.3 * t), 1e-3 * np.exp(-((r - 2.0) ** 2)))
    u += np.outer(np.sin(t), 4e-4 * np.exp(-((r - 4.0) ** 2)))
    a0 = 1.0 + 2e-3 * np.sin(0.7 * t)
    return SpaceTimeField(mod_grid, dt, u), a0, np.gradient(a0, dt)


def test_picard_map_peak_stays_near_its_floor(long_history, S_mod, query_mod):
    # one non-zero-history iterate allocates its output, x_pm's decay matrix
    # ((M+1)^2, a third of a stack here) and block-sized temporaries: F and
    # D are made a block at a time as the pair of runs reads them, each
    # block of the Duhamel kernel B is folded into its sums as soon as its
    # D block exists, and neither the defect run nor the rank-one terms
    # store an (M+1, n) stack of their own.  Measured 1.74 stacks (with the
    # whole (M+1)^2 kernel held, 1.95; with the whole-stack source, above 4)
    import tracemalloc

    u0, a0, adot0 = long_history
    T, dt = u0.horizon, u0.dt
    transport = picard_transport(S_mod, T, dt)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        it = picard_map(u0, a0, adot0, query_mod, S_mod, T, dt, transport)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert it.u.samples.shape == u0.samples.shape
    assert peak - entry <= 1.85 * u0.samples.nbytes


def test_picard_map_transports_q_once_each_way(monkeypatch, history, S_mod, query_mod):
    # q = V dphi is transported once each way by picard_transport, and never
    # by picard_map, which reads the pair it is handed for the data and
    # source pairings.  Leapfrog runs: one, the data with the F source and
    # the zero data with the defect source stepped as a pair, or for the
    # zero history, which has no source, the data alone.  Counted under
    # every name bound in modulation and in propagators, so no evolution
    # hides
    import solmanifold.modulation as mod
    import solmanifold.propagators as prop

    calls = []
    for module in (mod, prop):
        for name in ("free_sine_traj", "free_cosine_traj", "evolve_linear_perturbed"):
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    u0, a0, adot0 = history
    T, dt = u0.horizon, u0.dt
    transport = picard_transport(S_mod, T, dt)
    assert sorted(calls) == ["free_cosine_traj", "free_sine_traj"]
    for history_args in ((u0, a0, adot0), (None, None, None)):
        calls.clear()
        picard_map(*history_args, query_mod, S_mod, T, dt, transport)
        assert calls == ["evolve_linear_perturbed"]


def _assert_iterates_equal(got, ref):
    for f in fields(PicardIterate):
        x, y = getattr(got, f.name), getattr(ref, f.name)
        if f.name == "u":
            assert x.dt == y.dt
            x, y = x.samples, y.samples
        assert np.array_equal(x, y), f.name


def test_zero_history_iterate_equals_explicit_zero_history(mod_grid, S_mod, query_psi1):
    # u0_traj None skips the source: its (V - V(S.a)) 0 + N(0, phi) and
    # 0 * defect vanish, so the iterate is the one of the explicit zero
    # history (0, S.a, 0), bit for bit
    T, dt = 8.0, 0.8 * mod_grid.dr
    M = int(round(T / dt))
    zero = SpaceTimeField(mod_grid, dt, np.zeros((M + 1, mod_grid.n)))
    transport = picard_transport(S_mod, T, dt)
    got = picard_map(None, None, None, query_psi1, S_mod, T, dt, transport)
    ref = picard_map(zero, np.full(M + 1, S_mod.a), np.zeros(M + 1), query_psi1, S_mod, T, dt,
                     transport)
    assert np.max(np.abs(got.adot)) > 0.0 and got.h != 0.0
    _assert_iterates_equal(got, ref)


def test_zero_history_iterate_is_the_stored_run_plus_its_rank_one_terms(mod_grid, S_mod,
                                                                         query_psi1):
    # the zero-history run streams into the iterate's own array: its
    # samples are the stored run from (p, p1) plus the secular and discrete
    # terms picard_map adds, bit for bit
    from solmanifold.grid import cumulative_trapezoid
    from solmanifold.modulation import _add_outer, _offset_data, _resonance_pairings

    T, dt = 8.0, 0.8 * mod_grid.dr
    transport = picard_transport(S_mod, T, dt)
    it = picard_map(None, None, None, query_psi1, S_mod, T, dt, transport)
    ref = stored_linear(query_psi1.psi0_perturbation, query_psi1.psi1, None, T, dt, a=S_mod.a,
                        project_out=S_mod).samples
    base = _resonance_pairings(*_offset_data(query_psi1, S_mod, it.h), transport)
    _add_outer(ref, secular_coefficient(S_mod) * cumulative_trapezoid(base, dx=dt),
               S_mod.resonance.values)
    _add_outer(ref, (it.x_plus + it.x_minus) / np.sqrt(2.0 * S_mod.k), S_mod.g.values)
    assert it.u.dt == dt
    assert np.array_equal(it.u.samples, ref)


def test_xpm_of_a_vanishing_source_is_the_free_decay(mod_grid, S_mod, query_psi1):
    # w2g == 0 skips the decay matrix: x_minus decays from x_minus(0), and
    # x_plus and the tail are +0.0 (no -0.0); a source of 1e-200 takes the
    # general path and gives the same x_minus bit for bit
    import dataclasses

    from solmanifold.modulation import _no_source, _offset_data, _xpm_from

    dt = 0.8 * mod_grid.dr
    M = 200
    data = _offset_data(query_psi1, S_mod, 1e-4)
    xp, xm, tail = _xpm_from(_no_source(M), *data, S_mod, dt)
    assert xp.shape == xm.shape == (M + 1,) and tail == 0.0
    assert not np.any(xp) and not np.any(np.signbit(xp))
    tiny = dataclasses.replace(_no_source(M), Fg=np.full(M + 1, 1e-200))
    xp_tiny, xm_tiny, tail_tiny = _xpm_from(tiny, *data, S_mod, dt)
    assert np.array_equal(xm_tiny, xm) and xm[0] != 0.0
    assert 0.0 < np.max(np.abs(xp_tiny)) < 1e-150 and 0.0 < tail_tiny < 1e-150


def test_x_norm_reads_its_trajectory_once(monkeypatch, history):
    # one TimeProfiles pass gives the three mixed norms of three mixed_norm calls
    from solmanifold import mixed_norm
    from solmanifold.norms import TimeProfiles

    u0, a0, adot0 = history
    adot = np.gradient(a0, u0.dt)
    want = max(
        mixed_norm(u0, ("lorentz", 6, 2), "Linf_t"),
        mixed_norm(u0, "Linf_x", "L2_t"),
        mixed_norm(u0, "Linf_x", "L1_t"),
    ) + max(float(np.sum(np.abs(adot)) * u0.dt), float(np.max(np.abs(adot))))
    added = []
    add = TimeProfiles.add
    monkeypatch.setattr(TimeProfiles, "add", lambda self, block: added.append(1) or add(self, block))
    assert x_norm(u0.samples, adot, u0.dt, u0.grid) == want
    assert added == [1]


def test_x_norm_of_ball_rows_equals_that_of_the_trajectory(history):
    # the ball's leading columns are all x_norm reads, so rows cut to them
    # (or to any more columns) give the trajectory's distance bit for bit;
    # fewer columns than the ball fail typed
    u0, a0, _ = history
    grid = u0.grid
    adot = np.gradient(a0, u0.dt)
    cols = grid.obs_slice().stop
    want = x_norm(u0.samples, adot, u0.dt, grid)
    for k in (cols, cols + 7):
        assert x_norm(u0.samples[:, :k].copy(), adot, u0.dt, grid) == want
    with pytest.raises(GridUsageError, match="needs"):
        x_norm(u0.samples[:, : cols - 1], adot, u0.dt, grid)


def test_shared_transport_gives_the_same_iterate(history, S_mod, query_psi1):
    # the pair depends on (S, T, dt) alone: two pairs made apart give one iterate
    u0, a0, adot0 = history
    T, dt = u0.horizon, u0.dt
    one, other = picard_transport(S_mod, T, dt), picard_transport(S_mod, T, dt)
    for args in ((u0, a0, adot0), (None, None, None)):
        got = picard_map(*args, query_psi1, S_mod, T, dt, one)
        _assert_iterates_equal(got, picard_map(*args, query_psi1, S_mod, T, dt, other))


def test_picard_transport_of_another_grid_raises(history, S_mod, query_mod):
    u0, a0, adot0 = history
    T, dt = u0.horizon, u0.dt
    sine, cosine = picard_transport(S_mod, T, dt)
    for other in (picard_transport(S_mod, T / 2, dt), picard_transport(S_mod, T, dt / 2)):
        for pair in (other, (sine, other[1]), (other[0], cosine)):
            with pytest.raises(GridUsageError, match="q transport"):
                picard_map(u0, a0, adot0, query_mod, S_mod, T, dt, pair)


def _bisect_h(query, S, T, dt):
    """The bisection shoot_h ran before it shot on the growth amplitude: the
    independent oracle for the regula falsi (same bracket, same tol)."""
    from solmanifold.modulation import _classify

    eps = query.epsilon
    lo, hi = -max(200.0 * eps**2, 1e-9), max(200.0 * eps**2, 1e-9)
    tol = 1e-12 * max(eps, 1e-6)
    s_lo = _classify(query, lo, S, T, dt)[0]
    assert _classify(query, hi, S, T, dt)[0] == -s_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _classify(query, mid, S, T, dt)[0] == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), tol


def test_shoot_h_matches_bisection(manifold_run, mod_grid, S_mod, query_mod):
    from solmanifold.modulation import _classify

    res, _, dt = manifold_run
    h_bisect, tol = _bisect_h(query_mod, S_mod, 18.0, dt)
    assert abs(res.h - h_bisect) <= tol
    assert res.status == "converged" and res.bracket_width <= tol
    # the final bracket is spanned by two traced runs of opposite exit sign
    s_lo = res.trace[0][1]
    lo = max(h for h, s, _, _ in res.trace if s == s_lo)
    hi = min(h for h, s, _, _ in res.trace if s == -s_lo)
    assert hi - lo == res.bracket_width
    assert 0.5 * (lo + hi) == res.h
    signs = [_classify(query_mod, h, S_mod, 18.0, dt)[0] for h in (lo, hi)]
    assert signs == [s_lo, -s_lo]


def test_shoot_h_run_count(monkeypatch, mod_grid, S_mod, query_mod):
    # every classification is one evolve_nonlinear call, as the tracer counts it
    from solmanifold import modulation

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evolve_nonlinear(*args, **kwargs)

    monkeypatch.setattr(modulation, "evolve_nonlinear", counted)
    res = shoot_h(query_mod, S_mod, 18.0, 0.8 * mod_grid.dr)
    assert len(calls) == len(res.trace) == res.iterations + 2
    assert len(calls) <= 12
    for h, sign, c, status in res.trace:
        assert sign in (-1.0, 1.0) and np.isfinite(c)
        assert status in ("completed", "departed", "blowup")


def test_shoot_h_tight_tol_converges(mod_grid, S_mod, query_mod):
    from solmanifold.experiments import _tight_tol

    tol = _tight_tol(query_mod)
    res = shoot_h(query_mod, S_mod, 18.0, 0.8 * mod_grid.dr, tol=tol)
    assert res.status == "converged"
    assert 0.0 < res.bracket_width <= tol
    # 16 runs measured; the bisection took about 50 here
    assert len(res.trace) <= 24


def test_shoot_h_same_sign_bracket_raises(mod_grid, S_mod, query_mod):
    # h* ~ -1e-8 lies outside the bracket even after four widenings
    from solmanifold.modulation import BracketError

    with pytest.raises(BracketError, match="both bracket ends"):
        shoot_h(query_mod, S_mod, 18.0, 0.8 * mod_grid.dr, h_max=1e-15)


def _stub_classify(monkeypatch, amplitude, root=0.3):
    """Replace the nonlinear runs by a run whose exit sign is sign(h - root)
    and whose one-step overlap series is amplitude(h - root)."""
    from types import SimpleNamespace

    from solmanifold import modulation

    def stub(query, h, S, T, dt):
        run = SimpleNamespace(g_overlap=np.array([amplitude(h - root)]), status="completed")
        return (1.0 if h > root else -1.0), run

    monkeypatch.setattr(modulation, "_classify", stub)


def test_shoot_h_affine_amplitude_closes_in_two_steps(monkeypatch, mod_grid, S_mod, query_mod):
    # the secant lands on the root; the next estimate falls within tol/2 of
    # the end it moved, so that end plus tol/2 is classified and closes
    _stub_classify(monkeypatch, lambda x: x)
    res = shoot_h(query_mod, S_mod, 18.0, 0.8 * mod_grid.dr, h_max=1.0, tol=1e-9)
    assert len(res.trace) == 4
    assert res.bracket_width <= 1e-9 and abs(res.h - 0.3) <= 1e-9


@pytest.mark.parametrize("amplitude", [lambda x: np.expm1(4.0 * x), lambda x: -np.expm1(-4.0 * x)])
def test_shoot_h_curved_amplitude_keeps_illinois_pace(monkeypatch, mod_grid, S_mod, query_mod, amplitude):
    # convex (lo moves, hi is kept) and concave (the mirror): plain regula
    # falsi stalls on the kept end; halving its c restores the pace.  With
    # the halving the shoot takes 13 and 18 runs, without it 27 and 23
    _stub_classify(monkeypatch, amplitude)
    res = shoot_h(query_mod, S_mod, 18.0, 0.8 * mod_grid.dr, h_max=1.0, tol=1e-9)
    assert len(res.trace) <= 20
    assert res.bracket_width <= 1e-9 and abs(res.h - 0.3) <= 1e-9


def test_shoot_h_flat_amplitude_falls_back_to_bisection(monkeypatch, mod_grid, S_mod, query_mod):
    # an amplitude stuck at 0 below the root (a noise floor) pins every
    # secant estimate to lo; only the bisection steps shrink the bracket
    _stub_classify(monkeypatch, lambda x: 0.0 if x < 0 else 1.0)
    res = shoot_h(query_mod, S_mod, 18.0, 0.8 * mod_grid.dr, h_max=1.0, tol=1e-9)
    assert res.bracket_width <= 1e-9 and abs(res.h - 0.3) <= 1e-9


def test_shoot_h_stall_raises(monkeypatch, mod_grid, S_mod, query_mod):
    # an amplitude stuck at one value gives no secant step, and once the
    # bisections reach adjacent floats the width stops shrinking above tol
    from solmanifold.modulation import BracketError

    _stub_classify(monkeypatch, lambda x: 0.5)
    with pytest.raises(BracketError, match="after 200 steps"):
        shoot_h(query_mod, S_mod, 18.0, 0.8 * mod_grid.dr, h_max=1.0, tol=1e-70)
