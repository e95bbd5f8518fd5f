from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from solmanifold import (
    RadialField,
    RadialGrid,
    evolve_linear_perturbed,
    free_cosine,
    free_sine,
    ground_state,
    inner_product,
    l2_norm,
    secular_decomposition_C,
    secular_decomposition_S,
)
from solmanifold import soliton
from solmanifold.grid import FOUR_PI, GridUsageError, _values_from_w, field_from_w
from solmanifold.norms import TimeProfiles
from solmanifold.propagators import (
    SpaceTimeField,
    _block_rows,
    _leapfrog,
    _rate,
    _resonance_series,
    _secular_coefficients,
    free_cosine_traj,
    free_sine_traj,
)

from oracles import (
    free_duhamel,
    inner_time_profiles,
    newton_potential,
    project_continuous_w,
    secular_projector,
    stored_leapfrog,
    stored_linear,
    stored_secular_split,
    transport_energy,
)


@pytest.fixture(scope="module")
def wave_grid():
    return RadialGrid(R=40.0, n=1601, R_obs=10.0)


def test_sine_ball_closed_form(wave_grid):
    # spherical means: at the origin the sine evolution of the unit-ball
    # indicator is t for t < 1 and 0 afterwards
    ball = wave_grid.field((wave_grid.r <= 1.0).astype(float))
    for t, expected in ((0.5, 0.5), (0.9, 0.9), (1.5, 0.0), (3.0, 0.0)):
        u = free_sine(ball, t)
        assert u.values[0] == pytest.approx(expected, abs=2 * wave_grid.dr)


def test_sine_small_time_limit(wave_grid):
    f = wave_grid.field(np.exp(-((wave_grid.r - 3.0) ** 2)))
    u0 = free_sine(f, 0.0)
    assert np.max(np.abs(u0.values)) == 0.0
    t = 4 * wave_grid.dr
    u = free_sine(f, t)
    assert np.max(np.abs(u.values / t - f.values)) < 0.05 * np.max(f.values)


def test_sine_energy_identity_exact(wave_grid):
    f = wave_grid.field(np.exp(-((wave_grid.r - 3.0) ** 2)))
    E0 = transport_energy(free_sine(f, 0.0), free_cosine(f, 0.0))
    for steps in (40, 200, 400):
        t = steps * wave_grid.dr
        assert transport_energy(free_sine(f, t), free_cosine(f, t)) == pytest.approx(E0, rel=1e-10)


def test_sine_energy_identity_field_level(wave_grid):
    # || d/dt u ||_2^2 + || grad u ||_2^2 = || f ||_2^2 in the field norms
    from solmanifold.grid import h1_seminorm

    f = wave_grid.field(np.exp(-((wave_grid.r - 3.0) ** 2)))
    n2 = l2_norm(f) ** 2
    t = 160 * wave_grid.dr
    u, ut = free_sine(f, t), free_cosine(f, t)
    total = l2_norm(ut) ** 2 + h1_seminorm(u) ** 2
    assert total == pytest.approx(n2, rel=1e-4)


def test_huygens(wave_grid):
    r = wave_grid.r
    f = wave_grid.field(np.where(r < 4.0, (4.0 - r) ** 2 * r**2, 0.0))
    t = 16.0
    u = free_sine(f, t)
    inner = np.abs(u.values[r < t - 4.0 - 2 * wave_grid.dr])
    outer = np.abs(u.values[r > t + 4.0 + 2 * wave_grid.dr])
    assert np.max(inner) == 0.0
    assert np.max(outer) == 0.0


def test_budget_and_domain_errors(wave_grid):
    f = wave_grid.zeros()
    with pytest.raises(ValueError):
        free_sine(f, -1.0)
    with pytest.raises(GridUsageError):
        free_sine(f, wave_grid.budget_horizon() + 1.0)


def _interp_slice(f, t, kind):
    """One slice of free transport by interpolation at r +- t: the reference."""
    r, dr, R = f.grid.r, f.grid.dr, f.grid.R
    w = f.w()
    if kind == "sine":
        W = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dr)))

        def F(x):  # even, linear continuation beyond R
            ax = np.abs(x)
            return np.where(ax > R, W[-1] + (ax - R) * w[-1], np.interp(ax, r, W))

        v = 0.5 * (F(r + t) - F(r - t))
        origin = np.interp(t, r, w)
    else:
        d = np.gradient(w, dr, edge_order=2)

        def F(x):  # odd, constant continuation beyond R
            return np.sign(x) * np.interp(np.abs(x), r, w)

        v = 0.5 * (F(r + t) + F(r - t))
        origin = np.interp(t, r, d)
    vals = np.empty(f.grid.n)
    vals[1:] = v[1:] / r[1:]
    vals[0] = origin
    return vals


@pytest.mark.parametrize("cells", [1.0, 2.0, 0.8])
def test_trajectory_matches_per_slice_transport(cells):
    # whole-cell shifts (dt/dr = 1, 2) and the interpolating path (0.8)
    # against per-slice evaluation, origin values included
    grid = RadialGrid(R=40.0, n=801, R_obs=10.0)
    f = grid.field(np.exp(-((grid.r - 3.0) ** 2)) + 0.1 / (1.0 + grid.r**2))
    dt = cells * grid.dr
    for traj_fn, slice_fn, kind in (
        (free_sine_traj, free_sine, "sine"),
        (free_cosine_traj, free_cosine, "cosine"),
    ):
        got = traj_fn(f, 20.0, dt).samples
        per_slice = np.stack([slice_fn(f, m * dt).values for m in range(got.shape[0])])
        interp = np.stack([_interp_slice(f, m * dt, kind) for m in range(1, got.shape[0])])
        scale = np.max(np.abs(per_slice))
        assert np.max(np.abs(got - per_slice)) <= 1e-13 * scale
        assert np.max(np.abs(got[1:] - interp)) <= 1e-13 * scale
        assert np.max(np.abs(got[:, 0] - per_slice[:, 0])) <= 1e-13 * scale


def test_trajectory_cosine_row0_and_guards(wave_grid):
    f = wave_grid.field(np.exp(-((wave_grid.r - 3.0) ** 2)))
    traj = free_cosine_traj(f, 5.0, wave_grid.dr)
    assert np.array_equal(traj.samples[0], f.values)
    assert np.max(np.abs(free_sine_traj(f, 5.0, wave_grid.dr).samples[0])) == 0.0
    for traj_fn in (free_sine_traj, free_cosine_traj):
        with pytest.raises(GridUsageError):
            traj_fn(f, wave_grid.budget_horizon() + 1.0, wave_grid.dr)
        with pytest.raises(ValueError):
            traj_fn(f, -1.0, wave_grid.dr)


def test_cosine_t0_and_closed_form(wave_grid):
    g0 = wave_grid.field(1.0 / (1.0 + wave_grid.r**2))
    assert free_cosine(g0, 0.0) is g0
    for t in (0.5, 2.0, 5.0):
        u = free_cosine(g0, t)
        exact = (1 - t * t) / (1 + t * t) ** 2
        assert u.values[0] == pytest.approx(exact, abs=2e-4)


def test_cosine_energy_bound(wave_grid):
    from solmanifold.grid import h1_seminorm

    phi_f = soliton.phi_field(wave_grid)
    base = h1_seminorm(phi_f)
    for t in (2.0, 10.0, 25.0):
        u = free_cosine(phi_f, t)
        assert h1_seminorm(u) <= base * (1 + 1e-10)


def _q_transport(grid, a, T, dt, kind):
    """A stored free transport of q = V(a) dphi_da(a) and its pairing weights."""
    q = grid.field(soliton.resonance_weight(grid.r, a))
    traj = free_sine_traj if kind == "sine" else free_cosine_traj
    return traj(q, T, dt).samples, FOUR_PI * grid.simpson_weights * grid.r**2


@pytest.mark.parametrize("kind", ["sine", "cosine"])
def test_q_side_pairing_converges_to_data_side(kind):
    # <free(f)(t), q> from one transport of q = V dphi against the data's own
    # free trajectory paired with q by the Simpson weights: two quadratures
    # of one pairing, which differ by O(dr^4)
    gaps = []
    for n in (401, 801, 1601):
        grid = RadialGrid(R=40.0, n=n, R_obs=12.0)
        dt = 0.8 * grid.dr
        f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
        E, w = _q_transport(grid, 1.0, 16.0, dt, kind)
        traj = (free_sine_traj if kind == "sine" else free_cosine_traj)(f, 16.0, dt)
        q = soliton.resonance_weight(grid.r, 1.0)
        ref = traj.samples @ (4.0 * np.pi * grid.simpson_weights * grid.r**2 * q)
        gaps.append(np.max(np.abs(E @ (w * f.values) - ref)) / np.max(np.abs(ref)))
    assert gaps[0] < 5e-5
    assert gaps[0] >= 12.0 * gaps[1] and gaps[1] >= 12.0 * gaps[2]


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("kind", ["sine", "cosine"])
def test_resonance_series_are_the_transport_pairings(kind, count):
    # the streamed series are, bit for bit, the row-by-row dot products of
    # a stored transport of q with each w * f, and within 1e-14 its gemv
    grid = RadialGrid(R=40.0, n=401, R_obs=12.0)
    dt = 0.8 * grid.dr
    fields = [grid.field(np.exp(-((grid.r - c) ** 2))) for c in (2.0, 3.0, 5.0)[:count]]
    E, w = _q_transport(grid, 1.3, 16.0, dt, kind)
    got = _resonance_series(grid, 1.3, 16.0, dt, kind, fields)
    assert len(got) == count
    for f, series in zip(fields, got):
        assert np.array_equal(series, np.vecdot(E, w * f.values))
        want = E @ (w * f.values)
        assert np.max(np.abs(series - want)) <= 1e-14 * np.max(np.abs(want))


def test_resonance_series_of_a_non_finite_field_fails_typed():
    # the streamed transport of q stores nothing to scan, so the series
    # carry the finiteness check a stored transport made
    grid = RadialGrid(R=40.0, n=401, R_obs=12.0)
    bad = np.exp(-((grid.r - 2.0) ** 2))
    bad[50] = np.nan
    fields = [grid.field(np.exp(-((grid.r - 3.0) ** 2))), grid.field(bad)]
    with pytest.raises(GridUsageError, match="non-finite"):
        _resonance_series(grid, 1.0, 8.0, grid.dr, "sine", fields)


@pytest.mark.parametrize("kind", ["sine", "cosine"])
def test_secular_part_is_the_accumulated_resonance_pairing(kind):
    # secular(t) = -c_Q Int_0^t <free(f)(s), V dphi> ds dphi_da, against a
    # data-side reference: per-slice free evolutions of f of the same kind
    from solmanifold import ground_state
    from solmanifold.spectral import secular_coefficient

    grid = RadialGrid(R=40.0, n=401, R_obs=12.0)
    S = ground_state(grid)
    dt = grid.dr
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    q = grid.field(soliton.resonance_weight(grid.r, S.a))
    free = free_sine if kind == "sine" else free_cosine
    M = int(round(16.0 / dt))
    series = np.array([inner_product(free(f, m * dt), q) for m in range(M + 1)])
    cum = np.r_[0.0, np.cumsum(0.5 * dt * (series[1:] + series[:-1]))]
    ref = np.outer(-secular_coefficient(S) * cum, S.resonance.values)
    _, coeff = stored_secular_split(f, M * dt, dt, S, kind)
    secular = coeff[:, None] * S.resonance.values
    assert np.max(np.abs(secular - ref)) < 1e-4 * np.max(np.abs(ref))


def test_free_duhamel_zero_and_box(wave_grid):
    grid = RadialGrid(R=40.0, n=801, R_obs=10.0)
    dt = grid.dr
    M = 100
    zeros = SpaceTimeField(grid, dt, np.zeros((M + 1, grid.n)))
    out = free_duhamel(zeros)
    assert np.max(np.abs(out.samples)) == 0.0
    # constant-in-s ball source: at r=0 the result is min(t,1)^2/2
    ball = (grid.r <= 1.0).astype(float)
    F = SpaceTimeField(grid, dt, np.tile(ball, (M + 1, 1)))
    out = free_duhamel(F)
    for m in (10, 40, 100):
        t = m * dt
        expected = min(t, 1.0) ** 2 / 2.0
        assert out.samples[m][0] == pytest.approx(expected, abs=3 * dt)


def test_duhamel_consistency_with_leapfrog(wave_grid):
    # V = 0 leapfrog with source = free Duhamel + homogeneous part
    grid = RadialGrid(R=30.0, n=601, R_obs=8.0)
    dt = 0.5 * grid.dr
    M = 200
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    F = SpaceTimeField(grid, dt, np.tile(f.values, (M + 1, 1)))
    duh = free_duhamel(F)

    zero = grid.zeros()
    source_w = (grid.r * f.values)[1:-1]

    def force(w, m, acc):
        acc += source_w

    lf = stored_leapfrog(grid, zero.w(), zero.w(), M * dt, dt, force)
    sl = grid.obs_slice()
    errs = []
    for m in (50, 100, 200):
        u_lf = field_from_w(grid, lf[m])
        errs.append(np.max(np.abs(u_lf.values[sl] - duh.samples[m][sl])))
    assert max(errs) < 5e-3 * np.max(np.abs(duh.samples))


def test_perturbed_free_limit(wave_grid):
    # V = 0 evolution reproduces the transport sine evolution
    grid = RadialGrid(R=30.0, n=1201, R_obs=8.0)
    dt = 0.5 * grid.dr
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))

    lf = stored_leapfrog(grid, grid.zeros().w(), f.w(), 10.0, dt, lambda w, m, acc: None)
    sl = grid.obs_slice()
    m = 400  # t = 10
    u_lf = field_from_w(grid, lf[m])
    u_tr = free_sine(f, m * dt)
    assert np.max(np.abs(u_lf.values[sl] - u_tr.values[sl])) < 2e-4


def test_perturbed_growing_mode(S_ref):
    grid = S_ref.grid
    dt = 0.5 * grid.dr
    traj = stored_linear(S_ref.g, grid.zeros(), None, 4.0, dt, stride=20)
    ov = np.array(
        [inner_product(traj.slice(m), S_ref.g) for m in range(traj.samples.shape[0])]
    )
    t = traj.times
    # cosh(kt) growth: fit the late-time log slope
    m = t > 1.5
    rate = np.polyfit(t[m], np.log(np.abs(ov[m])), 1)[0]
    assert rate == pytest.approx(S_ref.k, rel=0.01)


def test_perturbed_continuous_data_bounded(S_ref, rng):
    grid = S_ref.grid
    dt = 0.8 * grid.dr
    f = project_continuous_w(grid.field(np.exp(-((grid.r - 2.0) ** 2))), S_ref)
    T = min(10.0 / S_ref.k, grid.budget_horizon())
    traj = stored_linear(f, grid.zeros(), None, T, dt, project_out=S_ref, stride=10)
    sl = grid.obs_slice()
    norms = [
        l2_norm(traj.slice(m), radius=grid.R_obs)
        for m in range(traj.samples.shape[0])
    ]
    assert max(norms) <= 2.5 * norms[0]


def test_projected_flow_ignores_the_g_component():
    # project_out=S projects g out of state 0, the Taylor step and every
    # later state, so data and source with a g-component evolve to the
    # states of their P_c images, up to rounding (which grows with the node
    # and step counts: 1.4e-13 relative on the 1601-node spec_grid)
    grid = RadialGrid(R=20.0, n=401)
    S = ground_state(grid)
    r, g = grid.r, S.g.values
    dt, T = 0.8 * grid.dr, 6.0
    t = dt * np.arange(int(round(T / dt)) + 1)[:, None]
    f = grid.field(np.exp(-((r - 2.0) ** 2)) + 0.3 * g)
    f1 = grid.field(r * np.exp(-((r - 3.0) ** 2)) - 0.2 * g)
    F = np.cos(t) * np.exp(-((r - 2.5) ** 2)) + 0.1 * np.sin(t) * g

    def pc(v):
        return project_continuous_w(grid.field(v), S)

    def run(v0, v1, source):
        source = SpaceTimeField(grid, dt, source)
        return stored_linear(v0, v1, source, T, dt, project_out=S).samples

    raw = run(f, f1, F)
    ref = run(pc(f.values), pc(f1.values), np.array([pc(row).values for row in F]))
    assert np.max(np.abs(raw - ref)) <= 1e-13 * np.max(np.abs(ref))
    # so the Picard data run may evolve (p, p1) in place of the offset data
    # (p + h g, p1 + h k g), whatever h (largest relative difference
    # measured: 1.7e-14 at h = 1e-3, 1.4e-14 at h = -0.7)
    for h in (1e-3, -0.7):
        got = run(grid.field(f.values + h * g), grid.field(f1.values + h * S.k * g), F)
        assert np.max(np.abs(got - raw)) <= 1e-13 * np.max(np.abs(raw))
    # the secular splits evolve f itself; their sums are the P_c f evolutions
    for kind in ("sine", "cosine"):

        def full(v):
            dispersive, coeff = stored_secular_split(v, T, dt, S, kind)
            return dispersive.samples + coeff[:, None] * S.resonance.values

        got, want = full(f), full(pc(f.values))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_projected_stack_rows_equal_their_own_runs():
    # a projected (K, n) stack with a per-row source: each row is projected
    # by its own dot product with r g, so every row of the stack takes the
    # bits of its own K = 1 run, at K = 1, 2 and 20
    grid = RadialGrid(R=20.0, n=401)
    S = ground_state(grid)
    r, g = grid.r, S.g.values
    dt, T = 0.8 * grid.dr, 4.0
    t = dt * np.arange(int(round(T / dt)) + 1)[:, None]
    rng = np.random.default_rng(5)
    for K in (1, 2, 20):
        c = rng.uniform(1.0, 4.0, (4, K))
        data0 = [grid.field(np.exp(-((r - c[0, k]) ** 2)) + 0.3 * g) for k in range(K)]
        data1 = [grid.field(c[1, k] * np.exp(-((r - c[2, k]) ** 2))) for k in range(K)]
        sources = [np.cos(c[3, k] * t) * np.exp(-((r - 2.5) ** 2)) + 0.1 * np.sin(t) * g
                   for k in range(K)]
        stacked = np.stack(sources, axis=1)
        source = SimpleNamespace(dt=dt, rows=len(stacked), row=stacked.__getitem__)
        runs = stored_linear(data0, data1, source, T, dt, a=S.a, project_out=S)
        assert len(runs) == K
        for k in range(K):
            alone = stored_linear(data0[k], data1[k], SpaceTimeField(grid, dt, sources[k]),
                                  T, dt, a=S.a, project_out=S)
            assert np.array_equal(runs[k].samples, alone.samples), (K, k)


@pytest.mark.parametrize("kind", ["sine", "cosine"])
def test_a_stacked_split_gives_each_fields_split(kind):
    # the split of K fields steps them as one stack: its coefficients, its
    # rows and one TimeProfiles fed all its rows give each field's own
    # split (stored whole, by the oracle) and profiles bit for bit
    grid = RadialGrid(R=20.0, n=401, R_obs=6.0)
    S = ground_state(grid)
    dt, T = grid.dr, 8.0
    split = secular_decomposition_S if kind == "sine" else secular_decomposition_C
    fields = [project_continuous_w(grid.field(np.exp(-((grid.r - c) ** 2))), S)
              for c in (1.0, 2.5, 4.0)]
    series = _resonance_series(grid, S.a, T, dt, kind, fields)
    coeff = _secular_coefficients(series, dt, S, 2)
    blocks, _ = _streamed_blocks(lambda p: split(fields, T, dt, S, series, p, stride=2),
                                 grid, 2 * dt)
    runs = np.concatenate(blocks)
    stacked = TimeProfiles(grid, dt)
    assert split(fields, T, dt, S, series, stacked) is None
    for k, f in enumerate(fields):
        alone, coeff_k = stored_secular_split(f, T, dt, S, kind, stride=2)
        assert np.array_equal(coeff[k], coeff_k)
        assert np.array_equal(runs[:, k], alone.samples[:, : runs.shape[-1]])
        own = TimeProfiles(grid, dt)
        split([f], T, dt, S, series[k : k + 1], _one_field(own))
        for inner in ("Linf_t", "L2_t", "L1_t"):
            assert np.array_equal(stacked.profile(inner)[k], own.profile(inner))
        for outer in ("Linf_x", ("lorentz", 6, 2)):
            assert stacked.norm(outer, "L2_t")[k] == own.norm(outer, "L2_t")


def test_the_split_reads_the_series_it_is_given(S_ref):
    # the secular side comes from the series passed in, not from the
    # fields: with a zero series the dispersive rows are the projected run
    # itself, bit for bit
    grid = S_ref.grid
    dt, T = 0.8 * grid.dr, 6.0
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    M = int(round(T / dt))
    for kind, split in (("sine", secular_decomposition_S), ("cosine", secular_decomposition_C)):
        data = (grid.zeros(), f) if kind == "sine" else (f, grid.zeros())
        run = stored_linear(*data, None, T, dt, a=S_ref.a, project_out=S_ref)
        blocks, _ = _streamed_blocks(
            lambda p: split([f], T, dt, S_ref, np.zeros((1, M + 1)), _one_field(p)), grid, dt)
        assert np.array_equal(np.concatenate(blocks), run.samples[:, : blocks[0].shape[-1]])


def test_projected_runs_conserve_the_discrete_energy():
    # the three-level scheme w_{m+1} = 2 w_m - w_{m-1} - dt^2 A w_m, with A
    # the stencil of -d_rr + V on the interior (Dirichlet ends), conserves
    # |w_{m+1} - w_m|^2 / dt^2 + <w_{m+1}, A w_m> exactly; the projection
    # commutes with A (r g is its eigenvector), so the projected runs keep
    # it to rounding, every row of a K = 3 stack and the K = 1 run alike.
    # A wrong dt^2, stencil weight or per-row projection breaks it at once
    from solmanifold.propagators import _linear_force

    grid = RadialGrid(R=40.0, n=401)
    S = ground_state(grid)
    r, dr = grid.r, grid.dr
    dt, T = 0.8 * dr, 160.0  # 2000 steps
    V = soliton.potential(r, S.a)
    bumps = np.array([np.exp(-((r - c) ** 2)) * r for c in (2.0, 3.0, 5.0)])
    w0, w1 = bumps, np.roll(bumps, 1, axis=0)

    def energy(w):
        Aw = np.zeros_like(w)
        Aw[..., 1:-1] = -(w[..., 2:] - 2.0 * w[..., 1:-1] + w[..., :-2]) / dr**2
        Aw[..., 1:-1] += V[1:-1] * w[..., 1:-1]
        return (np.sum((w[1:] - w[:-1]) ** 2, axis=-1) / dt**2
                + np.sum(w[1:] * Aw[:-1], axis=-1))

    def run(w0, w1):
        return stored_leapfrog(grid, w0, w1, T, dt, _linear_force(grid, S.a, None),
                               wg=r * S.g.values)

    stack = energy(run(w0, w1))
    assert stack.shape == (2000, 3)
    for k in range(3):
        alone = energy(run(w0[k], w1[k]))
        assert np.array_equal(stack[:, k], alone)
        assert np.max(np.abs(alone - alone[0])) < 1e-12 * abs(alone[0])


def test_a_short_source_fails_typed():
    # the steps of a run of M steps read source rows 0..M-1: M rows are
    # enough and give the run of the M + 1 rows, fewer raise instead of
    # repeating the last row
    grid = RadialGrid(R=20.0, n=201)
    dt = 0.8 * grid.dr
    M = 25
    rows = np.exp(-((grid.r - 3.0) ** 2)) * np.cos(dt * np.arange(M + 1))[:, None]

    def run(source_rows):
        source = SpaceTimeField(grid, dt, source_rows)
        return stored_linear(grid.zeros(), grid.zeros(), source, M * dt, dt).samples

    assert np.array_equal(run(rows[:M]), run(rows))
    for short in (5, M - 1):
        with pytest.raises(GridUsageError, match="source"):
            run(rows[:short])


def test_cfl_guard(S_ref):
    grid = S_ref.grid
    with pytest.raises(GridUsageError):
        evolve_linear_perturbed([grid.zeros()], [grid.zeros()], None, 1.0, 2 * grid.dr,
                                lambda j, row: None)


def test_perturbed_energy_drift_second_order():
    # discrete energy of the perturbed flow drifts O(dt^2): halving dt
    # (with dr, CFL locked) reduces the drift ~x4
    from solmanifold.grid import h1_seminorm
    from solmanifold import ground_state

    drifts = []
    for n in (401, 801):
        grid = RadialGrid(R=40.0, n=n, R_obs=10.0)
        S = ground_state(grid)
        dt = 0.8 * grid.dr
        f = project_continuous_w(grid.field(np.exp(-((grid.r - 2.0) ** 2))), S)
        traj = stored_linear(f, grid.zeros(), None, 25.0, dt, project_out=S)
        # field energy 1/2(|grad u|^2 + u_t^2) + 1/2 <V u, u>, u_t by a dense
        # centered difference (its own O(dt^2) error dominates over rounding,
        # so the x4 law reflects the full second-order bookkeeping)
        Es = []
        for m in range(1, traj.samples.shape[0] - 1, 10):
            u = traj.slice(m)
            ut = RadialField(
                grid, (traj.samples[m + 1] - traj.samples[m - 1]) / (2 * traj.dt)
            )
            E = 0.5 * (h1_seminorm(u) ** 2 + l2_norm(ut) ** 2) + 0.5 * inner_product(
                RadialField(grid, soliton.potential(grid.r, 1.0) * u.values), u
            )
            Es.append(E)
        drifts.append(max(abs(e - Es[0]) for e in Es) / abs(Es[0]))
    assert drifts[0] / drifts[1] > 2.5


def test_secular_S_resonance_free_component():
    # data supported where V dphi ~ 0 (r^-5 tail forces a large separation):
    # secular term ~ 0 and S(t) f ~ the full evolution
    grid = RadialGrid(R=130.0, n=2601, R_obs=15.0)
    from solmanifold import ground_state

    S = ground_state(grid)
    dt = grid.dr
    far = grid.field(np.exp(-((grid.r - 70.0) ** 2) / 1.5**2))
    S_traj, coeff = stored_secular_split(far, 10.0, dt, S, "sine", stride=10)
    assert coeff.shape == (len(S_traj.samples),)
    secular = coeff[:, None] * S.resonance.values
    assert np.max(np.abs(secular)) < 5e-3 * np.max(np.abs(S_traj.samples))


def test_secular_long_time_limit():
    # Int_0^T sine-free(f, s) ds -> (-Delta)^{-1} f (long-time oracle by
    # quadrature), so the secular part converges to Q (-Delta)^{-1} f
    grid = RadialGrid(R=120.0, n=2401, R_obs=10.0)
    dt = grid.dr
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    T = grid.budget_horizon()
    traj = free_sine_traj(f, T, dt)
    cum = np.sum(traj.samples, axis=0) * dt - 0.5 * dt * (
        traj.samples[0] + traj.samples[-1]
    )
    target = newton_potential(f)
    sl = grid.obs_slice()
    rel = np.max(np.abs(cum[sl] - target.values[sl])) / np.max(np.abs(target.values[sl]))
    assert rel < 0.02


def test_cosine_of_H_fixes_resonance(S_ref):
    # cos(t sqrt(H)) P_c dphi = dphi inside the causal ball
    grid = RadialGrid(R=40.0, n=1601, R_obs=10.0)
    from solmanifold import ground_state

    S = ground_state(grid)
    dt = 0.8 * grid.dr
    res = S.resonance
    traj = stored_linear(
        project_continuous_w(res, S), grid.zeros(), None, 25.0, dt,
        project_out=S, stride=25,
    )
    sl = grid.obs_slice()
    scale = np.max(np.abs(res.values[sl]))
    for m in range(traj.samples.shape[0]):
        assert np.max(np.abs(traj.samples[m][sl] - res.values[sl])) < 2e-2 * scale


def test_secular_field_long_time_limit():
    # for resonance-coupled data the secular part of the perturbed sine
    # evolution converges to the rank-one projector applied to the Newton
    # potential of the data; this pins the orientation of the projector
    from solmanifold import ground_state

    grid = RadialGrid(R=80.0, n=1601, R_obs=15.0)
    S = ground_state(grid)
    dt = grid.dr
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    T = grid.budget_horizon()
    _, coeff = stored_secular_split(f, T, dt, S, "sine", stride=20)
    target = secular_projector(newton_potential(f), S)
    got = coeff[-1] * S.resonance.values
    sl = grid.obs_slice()
    scale = np.max(np.abs(target.values[sl]))
    # O(1/T) convergence of the time integral: a 10% window at T = 65
    assert np.max(np.abs(got[sl] - target.values[sl])) < 0.1 * scale


def test_secular_C_of_resonance_is_constant():
    grid = RadialGrid(R=40.0, n=1601, R_obs=10.0)
    from solmanifold import ground_state

    S = ground_state(grid)
    dt = grid.dr
    C_traj, coeff = stored_secular_split(S.resonance, 25.0, dt, S, "cosine", stride=25)
    sl = grid.obs_slice()
    scale = np.max(np.abs(S.resonance.values[sl]))
    full = C_traj.samples + coeff[:, None] * S.resonance.values
    for m in range(full.shape[0]):
        assert np.max(np.abs(full[m][sl] - S.resonance.values[sl])) < 2e-2 * scale


def test_perturbed_snapshots_convert_in_one_pass(S_ref):
    # the stacked w -> f conversion equals field_from_w slice by slice
    grid = S_ref.grid
    dt = 0.8 * grid.dr
    u0 = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    u1 = grid.field(0.5 * np.exp(-((grid.r - 3.0) ** 2)))
    V = soliton.potential(grid.r, 1.0)[1:-1]

    def force(w, m, acc):
        acc -= V * w[1:-1]

    snaps = stored_leapfrog(grid, u0.w(), u1.w(), 2.0, dt, force, stride=5)
    traj = stored_linear(u0, u1, None, 2.0, dt, stride=5)
    expected = np.stack([field_from_w(grid, w).values for w in snaps])
    assert np.array_equal(traj.samples, expected)


def test_perturbed_strided_run_stores_the_dense_rows(S_ref):
    # with a source and the g-suppression on, a stride-s run keeps rows
    # [::s], stored from the consumer's blocks or from the raw states; the
    # package's run stores none: it returns None and hands its consumer
    # rows 0..M in order, in blocks of BLOCK_BYTES, for a K = 1 stack and
    # each row of a K = 2 stack
    from solmanifold.propagators import _linear_force

    grid = S_ref.grid
    dt = 0.8 * grid.dr
    M = 100
    u0 = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    u1 = grid.field(0.5 * np.exp(-((grid.r - 3.0) ** 2)))
    F = SpaceTimeField(grid, dt, np.outer(np.cos(dt * np.arange(M + 1)), u0.values))
    dense = stored_linear(u0, u1, F, M * dt, dt, project_out=S_ref)
    force = _linear_force(grid, 1.0, F.samples.__getitem__)
    for s in (3, 7):
        run = stored_linear(u0, u1, F, M * dt, dt, stride=s, project_out=S_ref)
        assert run.dt == s * dt
        assert np.array_equal(run.samples, dense.samples[::s])
        snaps = stored_leapfrog(grid, u0.w(), u1.w(), M * dt, dt, force, stride=s,
                                wg=grid.r * S_ref.g.values)
        assert np.array_equal(np.array([field_from_w(grid, w).values for w in snaps]),
                              dense.samples[::s])
    half = SpaceTimeField(grid, dt, 0.5 * F.samples)
    swapped = stored_linear(u1, u0, half, M * dt, dt, project_out=S_ref)
    for data0, data1, rows, runs in (
        ([u0], [u1], F.samples, [dense]),
        ([u0, u1], [u1, u0], np.stack([F.samples, half.samples], axis=1), [dense, swapped]),
    ):
        seen = []
        block = _block_rows(len(data0) * grid.n)
        assert block < M + 1
        source = SimpleNamespace(dt=dt, rows=M + 1, row=rows.__getitem__)
        assert evolve_linear_perturbed(data0, data1, source, M * dt, dt,
                                       lambda j, block: seen.append((j, block.copy())),
                                       project_out=S_ref) is None
        assert [j for j, _ in seen] == [slice(j, min(j + block, M + 1))
                                        for j in range(0, M + 1, block)]
        got = np.concatenate([block for _, block in seen])
        assert got.shape == (M + 1, len(runs), grid.n)
        for k, run in enumerate(runs):
            assert np.array_equal(got[:, k], run.samples), k


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("rates", [False, True])
@pytest.mark.parametrize("stop_at", [None, 52])
def test_leapfrog_blocks_are_the_values_of_the_dense_states(K, stride, rates, stop_at):
    # the blocks take hands on are _values_from_w of the raw states stop
    # sees, snapshot by snapshot and bit for bit, in order from snapshot 0
    # with none missing: 10-row blocks over M = 100 steps end in a partial
    # block, and a run stopped at step 52 flushes the one it was filling;
    # rates are _rate of the dense states about each snapshot
    grid = RadialGrid(R=20.0, n=201)
    dt = 0.8 * grid.dr
    M, block, cols = 100, 10, 150
    V = soliton.potential(grid.r, 1.0)[1:-1]
    shifts = np.arange(K)[:, None] if K > 1 else 0.0
    w0 = grid.r * np.exp(-((grid.r - 3.0 - shifts) ** 2))
    w1 = 0.5 * grid.r * np.exp(-((grid.r - 2.0 - shifts) ** 2))
    dense, got = [], []

    def stop(m, w):
        dense.append(w.copy())
        return "stopped" if m == stop_at else None

    def take(rows, values, slopes):
        assert values.shape == (rows.stop - rows.start, *np.shape(w0)[:-1], cols)
        assert (slopes is None) == (not rates)
        got.append((rows, values.copy(), None if slopes is None else slopes.copy()))

    def force(w, m, acc):
        acc -= V * w[..., 1:-1]

    m_end, status = _leapfrog(grid, w0, w1, M * dt, dt, force, take, stride=stride, block=block,
                              cols=cols, stop=stop, rates=rates)
    assert (m_end, status) == ((M, None) if stop_at is None else (stop_at, "stopped"))
    J = m_end // stride + 1
    assert [rows for rows, _, _ in got] == [slice(j, min(j + block, J)) for j in range(0, J, block)]
    values = np.concatenate([v for _, v, _ in got])
    states = np.array(dense)
    assert np.array_equal(values, _values_from_w(grid, states[::stride, ..., :cols].copy()))
    if rates:
        slopes = np.concatenate([sl for _, _, sl in got])
        for j in range(J):
            m = j * stride
            lo, hi = max(m - 2, 0), min(m + 2, m_end) + 1
            rate = _expression_rate(states[lo:hi], m - lo, dt)[..., :cols].copy()
            assert np.array_equal(slopes[j], _values_from_w(grid, rate)), j


def _expression_rate(w, i, dt):
    # _rate's formulas written as expressions: the in-place route must give their bits
    before, after = min(i, 2), min(len(w) - 1 - i, 2)
    if before == after == 2:
        return (8.0 * (w[i + 1] - w[i - 1]) - (w[i + 2] - w[i - 2])) / (12.0 * dt)
    if before and after:
        return (w[i + 1] - w[i - 1]) / (2.0 * dt)
    if after:
        return (w[i + 1] - w[i]) / dt
    if before:
        return (w[i] - w[i - 1]) / dt
    return np.zeros_like(w[i])


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_rate_writes_the_expression_bits_into_out(count):
    # every position of every window length: each of the four formulas and
    # the lone state, written into a strided row of a larger block
    rng = np.random.default_rng(count)
    w = [rng.standard_normal((3, 40)) for _ in range(count)]
    block = np.full((2, 3, 60), np.nan)
    for i in range(count):
        _rate([s[..., :25] for s in w], i, 0.037, block[1, :, :25], np.empty((3, 25)))
        assert np.array_equal(block[1, :, :25], _expression_rate(w, i, 0.037)[..., :25]), i
    assert np.isnan(block[0]).all() and np.isnan(block[1, :, 25:]).all()


def test_leapfrog_without_a_consumer_makes_no_snapshot():
    # no take, no block buffer: the run only steps, and stop still sees every state
    grid = RadialGrid(R=20.0, n=201)
    dt = 0.8 * grid.dr
    seen = []
    w0 = grid.r * np.exp(-((grid.r - 3.0) ** 2))
    assert _leapfrog(grid, w0, 0.0 * w0, 40 * dt, dt, lambda w, m, acc: None,
                     stop=lambda m, w: seen.append(m)) == (40, None)
    assert seen == list(range(41))


def test_linear_evolution_is_scale_covariant():
    # psi -> lambda^(1/2) psi(lambda t, lambda r) maps phi(., a) to
    # phi(., lambda^2 a); with lambda = 4 every factor is a power of two, so
    # the scheme on (R/4, n) at scale 16 and step dt/4 is the scheme on
    # (R, n) at scale 1, scaled exactly: data (f, f1) -> (2 f, 8 f1) gives
    # u -> 2 u, and q -> 2 q gives sine transports E/2 and cosine ones 2 E
    big = RadialGrid(R=40.0, n=801, R_obs=12.0)
    small = RadialGrid(R=10.0, n=801, R_obs=3.0)
    T, dt = 16.0, 0.8 * big.dr
    assert ground_state(small, 16.0).k / ground_state(big, 1.0).k == 4.0
    f = np.exp(-((big.r - 3.0) ** 2))
    f1 = big.r * np.exp(-((big.r - 2.0) ** 2))
    ref = stored_linear(big.field(f), big.field(f1), None, T, dt, a=1.0).samples
    out = stored_linear(
        small.field(2.0 * f), small.field(8.0 * f1), None, T / 4, dt / 4, a=16.0
    ).samples
    assert np.max(np.abs(out - 2.0 * ref)) <= 1e-15 * np.max(np.abs(ref))
    for kind in ("sine", "cosine"):
        E = _q_transport(big, 1.0, T, dt, kind)[0]
        E_s = _q_transport(small, 16.0, T / 4, dt / 4, kind)[0]
        factor = 0.5 if kind == "sine" else 2.0
        assert np.max(np.abs(E_s - factor * E)) <= 1e-15 * np.max(np.abs(E))


def _streamed_blocks(produce, grid, dt, radius=None):
    """(blocks, profiles): produce(profiles) streams to the TimeProfiles of
    the ball of radius, and blocks are copies of the blocks it hands them."""
    profiles = TimeProfiles(grid, dt, radius)
    blocks = []
    add = profiles.add

    def record(block):
        blocks.append(block.copy())
        add(block)

    profiles.add = record
    assert produce(profiles) is None
    return blocks, profiles


def _one_field(profiles):
    """A consumer of a one-field split that hands the field's rows of each
    (rows, 1, cols) block to profiles."""
    return SimpleNamespace(inside=profiles.inside, add=lambda block: profiles.add(block[:, 0]))


def _assert_same_profiles(profiles, traj):
    stored = TimeProfiles.of(traj, profiles.radius)
    for inner in ("Linf_t", "L2_t", "L1_t"):
        assert np.array_equal(profiles.profile(inner), stored.profile(inner))


@pytest.mark.parametrize("cells", [1.0, 0.8])
def test_bounded_free_trajectory_is_the_leading_columns(cells):
    # whole-cell shifts (dt = dr) and the interpolating path (dt = 0.8 dr):
    # the rows streamed to the profiles of a ball are the whole-grid rows
    # cut to its nodes, bit for bit, and give the stored rows' profiles
    grid = RadialGrid(R=40.0, n=801, R_obs=10.0)
    f = grid.field(np.exp(-((grid.r - 3.0) ** 2)) + 0.1 / (1.0 + grid.r**2))
    dt = cells * grid.dr
    cols = grid.obs_slice().stop
    for traj_fn in (free_sine_traj, free_cosine_traj):
        full = traj_fn(f, 20.0, dt)
        blocks, profiles = _streamed_blocks(lambda p: traj_fn(f, 20.0, dt, profiles=p), grid, dt)
        assert np.array_equal(np.concatenate(blocks), full.samples[:, :cols])
        _assert_same_profiles(profiles, full)


def test_bounded_perturbed_rows_are_the_leading_columns(S_ref):
    # the leapfrog evolves the whole grid either way; the dispersive rows a
    # secular split (with its resonance series passed in) streams to the profiles
    # of a ball are the leading columns of the stored whole-grid split, and
    # a ball of one cell still gets the 3 nodes the origin value reads
    grid = S_ref.grid
    dt = 0.8 * grid.dr
    cols = grid.obs_slice().stop
    u0 = grid.field(np.exp(-((grid.r - 2.0) ** 2)) + 0.5 * np.exp(-((grid.r - 3.0) ** 2)))
    for kind, split in (("sine", secular_decomposition_S), ("cosine", secular_decomposition_C)):
        series = _resonance_series(grid, S_ref.a, 6.0, dt, kind, [u0])
        for stride in (1, 3):
            ref = stored_secular_split(u0, 6.0, dt, S_ref, kind, stride=stride)[0]
            for radius, k in ((grid.R_obs, cols), (grid.dr, 3)):
                blocks, profiles = _streamed_blocks(
                    lambda p: split([u0], 6.0, dt, S_ref, series, _one_field(p), stride=stride),
                    grid, ref.dt, radius,
                )
                assert np.array_equal(np.concatenate(blocks), ref.samples[:, :k])
                _assert_same_profiles(profiles, ref)


def test_bounded_trajectories_fail_typed(S_ref):
    # a trajectory holds the whole grid: the rows of a ball are no
    # SpaceTimeField, and rows narrower than a ball are no block of its
    # profiles
    grid = S_ref.grid
    dt = grid.dr
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)))
    full = free_sine_traj(f, 5.0, dt)
    cols = grid.obs_slice().stop
    for samples in (full.samples[:, :cols], np.zeros((2, grid.n + 1)), full.samples[0]):
        with pytest.raises(GridUsageError, match="shape"):
            SpaceTimeField(grid, dt, samples)
    with pytest.raises(GridUsageError, match="needs"):
        TimeProfiles(grid, dt).add(full.samples[:, : cols - 1])
    # a resonance series must have one row of one value per step, no more
    # and no fewer
    series = _resonance_series(grid, S_ref.a, 5.0, dt, "sine", [f])
    for wrong in (series[:, :-1], np.pad(series, ((0, 0), (0, 1))), series[0]):
        with pytest.raises(GridUsageError, match="resonance series"):
            secular_decomposition_S([f], 5.0, dt, S_ref, wrong, TimeProfiles(grid, dt))
    # a NaN inside the observation ball: the finiteness scan covers every
    # stored sample, and streamed, the profiles the rows feed carry the check
    bad = f.values.copy()
    bad[cols // 2] = np.nan
    for traj_fn in (free_sine_traj, free_cosine_traj):
        with pytest.raises(GridUsageError):
            traj_fn(grid.field(bad), 5.0, dt)
        profiles = TimeProfiles(grid, dt)
        traj_fn(grid.field(bad), 5.0, dt, profiles=profiles)
        with pytest.raises(GridUsageError, match="non-finite"):
            profiles.norm("Linf_x", "L2_t")
    samples = full.samples.copy()
    samples[-1, -1] = np.nan
    with pytest.raises(GridUsageError):
        SpaceTimeField(grid, dt, samples)


@pytest.fixture(scope="module")
def stream_setup():
    grid = RadialGrid(R=20.0, n=201, R_obs=5.0)
    return grid, ground_state(grid)


@pytest.mark.parametrize("rows", [1, 7, 101, 500])
@pytest.mark.parametrize(
    "producer, kind, stride, cfl",
    [("free", "sine", 1, 1.0), ("free", "cosine", 1, 1.0), ("free", "cosine", 1, 0.8),
     ("split", "sine", 1, 1.0), ("split", "cosine", 1, 1.0), ("split", "sine", 3, 1.0)],
    ids=["free-sine", "free-cosine", "free-cosine-interpolated", "split-sine",
         "split-cosine", "split-sine-stride-3"],
)
def test_streamed_rows_give_the_stored_profiles(monkeypatch, stream_setup, producer, kind,
                                                stride, cfl, rows):
    # the rows a producer streams in blocks of 1, of a non-divisor of the
    # 101 rows (dt = dr), of exactly 101 and of more are the observation
    # ball's columns of its stored whole-grid trajectory and give, fed to
    # TimeProfiles, the profiles of that ball bit for bit; the stored
    # trajectory does not depend on the block size either
    import solmanifold.propagators as prop

    grid, S = stream_setup
    dt = cfl * grid.dr
    T = 100 * dt
    f = grid.field(np.exp(-((grid.r - 2.0) ** 2)) * (1.0 + 0.3 * np.sin(3.0 * grid.r)))
    if producer == "free":
        traj_fn = free_sine_traj if kind == "sine" else free_cosine_traj

        def evolve(**kw):
            return traj_fn(f, T, dt, **kw)
    else:
        split = secular_decomposition_S if kind == "sine" else secular_decomposition_C

        def evolve(profiles=None):
            if profiles is None:
                return stored_secular_split(f, T, dt, S, kind, stride=stride)[0]
            series = _resonance_series(grid, S.a, T, dt, kind, [f])
            return split([f], T, dt, S, series, _one_field(profiles), stride=stride)

    stored = evolve()
    inside = grid.obs_slice()
    # a streamed block holds the nodes of the observation ball
    monkeypatch.setattr(prop, "BLOCK_BYTES", 8 * inside.stop * rows)
    assert np.array_equal(evolve().samples, stored.samples)
    blocks, profiles = _streamed_blocks(lambda p: evolve(profiles=p), grid, stored.dt)
    assert [len(b) for b in blocks[:-1]] == [min(rows, len(stored.samples))] * (len(blocks) - 1)
    assert np.array_equal(np.concatenate(blocks), stored.samples[:, : inside.stop])
    want = inner_time_profiles(stored.samples[:, inside], stored.dt)
    for inner, ref in zip(("Linf_t", "L2_t", "L1_t"), want):
        assert np.array_equal(profiles.profile(inner), ref)


def test_streamed_transport_peak_stays_near_its_blocks():
    # a streamed free trajectory holds the transport's node values, one
    # block of about BLOCK_BYTES and the profiles' copy of it: at R = 80,
    # n = 3201 (1,601 rows of an 801-node ball) well under 1.5 MB above
    # entry, where 1 MB blocks with per-block windows took 3.4 MB
    import tracemalloc

    grid = RadialGrid(R=80.0, n=3201, R_obs=20.0)
    f = grid.field(np.exp(-((grid.r - 3.0) ** 2)) + 0.1 / (1.0 + grid.r**2))
    tracemalloc.start()
    try:
        free_sine_traj(f, 40.0, grid.dr, profiles=TimeProfiles(grid, grid.dr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_whole_cell_transport_builds_its_windows_once(monkeypatch):
    # the windows of the halved node values depend only on the call: every
    # block of a whole-cell transport reads the one set built for it
    import solmanifold.propagators as prop

    grid = RadialGrid(R=40.0, n=801, R_obs=10.0)
    f = grid.field(np.exp(-((grid.r - 3.0) ** 2)))
    built = []

    def counted(*args, **kw):
        built.append(args)
        return sliding_window_view(*args, **kw)

    monkeypatch.setattr(prop, "sliding_window_view", counted)
    monkeypatch.setattr(prop, "BLOCK_BYTES", 8 * grid.obs_slice().stop * 7)
    for traj_fn in (free_sine_traj, free_cosine_traj):
        for profiles in (None, TimeProfiles(grid, grid.dr)):
            built.clear()
            traj_fn(f, 20.0, grid.dr, profiles=profiles)
            assert len(built) == 1
