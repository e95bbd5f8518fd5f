import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solmanifold import (
    RadialField,
    RadialGrid,
    energy,
    lorentz_norm,
    mixed_norm,
)
from solmanifold import soliton
from solmanifold.grid import GridUsageError
from solmanifold.norms import TimeProfiles
from solmanifold.propagators import SpaceTimeField, free_sine_traj

from oracles import inner_time_profiles, kato_norm, lp_norm_cells, profiles_of, spacetime_l8

INT_PHI6 = 3.0**1.5 * np.pi**2 / 4.0


@pytest.fixture(scope="module")
def norm_grid():
    return RadialGrid(R=60.0, n=1201, R_obs=20.0)


def test_lorentz_indicator_closed_form(norm_grid):
    # rearrangement of an indicator: ||chi||_{p,q} = (p/q)^{1/q} Vol^{1/p}
    r = norm_grid.r
    f = norm_grid.field(((r > 2.0) & (r <= 5.0)).astype(float))
    vol = float(np.sum(norm_grid.cell_volumes[(r > 2.0) & (r <= 5.0)]))
    for p, q in ((1.5, 1.0), (6.0, 2.0), (2.0, 2.0)):
        expected = (p / q) ** (1.0 / q) * vol ** (1.0 / p)
        assert lorentz_norm(f, p, q) == pytest.approx(expected, rel=1e-12)


def test_lorentz_diagonal_identity(norm_grid, rng):
    f = norm_grid.field(rng.standard_normal(norm_grid.n))
    for p in (1.5, 2.0, 6.0):
        assert lorentz_norm(f, p, p) == pytest.approx(lp_norm_cells(f, p), rel=1e-10)


def test_lorentz_q_infinity(norm_grid):
    r = norm_grid.r
    f = norm_grid.field(((r <= 1.0)).astype(float))
    vol = float(np.sum(norm_grid.cell_volumes[r <= 1.0]))
    assert lorentz_norm(f, 3.0, np.inf) == pytest.approx(vol ** (1 / 3.0), rel=1e-12)


def test_lorentz_phi_62_stable_under_R_doubling():
    # phi ~ 1/r lies in L^{6,2}; the truncation tail of the norm decays ~ 1/R
    vals = []
    for R, n in ((200.0, 2001), (400.0, 4001)):
        g = RadialGrid(R=R, n=n)
        vals.append(lorentz_norm(soliton.phi_field(g), 6.0, 2.0))
    assert abs(vals[1] - vals[0]) / vals[0] < 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_lorentz_monotone_under_domination(seed):
    g = RadialGrid(R=20.0, n=101)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.n)
    h = f * rng.uniform(0.0, 1.0, g.n)  # |h| <= |f| pointwise
    assert lorentz_norm(g.field(h), 6, 2) <= lorentz_norm(g.field(f), 6, 2) + 1e-12
    assert lorentz_norm(g.field(h), 1.5, 1) <= lorentz_norm(g.field(f), 1.5, 1) + 1e-12


def test_lorentz_range_guards(norm_grid):
    with pytest.raises(ValueError):
        lorentz_norm(norm_grid.zeros(), 0.5, 1)
    with pytest.raises(ValueError):
        lorentz_norm(norm_grid.zeros(), 2, 0.0)


def test_mixed_norm_time_collapse(norm_grid):
    f = np.exp(-((norm_grid.r - 3.0) ** 2))
    u = SpaceTimeField(norm_grid, 0.05, np.tile(f, (41, 1)))
    got = mixed_norm(profiles_of(u), ("lorentz", 6, 2), "Linf_t")
    want = lorentz_norm(norm_grid.field(f), 6, 2, radius=norm_grid.R_obs)
    assert got == pytest.approx(want, rel=1e-12)


def test_mixed_norm_separable_factorization(norm_grid):
    f = np.exp(-((norm_grid.r - 3.0) ** 2))
    M = 80
    dt = 0.05
    h = np.cos(0.7 * dt * np.arange(M + 1))
    u = SpaceTimeField(norm_grid, dt, np.outer(h, f))
    # inner L2_t factorizes: ||f h||_mixed = ||h||_{L2_t} * lorentz(f)
    got = mixed_norm(profiles_of(u), ("lorentz", 6, 2), "L2_t")
    want = np.sqrt(np.sum(h * h) * dt) * lorentz_norm(
        norm_grid.field(f), 6, 2, radius=norm_grid.R_obs
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_mixed_norm_unknown_tags(norm_grid):
    u = SpaceTimeField(norm_grid, 0.05, np.zeros((3, norm_grid.n)))
    with pytest.raises(Exception):
        mixed_norm(profiles_of(u), ("lorentz", 6, 2), "L7_t")
    with pytest.raises(Exception):
        mixed_norm(profiles_of(u), "bogus", "L2_t")


def test_mixed_norm_reads_only_the_observation_ball(norm_grid, rng):
    f = norm_grid.field(np.exp(-((norm_grid.r - 3.0) ** 2)))
    traj = free_sine_traj(f, 20.0, norm_grid.dr)
    for radius in (None, 8.0):
        jend = int(np.floor((radius or norm_grid.R_obs) / norm_grid.dr)) + 1
        garbage = traj.samples.copy()
        garbage[:, jend:] = 1e6 * rng.standard_normal(garbage[:, jend:].shape)
        spoiled = SpaceTimeField(norm_grid, traj.dt, garbage)
        for outer in (("lorentz", 6, 2), "Linf_x"):
            for inner in ("Linf_t", "L2_t", "L1_t"):
                assert mixed_norm(profiles_of(spoiled, radius), outer, inner) == mixed_norm(
                    profiles_of(traj, radius), outer, inner
                )


def test_mixed_norm_of_a_bounded_trajectory(norm_grid):
    # the rows of a ball streamed to its profiles give the stored whole-grid
    # trajectory's norms on that ball; a block narrower than the ball it
    # feeds is a typed failure, not a silent cut
    f = norm_grid.field(np.exp(-((norm_grid.r - 3.0) ** 2)))
    dt = norm_grid.dr
    full = free_sine_traj(f, 20.0, dt)
    for radius in (None, 8.0):
        streamed = TimeProfiles(norm_grid, dt, radius)
        free_sine_traj(f, 20.0, dt, profiles=streamed)
        for outer in (("lorentz", 6, 2), "Linf_x"):
            for inner in ("Linf_t", "L2_t", "L1_t"):
                assert mixed_norm(streamed, outer, inner) == mixed_norm(profiles_of(full, radius),
                                                                        outer, inner)
    wider = TimeProfiles(norm_grid, dt, norm_grid.R_obs + norm_grid.dr)
    with pytest.raises(GridUsageError):
        wider.add(full.samples[:, : norm_grid.obs_slice().stop])


def test_a_ball_wider_than_the_grid_fails_typed():
    # a ball of radius 50 on a grid of R = 40 holds 501 of the 401 nodes: it
    # is refused when the profiles are made, before a streamed producer
    # hands them a block of 401 columns
    grid = RadialGrid(R=40.0, n=401)
    with pytest.raises(GridUsageError, match="wider than the grid"):
        TimeProfiles(grid, grid.dr, radius=50.0)
    assert TimeProfiles(grid, grid.dr, radius=40.0).inside.stop == grid.n


@pytest.mark.parametrize("rows", [1, 13, 161, 400])
def test_time_profiles_in_blocks_equal_the_whole_stack(norm_grid, rng, rows):
    # blocks of 1 row, of a non-divisor of M+1 = 161, of exactly M+1 and of
    # more: the carried row 0 makes every blocking sum in the stack's order
    dt = 0.05
    samples = rng.standard_normal((161, norm_grid.n)) * np.exp(-norm_grid.r / 4.0)
    profiles = TimeProfiles(norm_grid, dt)
    for m0 in range(0, len(samples), rows):
        profiles.add(samples[m0 : m0 + rows])
    inside = norm_grid.obs_slice()
    for inner, want in zip(("Linf_t", "L2_t", "L1_t"), inner_time_profiles(samples[:, inside], dt)):
        assert np.array_equal(profiles.profile(inner), want)


@pytest.mark.parametrize("rows", [1, 13, 161])
def test_time_profiles_of_a_stack_equal_each_trajectorys(norm_grid, rng, rows):
    # blocks of (rows, K, cols) from K trajectories stepped together: every
    # profile and norm has one entry per trajectory, with the bits of that
    # trajectory fed alone
    dt = 0.05
    samples = rng.standard_normal((161, 3, norm_grid.n)) * np.exp(-norm_grid.r / 4.0)
    stacked = TimeProfiles(norm_grid, dt)
    for m0 in range(0, len(samples), rows):
        stacked.add(samples[m0 : m0 + rows])
    for k in range(3):
        alone = profiles_of(SpaceTimeField(norm_grid, dt, samples[:, k]))
        for inner in ("Linf_t", "L2_t", "L1_t"):
            assert np.array_equal(stacked.profile(inner)[k], alone.profile(inner))
            for outer in ("Linf_x", ("lorentz", 6, 2)):
                assert mixed_norm(stacked, outer, inner)[k] == mixed_norm(alone, outer, inner)


def test_time_profiles_of_non_finite_rows_raise(norm_grid):
    rows = np.ones((5, norm_grid.n))
    rows[3, 2] = np.inf
    profiles = TimeProfiles(norm_grid, 0.05)
    profiles.add(rows[:2])
    profiles.add(rows[2:])
    with pytest.raises(GridUsageError, match="non-finite"):
        mixed_norm(profiles, "Linf_x", "L1_t")
    with pytest.raises(GridUsageError):
        mixed_norm(TimeProfiles(norm_grid, 0.05), "Linf_x", "L1_t")


def test_spacetime_l8_block(norm_grid):
    r = norm_grid.r
    f = ((r > 1.0) & (r <= 2.0)).astype(float)
    M = 40
    dt = 0.05
    u = SpaceTimeField(norm_grid, dt, np.tile(f, (M + 1, 1)))
    vol = float(np.sum(norm_grid.cell_volumes[(r > 1.0) & (r <= 2.0)]))
    expected = (vol * (M + 1) * dt) ** (1 / 8)
    assert spacetime_l8(u) == pytest.approx(expected, rel=1e-12)


def test_l8_interpolation_inequality(norm_grid):
    # || u ||_8 <= || u ||_{L62 Linf}^{3/4} || u ||_{Linf L2}^{1/4} on a
    # produced trajectory
    f = norm_grid.field(np.exp(-((norm_grid.r - 2.0) ** 2)))
    traj = free_sine_traj(f, 30.0, norm_grid.dr)
    lhs = spacetime_l8(traj)
    profiles = profiles_of(traj)
    rhs = mixed_norm(profiles, ("lorentz", 6, 2), "Linf_t") ** 0.75 * mixed_norm(
        profiles, "Linf_x", "L2_t"
    ) ** 0.25
    assert lhs <= rhs * (1 + 1e-10)


def test_kato_ball_closed_form():
    # indicator edges carry an O(dr) quadrature error, so use a fine grid
    g = RadialGrid(R=10.0, n=4001)
    f = g.field((g.r <= 1.0).astype(float))
    # Newton's theorem: value at y = 0 is 4 pi Int_0^1 r dr = 2 pi
    assert kato_norm(f) == pytest.approx(2 * np.pi, rel=3e-3)


def test_kato_scaling():
    g = RadialGrid(R=20.0, n=8001)
    base = kato_norm(g.field(np.exp(-(g.r**2))))
    for lam in (2.0, 4.0):
        scaled = kato_norm(g.field(np.exp(-((lam * g.r) ** 2))))
        assert scaled == pytest.approx(base / lam**2, rel=2e-3)


def test_kato_phi5_finite_resonance_divergent():
    vals = []
    for R, n in ((100.0, 2001), (200.0, 4001)):
        g = RadialGrid(R=R, n=n)
        phi5 = g.field(soliton.phi(g.r, 1.0) ** 5)
        res = soliton.dphi_da_field(g)
        vals.append((kato_norm(phi5), kato_norm(res)))
    # phi^5 in the Kato class: stable under R-doubling
    assert abs(vals[1][0] - vals[0][0]) / vals[0][0] < 2e-2
    # the resonance diverges linearly: doubling R doubles the norm
    assert vals[1][1] / vals[0][1] == pytest.approx(2.0, rel=0.1)


def test_energy_soliton_value():
    g = RadialGrid(R=200.0, n=4001)
    E = energy(soliton.phi_field(g), g.zeros())
    assert E == pytest.approx(INT_PHI6 / 3.0, rel=5e-4)
    assert energy(g.zeros(), g.zeros()) == 0.0


def test_energy_scale_invariance():
    # the H1 part carries an a-dependent O(dr^2) midpoint bias, so scale
    # invariance at 1e-6 needs a very fine quadrature grid (cheap: no
    # evolution involved)
    g = RadialGrid(R=400.0, n=256001)
    vals = [energy(soliton.phi_field(g, a), g.zeros()) for a in (0.5, 1.0, 2.0)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-6)
