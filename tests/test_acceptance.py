"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Every criterion is driven through the experiment runner at a pinned
configuration, so the thresholds asserted here are exactly the thresholds
recorded in the emitted reports.
"""

import numpy as np

from solmanifold.experiments import ExperimentConfig, run

from schema_check import assert_schema_names_outputs


def _run(tmp_path, label, **kw):
    cfg = ExperimentConfig(output_dir=str(tmp_path / kw["experiment"]), **kw)
    report = run(cfg)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"  [{status}] {c.name}: {c.value:.6g} {c.op} {c.threshold:.6g}")
    print(f"[{'PASS' if report.passed else 'FAIL'}] {label}")
    # every data file the run wrote is documented in its SCHEMA.md
    assert_schema_names_outputs(tmp_path / kw["experiment"])
    return report


def test_criterion_01_soliton_identities(tmp_path):
    report = _run(
        tmp_path,
        "criterion 1: soliton identities (residual x4 per dr halving; "
        "<V, dphi> = pi 3^(1/4) to 1e-4 at R=200, n=8001)",
        experiment="stationarity",
        R=200.0,
        n=8001,
        R_obs=30.0,
        T=6.0,
    )
    assert report.passed


def test_criterion_02_spectrum(tmp_path):
    report = _run(
        tmp_path,
        "criterion 2: spectrum (k stable to 1e-8 under R doubling; residual < 1e-6; "
        "one negative eigenvalue; overlap < 1e-4 decreasing; k(4) = 2 k(1) to 1e-4)",
        experiment="spectrum",
        R=20.0,
        n=1601,
    )
    assert report.passed


def test_criterion_03_energy_conservation(tmp_path):
    report = _run(
        tmp_path,
        "criterion 3: energy drift < 1e-4 over [0,50] at reference resolution, "
        "improving ~x4 per dt halving (CFL locked)",
        experiment="energy_conservation",
        R=60.0,
        n=4801,
        T=50.0,
        cfl=0.8,
        eps=0.3,
        seed=2,
    )
    assert report.passed


def test_criterion_03_energy_conservation_seed_3(tmp_path):
    # seed 3 puts the bump centre at 1.586; with three-point rates the
    # stored energy drifted 1.0046e-4 there, above the bound
    report = _run(
        tmp_path,
        "criterion 3 at seed 3: energy drift < 1e-4, improving ~x4 per dt halving",
        experiment="energy_conservation",
        R=60.0,
        n=4801,
        T=50.0,
        cfl=0.8,
        eps=0.3,
        seed=3,
    )
    assert report.passed


def test_criterion_04_free_reverse_strichartz(tmp_path):
    report = _run(
        tmp_path,
        "criterion 4: free reverse Strichartz constants finite, < x2 variation "
        "across a 20-member seeded family and across two resolutions",
        experiment="strichartz_free",
        R=80.0,
        n=1601,
        R_obs=20.0,
        T=40.0,
        seed=11,
    )
    assert report.passed


def test_criterion_05_secular_decomposition(tmp_path):
    report = _run(
        tmp_path,
        "criterion 5: dispersive part bounded uniformly in T in {25,50,100} "
        "(< x1.5) while the undifferenced evolution grows ~ T",
        experiment="secular",
        R=130.0,
        n=2601,
        R_obs=25.0,
    )
    assert report.passed


def test_criterion_06_pairing_identity(tmp_path):
    report = _run(
        tmp_path,
        "criterion 6: resonance pairing identity at T = R/2 within 1% "
        "(of the accumulated integrand mass; both sides vanish for psi1 = phi^5)",
        experiment="pairing_identity",
        R=200.0,
        n=4001,
    )
    assert report.passed
    # companion with a nonzero right-hand side: genuinely relative 1%.
    # The pairing weight peaks sharply at the origin, so this check needs
    # dr = 0.0125 for its O(dr^2) quadrature bias to clear 1%.
    # The series <free_sine(psi1)(t_m), q> comes from one streamed
    # transport, whose whole-grid row blocks a local consumer pairs with q;
    # three per-slice free_sine pairings are its oracle.
    from solmanifold import RadialGrid, inner_product, free_sine
    from solmanifold import soliton
    from solmanifold.grid import FOUR_PI
    from solmanifold.propagators import free_sine_traj

    grid = RadialGrid(R=200.0, n=16001)
    psi1 = grid.field(np.exp(-(grid.r**2)))
    q = grid.field(soliton.potential(grid.r, 1.0) * soliton.dphi_da(grid.r, 1.0))
    dt = grid.dr
    M = int(round((grid.R / 2) / dt))

    class Pairing:
        inside = slice(0, grid.n)
        weights = FOUR_PI * grid.simpson_weights * grid.r**2 * q.values

        def __init__(self):
            self.parts = []

        def add(self, block):
            self.parts.append(block @ self.weights)

    acc = Pairing()
    assert free_sine_traj(psi1, grid.R / 2, dt, profiles=acc) is None
    series = np.concatenate(acc.parts)
    assert len(series) == M + 1
    for m in (1, M // 2, M):
        ref = inner_product(free_sine(psi1, m * dt), q)
        assert abs(series[m] - ref) <= 1e-14 * abs(ref)
    lhs = float(np.trapezoid(series, dx=dt))
    rhs = -inner_product(soliton.dphi_da_field(grid), psi1)
    ok = abs(lhs - rhs) / abs(rhs) < 0.01
    print(f"  [{'PASS' if ok else 'FAIL'}] nonzero-RHS companion: rel err "
          f"{abs(lhs - rhs) / abs(rhs):.3e} < 0.01")
    assert ok


def test_criterion_07_manifold_quadratic_law(tmp_path):
    report = _run(
        tmp_path,
        "criterion 7: shoot_h log-log slope 2.0 +- 0.1 over eps in {1,2,4,8}e-4; "
        "h_fixed_point agrees with shoot_h within 1e-3 eps^2",
        experiment="h_scaling",
        R=60.0,
        n=1201,
        R_obs=20.0,
        T=18.0,
        cfl=0.8,
        seed=5,
        sweep=(1e-4, 2e-4, 4e-4, 8e-4),
    )
    assert report.passed


def test_criterion_08_codimension_one(tmp_path):
    report = _run(
        tmp_path,
        "criterion 8: h* +- 1e-6 departs at rate k within 2%, opposite exit signs",
        experiment="codim1",
        R=60.0,
        n=1201,
        R_obs=20.0,
        T=18.0,
        cfl=0.8,
        eps=4e-4,
        seed=5,
    )
    assert report.passed


def test_criterion_09_contraction(tmp_path):
    report = _run(
        tmp_path,
        "criterion 9: Picard map contraction ratio < 1 at eps = 1e-3, "
        "decreasing with eps",
        experiment="contraction",
        R=40.0,
        n=801,
        R_obs=12.0,
        T=16.0,
        cfl=0.8,
        seed=3,
        sweep=(5e-4, 1e-3, 2e-3),
    )
    assert report.passed
    ratios = {r["eps"]: r["contraction_ratio"] for r in report.records}
    assert ratios[1e-3] < 1.0


def test_criterion_10_on_manifold_stability(tmp_path):
    rep1 = _run(
        tmp_path,
        "criterion 10a: ||adot||_L1 <= C eps and trajectory mixed norms <= C eps, "
        "C stable across the sweep; two adot routes agree within 5%",
        experiment="adot_l1",
        R=60.0,
        n=1201,
        R_obs=20.0,
        T=18.0,
        cfl=0.8,
        seed=4,
        sweep=(1e-3, 3e-3, 1e-2),
    )
    assert rep1.passed
    rep2 = _run(
        tmp_path,
        "criterion 10b: Lipschitz data dependence, constant stable across "
        "delta in {1e-4, 1e-3}",
        experiment="lipschitz",
        R=60.0,
        n=1201,
        R_obs=20.0,
        T=18.0,
        cfl=0.8,
        eps=1e-3,
        seed=6,
        sweep=(1e-4, 1e-3),
    )
    assert rep2.passed


def test_criterion_11_weighted_growth(tmp_path):
    report = _run(
        tmp_path,
        "criterion 11: weighted diagnostic bounded by C e^t eps over [0,5], "
        "fit exponent <= 1.1",
        experiment="weighted_growth",
        R=60.0,
        n=1201,
        R_obs=20.0,
        T=18.0,
        cfl=0.8,
        eps=1e-3,
        seed=7,
    )
    assert report.passed
