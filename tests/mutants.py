"""One-line mutants of the package, each run against the tier-1 suite.

Usage, from the root of a checkout:

    python tests/mutants.py

Each mutant replaces one exact fragment of one source file (it must occur
once) in a fresh temporary copy of the checkout, then runs the tier-1 suite
there with -x.  A failing suite kills the mutant; a passing one lets it
survive.  The script prints one line per mutant and exits 1 if any mutant
survived or its run could not be judged.  Copies go under $TMPDIR.

It is not part of tier-1 (pytest does not collect it): every mutant costs
up to one suite run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, old text, new text)
MUTANTS = [
    (
        "evolve_linear_perturbed ignores a",
        "src/solmanifold/propagators.py",
        "V = soliton.potential(grid.r, a)[1:-1]",
        "V = soliton.potential(grid.r, 1.0)[1:-1]",
    ),
    (
        "_resonance_series ignores a",
        "src/solmanifold/propagators.py",
        "q = grid.field(soliton.resonance_weight(grid.r, a))",
        "q = grid.field(soliton.resonance_weight(grid.r, 1.0))",
    ),
    (
        "column bound one node short of the ball",
        "src/solmanifold/propagators.py",
        "max(profiles.inside.stop, 3)",
        "max(profiles.inside.stop - 1, 3)",
    ),
    (
        "cosine split reads the sine series",
        "src/solmanifold/experiments.py",
        "series=cosines[i]",
        "series=sines[i]",
    ),
    (
        "the split's series length check dropped",
        "src/solmanifold/propagators.py",
        "if len(series) != int(round(T / dt)) + 1:",
        "if False:",
    ),
    (
        "the split makes its own series when it is given one",
        "src/solmanifold/propagators.py",
        "if series is None:",
        "if True:",
    ),
    (
        "modulation node values drop <phi(a_j), Q_j>",
        "src/solmanifold/modulation.py",
        "(P - c).T",
        "P.T",
    ),
    (
        "evolve_nonlinear takes phi at 1",
        "src/solmanifold/modulation.py",
        "phi = soliton.phi(r, 1.0 if S is None else S.a)",
        "phi = soliton.phi(r, 1.0)",
    ),
    (
        "initial_data adds phi at 1",
        "src/solmanifold/modulation.py",
        "soliton.phi(grid.r, S.a) + self.psi0_perturbation.values",
        "soliton.phi(grid.r, 1.0) + self.psi0_perturbation.values",
    ),
    (
        "the source takes V at 1",
        "src/solmanifold/modulation.py",
        "Vc = soliton.potential(r, S.a)",
        "Vc = soliton.potential(r, 1.0)",
    ),
    (
        "_rate_from scales a0 relative to 1",
        "src/solmanifold/modulation.py",
        "(np.asarray(a0) / S.a) ** 1.25",
        "np.asarray(a0) ** 1.25",
    ),
    (
        "modulation window absolute",
        "src/solmanifold/modulation.py",
        "tuple(S.a * w for w in soliton.MODULATION_WINDOW)",
        "tuple(soliton.MODULATION_WINDOW)",
    ),
    (
        "defect profile about 1",
        "src/solmanifold/soliton.py",
        "* dphi_da(r, centre)",
        "* dphi_da(r, 1.0)",
    ),
    (
        "_leapfrog skips the g-projection",
        "src/solmanifold/propagators.py",
        "w -= np.dot(w, wg) * wg",
        "w -= 0.0 * wg",
    ),
    (
        "_leapfrog pairs row j with the rate of row j + 1",
        "src/solmanifold/propagators.py",
        "_rate(recent, len(recent) - 3, dt)",
        "_rate(recent, len(recent) - 2, dt)",
    ),
    (
        "window miss not raised",
        "src/solmanifold/modulation.py",
        "if len(miss):",
        "if False:",
    ),
    (
        "bisection keeps the wrong half",
        "src/solmanifold/modulation.py",
        "== np.sign(f_lo)",
        "!= np.sign(f_lo)",
    ),
    (
        "a root on a window end is a miss",
        "src/solmanifold/modulation.py",
        "<= 0.0)",
        "< 0.0)",
    ),
    (
        "Sturm count takes the positive pivots",
        "src/solmanifold/spectral.py",
        "sum(p < 0.0 for p in _pivots(V, 0.0, dr2))",
        "sum(p > 0.0 for p in _pivots(V, 0.0, dr2))",
    ),
    (
        "spectral bisection keeps the wrong half",
        "src/solmanifold/spectral.py",
        "(lo, mid) if any(",
        "(mid, hi) if any(",
    ),
    (
        "solve's pivots drop the shift",
        "src/solmanifold/spectral.py",
        "_ldl_solve(_pivots(V, sigma, dr2)",
        "_ldl_solve(_pivots(V, 0.0, dr2)",
    ),
    (
        "Rayleigh update subtracts 1/<v, y>",
        "src/solmanifold/spectral.py",
        "sigma += step",
        "sigma -= step",
    ),
    (
        "pivots carried in the plain form 1 - 1/d",
        "src/solmanifold/spectral.py",
        "s = t / p",
        "s = 1.0 - 1.0 / p",
    ),
    (
        "contraction hands the sine transport for both kinds",
        "src/solmanifold/experiments.py",
        "transport = picard_transport(S, T, dt)",
        "transport = (picard_transport(S, T, dt)[0],) * 2",
    ),
    (
        "_pc_u_series drops the defect run for a non-zero history",
        "src/solmanifold/modulation.py",
        "if D is not None:\n        recent = []",
        "if False:\n        recent = []",
    ),
    (
        "defect derivative lands one row late",
        "src/solmanifold/modulation.py",
        "out[j - 1] -= (z - recent[0])",
        "out[j] -= (z - recent[0])",
    ),
    (
        "last row's one-sided difference dropped",
        "src/solmanifold/modulation.py",
        "out[M] -= (z - recent[1]) / dt",
        "pass",
    ),
    (
        "L built upper-triangular",
        "src/solmanifold/modulation.py",
        "sliding_window_view(powers, M)[:, ::-1]",
        "sliding_window_view(powers, M)[::-1]",
    ),
    (
        "zero-history iterate drops data1 from its run",
        "src/solmanifold/modulation.py",
        "evolve_linear_perturbed(p, p1, F,",
        "evolve_linear_perturbed(p, p1 if F is not None else grid.zeros(), F,",
    ),
    (
        "blocked sums drop the carried row",
        "src/solmanifold/norms.py",
        "return reduce(buf, axis=0, out=running)",
        "return reduce(buf[1:], axis=0, out=running)",
    ),
    (
        "streamed profiles skip the finiteness check",
        "src/solmanifold/norms.py",
        "if not np.all(np.isfinite(self._peak)):",
        "if False:",
    ),
    (
        "cosine row 0 restored in every later block",
        "src/solmanifold/propagators.py",
        'if m0 == 0 and kind != "sine":',
        'if kind != "sine":',
    ),
    (
        "half_sums starts every interpolated block at row 0",
        "src/solmanifold/propagators.py",
        "t = (dt * np.arange(m0, m0 + len(out)))[:, None]",
        "t = (dt * np.arange(len(out)))[:, None]",
    ),
    (
        "every block reads the windows at shift 0",
        "src/solmanifold/propagators.py",
        "op(ahead[m0:m1], behind[m0:m1], out=out)",
        "op(ahead[: len(out)], behind[: len(out)], out=out)",
    ),
    (
        "cached windows built from the unhalved values",
        "src/solmanifold/propagators.py",
        "windows = sliding_window_view(half, cols)",
        "windows = sliding_window_view(self.values[name], cols)",
    ),
    (
        "anti-diagonal loop starts at row 1",
        "src/solmanifold/modulation.py",
        "for j, row in enumerate(X, start):",
        "for j, row in enumerate(X[1:], start + 1):",
    ),
    (
        "dispersive blocks subtract the first block's coefficients",
        "src/solmanifold/propagators.py",
        "coeff[j - i : j + 1, None]",
        "coeff[: i + 1, None]",
    ),
    (
        "perturbed Strichartz members split as given",
        "src/solmanifold/experiments.py",
        "(pair_w(f, S.g) / S.gg_w) * S.g.values",
        "0.0 * S.g.values",
    ),
    (
        "secular splits vdphi_bump as given",
        "src/solmanifold/experiments.py",
        'f = _continuous_part(family_field(grid, "vdphi_bump"), S)',
        'f = family_field(grid, "vdphi_bump")',
    ),
    (
        "on-manifold run not checked for completion",
        "src/solmanifold/experiments.py",
        "trajectory_modulation(_completed(run, T - _TRIM), S)",
        "trajectory_modulation(run, S)",
    ),
    (
        "zero-history x_minus drops x_minus(0)",
        "src/solmanifold/modulation.py",
        "return np.zeros(M + 1), xm, 0.0",
        "return np.zeros(M + 1), 0.0 * xm, 0.0",
    ),
    (
        "secular's one pass restarts every horizon at row 0",
        "src/solmanifold/experiments.py",
        "done = m",
        "done = 0",
    ),
    (
        "the split returns -coeff",
        "src/solmanifold/propagators.py",
        "(SpaceTimeField(grid, dt * stride, out), coeff)",
        "(SpaceTimeField(grid, dt * stride, out), -coeff)",
    ),
    (
        "the pairing sink pairs every block with the first field",
        "src/solmanifold/propagators.py",
        "np.vecdot(weighted[:, None], block)",
        "np.vecdot(np.broadcast_to(weighted[:1], weighted.shape)[:, None], block)",
    ),
    (
        "the Duhamel kernel adds the defect part",
        "src/solmanifold/modulation.py",
        "src.B[rows] -= (D * w) @ Ecos.T",
        "src.B[rows] += (D * w) @ Ecos.T",
    ),
    (
        "a source block reaches the run one block late",
        "src/solmanifold/modulation.py",
        "            self._start += len(self._block)\n"
        "            self._block = self._make(slice(self._start, min(self._start + _ROWS, self.rows)))",
        "            self._block = self._make(slice(self._start, min(self._start + _ROWS, self.rows)))\n"
        "            self._start += len(self._block)",
    ),
    (
        "a short source repeats its last row",
        "src/solmanifold/propagators.py",
        "        if source.rows < steps:\n"
        '            raise GridUsageError(f"a source of {source.rows} rows for a run that reads {steps}")\n'
        "        source_row = source.row",
        "        source_row = lambda m, row=source.row, last=source.rows - 1: row(min(m, last))",
    ),
    (
        "pass 2 of the fixed-point h reads another run's scales",
        "src/solmanifold/modulation.py",
        "                u -= soliton.phi(r, a[k, rows, None])\n"
        "                fold(rows, u, a[k, rows])",
        "                u -= soliton.phi(r, a[k - 1, rows, None])\n"
        "                fold(rows, u, a[k - 1, rows])",
    ),
    (
        "the proxy's coefficient transform spans all runs' columns at once",
        "src/solmanifold/modulation.py",
        "[T.T @ (P - c).T for P in products]",
        "[T.T @ (np.concatenate(products) - c).T]",
    ),
    (
        "the stacked blow-up test reads only row 0",
        "src/solmanifold/modulation.py",
        "bad = np.flatnonzero(blown(w, overlap(w)))",
        "bad = np.flatnonzero(blown(w[:1], overlap(w[:1])))",
    ),
    (
        "_csv writes 16 significant digits",
        "src/solmanifold/experiments.py",
        'f"{v:.17g}"',
        'f"{v:.16g}"',
    ),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")


def run_mutant(path, old, new):
    """Apply one mutant to a copy of the checkout; returns (verdict, seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        target = os.path.join(copy, path)
        with open(target) as fh:
            text = fh.read()
        if text.count(old) != 1:
            return f"error: {old!r} occurs {text.count(old)} times in {path}", 0.0
        with open(target, "w") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", seconds
    if proc.returncode == 1:
        failed = [ln for ln in proc.stdout.splitlines() if ln.startswith("FAILED")]
        return "killed" + (f" by {failed[0][7:].split(' - ')[0]}" if failed else ""), seconds
    return f"error: pytest exited {proc.returncode}", seconds


def main():
    bad = 0
    for name, *mutant in MUTANTS:
        verdict, seconds = run_mutant(*mutant)
        bad += not verdict.startswith("killed")
        print(f"{name}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} killed, {bad} not killed, of {len(MUTANTS)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
