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
        'series = _resonance_series(grid, S.a, T, dt, "cosine", members)',
        'series = _resonance_series(grid, S.a, T, dt, "sine", members)',
    ),
    (
        "the split's series length check dropped",
        "src/solmanifold/propagators.py",
        "if series.shape != (len(fields), int(round(T / dt)) + 1):",
        "if False:",
    ),
    (
        "the split makes its own series in place of the one it is given",
        "src/solmanifold/propagators.py",
        "coeff = _secular_coefficients(series, dt, S, stride)",
        "coeff = _secular_coefficients(_resonance_series(grid, S.a, T, dt, kind, fields), dt, S,"
        " stride)",
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
        "modulation_rate_series scales a0 relative to 1",
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
        "w -= np.multiply(np.vecdot(w, wg)[..., None], wg, out=scratch)",
        "w -= 0.0 * wg",
    ),
    (
        "_leapfrog emits the state one step late, as snapshot j the state j - 1",
        "src/solmanifold/propagators.py",
        "values[j % block] = recent[i]",
        "values[j % block] = recent[i - 1]",
    ),
    (
        "_leapfrog drops the last, partial block of snapshots",
        "src/solmanifold/propagators.py",
        "        if (ahead // stride) % block:\n            flush(",
        "        if False:\n            flush(",
    ),
    (
        "_leapfrog hands each block on with its rows offset by one",
        "src/solmanifold/propagators.py",
        "take(slice(j - i, j + 1),",
        "take(slice(j - i + 1, j + 2),",
    ),
    (
        "_leapfrog's rates block is one row out of step with its values block",
        "src/solmanifold/propagators.py",
        "_rate(recent, i, dt, slopes[j % block],",
        "_rate(recent, i, dt, slopes[(j + 1) % block],",
    ),
    (
        "evolve_nonlinear hands its consumer views of the reused block",
        "src/solmanifold/modulation.py",
        "psi, psi_t = psi[0] + phi, psi_t[0].copy()",
        "psi += phi\n        psi, psi_t = psi[0], psi_t[0]",
    ),
    (
        "_rate's five-point difference subtracts its outer states one at a time",
        "src/solmanifold/propagators.py",
        "        out -= np.subtract(w[i + 2], w[i - 2], out=scratch)\n",
        "        out -= w[i + 2]\n        out += w[i - 2]\n",
    ),
    (
        "validate accepts any worker count",
        "src/solmanifold/experiments.py",
        "    if config.workers != 1:",
        "    if False:",
    ),
    (
        "_leapfrog pairs row j with the rate of row j + 1",
        "src/solmanifold/propagators.py",
        "_rate(recent, i, dt,",
        "_rate(recent, min(i + 1, len(recent) - 1), dt,",
    ),
    (
        "window miss not raised",
        "src/solmanifold/modulation.py",
        "if miss[k].any():",
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
        "_pc_u_series drops the defect source for a non-zero history",
        "src/solmanifold/modulation.py",
        "        add_kernel(rows.start, B)\n        return FD",
        "        add_kernel(rows.start, B)\n        FD[:, 1] = 0.0\n        return FD",
    ),
    (
        "the last block is never made",
        "src/solmanifold/modulation.py",
        "    source.complete()  # row M, which no step reads, and the kernel rows of its block\n",
        "",
    ),
    (
        "defect derivative lands one row late",
        "src/solmanifold/modulation.py",
        "out[rows.stop - len(z) + 1 : rows.stop - 1] -=",
        "out[rows.stop - len(z) + 2 : rows.stop] -=",
    ),
    (
        "last row's one-sided difference dropped",
        "src/solmanifold/modulation.py",
        "out[M] -= (z[-1] - z[-2]) / dt",
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
        "evolve_linear_perturbed([p], [p1], None,",
        "evolve_linear_perturbed([p], [grid.zeros()], None,",
    ),
    (
        "the zero-history consumer writes row j into row j - 1",
        "src/solmanifold/modulation.py",
        "        def keep(rows, z):\n            out[rows] = z[:, 0]",
        "        def keep(rows, z):\n"
        "            out[max(rows.start - 1, 0) : rows.stop - 1] = z[rows.start == 0 :, 0]",
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
        "mixed_norm gives every trajectory of a stack the first one's norm",
        "src/solmanifold/norms.py",
        "return [outer_norm(p) for p in profile]",
        "return [outer_norm(profile[0]) for p in profile]",
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
        "coeff[:, rows]",
        "coeff[:, : rows.stop - rows.start]",
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
        "on-manifold pass 1 not checked for completion",
        "src/solmanifold/modulation.py",
        "    if point is not None:\n        raise PropagatorError",
        "    if False:\n        raise PropagatorError",
    ),
    (
        "zero-history x_minus drops x_minus(0)",
        "src/solmanifold/modulation.py",
        "return np.zeros(M + 1), xm, 0.0",
        "return np.zeros(M + 1), 0.0 * xm, 0.0",
    ),
    (
        "secular's full rows take every block's coefficients from row 0",
        "src/solmanifold/experiments.py",
        "coeff[fed : fed + len(part), None]",
        "coeff[: len(part), None]",
    ),
    (
        "secular's full rows take their coefficients one row early",
        "src/solmanifold/experiments.py",
        "coeff[fed : fed + len(part), None]",
        "coeff[max(fed - 1, 0) : max(fed - 1, 0) + len(part), None]",
    ),
    (
        "secular reads each horizon one row late",
        "src/solmanifold/experiments.py",
        "int(round(T / (stride * dt))) + 1",
        "int(round(T / (stride * dt))) + 2",
    ),
    (
        "the secular coefficients change sign",
        "src/solmanifold/propagators.py",
        "return -secular_coefficient(S) * cumulative_trapezoid(series, dx=dt)[..., ::stride]",
        "return secular_coefficient(S) * cumulative_trapezoid(series, dx=dt)[..., ::stride]",
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
        "B -= (FD[:, 1] * w) @ Ecos.T",
        "B += (FD[:, 1] * w) @ Ecos.T",
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
        "pass 2 reads another run's scales",
        "src/solmanifold/modulation.py",
        "scale = a[k, rows, None]",
        "scale = a[k - 1, rows, None]",
    ),
    (
        "the fixed-point h folds another point's scales",
        "src/solmanifold/modulation.py",
        "fold_k(rows, u[:, k], a[k])",
        "fold_k(rows, u[:, k], a[k - 1])",
    ),
    (
        "the fixed-point h folds another point's radiation",
        "src/solmanifold/modulation.py",
        "fold_k(rows, u[:, k], a[k])",
        "fold_k(rows, u[:, k - 1], a[k])",
    ),
    (
        "adot_l1 reads another point's scale rates",
        "src/solmanifold/experiments.py",
        "zip(queries, adot, diagnostics)",
        "zip(queries, np.roll(adot, 1, axis=0), diagnostics)",
    ),
    (
        "lipschitz takes the differences against the wrong row of the stack",
        "src/solmanifold/experiments.py",
        "u[:, 1:, :cols] - u[:, :1, :cols]",
        "u[:, 1:, :cols] - u[:, -1:, :cols]",
    ),
    (
        "pass 1 runs at a stride other than pass 2's",
        "src/solmanifold/modulation.py",
        "list(_proxy_products(grid, frame, w0, w1, T, dt, stride, product))",
        "list(_proxy_products(grid, frame, w0, w1, T, dt, max(stride - 1, 1), product))",
    ),
    (
        "the per-row proxy product pairs a row with its neighbour",
        "src/solmanifold/modulation.py",
        "np.vecdot(rows[..., None, :], Q)",
        "np.vecdot(np.roll(rows, 1, axis=-2)[..., None, :], Q)",
    ),
    (
        "pass 2's udot takes the rates without the scale term",
        "src/solmanifold/modulation.py",
        "udot[:, k] -= adot[k, rows, None] * soliton.dphi_da(r, scale)",
        "udot[:, k] -= 0.0 * soliton.dphi_da(r, scale)",
    ),
    (
        "codim1 fits an empty departure window",
        "src/solmanifold/experiments.py",
        "if np.count_nonzero(window) < 2:",
        "if False:",
    ),
    (
        "a two-point fit reports a standard error of 0",
        "src/solmanifold/experiments.py",
        "    stderr = None\n    if n > 2",
        "    stderr = 0.0\n    if n > 2",
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
        "the stacked projection uses row 0's coefficient for every row",
        "src/solmanifold/propagators.py",
        "np.vecdot(w, wg)[..., None]",
        "np.vecdot(w.reshape(-1, w.shape[-1])[0], wg)",
    ),
    (
        "the folded sums drop the B[:, 0] end correction",
        "src/solmanifold/modulation.py",
        'row0["B"] + column0',
        'row0["B"] + 0.0 * column0',
    ),
    (
        "contraction keeps a ball narrower than R_obs",
        "src/solmanifold/experiments.py",
        "return it.u.samples[:, :cols].copy(), it.adot",
        "return it.u.samples[:, : cols - 1].copy(), it.adot",
    ),
    (
        "the stacked split feeds its profiles the first field's rows",
        "src/solmanifold/propagators.py",
        "# now the dispersive part\n        profiles.add(block)",
        "# now the dispersive part\n        profiles.add(block[:, [0] * len(fields)])",
    ),
    (
        "the pair's data row is stored one snapshot late",
        "src/solmanifold/modulation.py",
        "        out[rows] = z[:, 0]\n        z = np.concatenate",
        "        out[rows.start + 1 : rows.stop + 1] = z[: M - rows.start, 0]\n"
        "        z = np.concatenate",
    ),
    (
        "validate lets a one-value sweep through",
        "src/solmanifold/experiments.py",
        "len(set(config.sweep)) < 2",
        "len(set(config.sweep)) < 1",
    ),
    (
        "_csv writes 16 significant digits",
        "src/solmanifold/experiments.py",
        'f"{v:.17g}"',
        'f"{v:.16g}"',
    ),
    (
        "PCG64's multiplier is off by two",
        "src/solmanifold/experiments.py",
        "(2549297995355413924 << 64) + 4865540595714422341",
        "(2549297995355413924 << 64) + 4865540595714422343",
    ),
    (
        "the XSL-RR output rotates left",
        "src/solmanifold/experiments.py",
        "x = (value >> rot | value << (64 - rot)) & _M64",
        "x = (value << rot | value >> (64 - rot)) & _M64",
    ),
    (
        "a uniform draw keeps 52 bits of the output",
        "src/solmanifold/experiments.py",
        "((x >> 11) * 2.0**-53)",
        "((x >> 12) * 2.0**-52)",
    ),
    (
        "SeedSequence's hashmix multiplier is off by two",
        "src/solmanifold/experiments.py",
        "_MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875,",
        "_MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8877,",
    ),
    (
        "SeedSequence's mix drops its right multiplier",
        "src/solmanifold/experiments.py",
        "x = (_MIX_L * x - _MIX_R * y) & _M32",
        "x = (_MIX_L * x - y) & _M32",
    ),
    (
        "the seed's sixth and later words are not mixed in",
        "src/solmanifold/experiments.py",
        "for word in words[4:]:",
        "for word in words[4:5]:",
    ),
    (
        "the Clenshaw recurrence multiplies by x, not 2x",
        "src/solmanifold/modulation.py",
        "c0, c1 = c[-i] - c1, c0 + c1 * x2",
        "c0, c1 = c[-i] - c1, c0 + c1 * x",
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
