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
        "_resonance_transport ignores a",
        "src/solmanifold/propagators.py",
        "q = grid.field(soliton.resonance_weight(grid.r, a))",
        "q = grid.field(soliton.resonance_weight(grid.r, 1.0))",
    ),
    (
        "column bound one node short of the ball",
        "src/solmanifold/propagators.py",
        "grid.obs_slice(radius).stop",
        "grid.obs_slice(radius).stop - 1",
    ),
    (
        "cosine split reuses the sine q transport",
        "src/solmanifold/experiments.py",
        "transport=E_cosine",
        "transport=E_sine",
    ),
    (
        "modulation node values drop <phi(a_j), Q_j>",
        "src/solmanifold/modulation.py",
        "(samples @ Q.T - c)",
        "(samples @ Q.T)",
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
        "_assemble takes V at 1",
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
