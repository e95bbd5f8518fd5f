"""Self-test of the benchmark harness on shrunken workloads.

Run from the root of the checkout:  python3 -m pytest -q perfbench

Each workload's code path runs on a small grid and a short horizon.  The
tests check that every metric BENCHMARK.json names is emitted with its unit,
that self times are non-negative and sum to no more than the traced wall
time, that the wrappers are restored after tracing, and that the seed
changes the generated data.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "dispersive": {"R": 20.0, "n": 201, "R_obs": 8.0, "T": 6.0},
    "manifold": {"R": 30.0, "n": 301, "R_obs": 10.0, "T": 14.0, "sweep": [2e-4, 8e-4]},
    "picard": {"R": 20.0, "n": 201, "R_obs": 8.0, "T": 6.0, "sweep": [1e-3, 2e-3]},
    "long_evolution": {"R": 20.0, "n": 201},
}


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units(kind):
    return {m["name"]: m["unit"] for m in _bench()[kind]}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced(request):
    name = request.param
    return name, run.run_workload(name, seconds=0.0, trace=True, overrides=SMALL[name])


def test_benchmark_json_lists_every_workload_and_layer_metric():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.WORKLOADS)
    assert _units("per_layer") == tracing.LAYER_METRICS
    assert _units("end_to_end") == run.END_TO_END


def test_end_to_end_metrics_emitted_with_units():
    result = run.run_workload("manifold", seconds=0.0, overrides=SMALL["manifold"])
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(result["setup_samples_s"]) == run.SETUP_PROBES + result["attempted"]


def test_layer_metrics_emitted_with_units(traced):
    name, result = traced
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_self_times_nonnegative_and_within_wall(traced):
    name, result = traced
    run_traced = next(r for r in result["runs"] if r["traced"] and "layers" in r)
    self_times = [v for k, v in run_traced["layers"].items() if k.endswith(".self_s")]
    assert min(self_times) >= 0.0
    assert run_traced["self_s_total"] <= run_traced["traced_s"]
    assert sum(self_times) <= run_traced["traced_s"]


def test_layer_routing(traced):
    """Which layers each workload drives, as the workload table predicts."""
    name, result = traced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert (m["propagators.free.calls"] > 0) == (name in ("dispersive", "picard"))
    assert (m["modulation.evolve_nonlinear.calls"] > 0) == (name in ("manifold", "long_evolution"))
    assert (m["modulation.picard_map.calls"] > 0) == (name == "picard")
    assert (m["modulation.shoot_h.calls"] > 0) == (name == "manifold")
    assert (m["modulation.evolve_nonlinear.peak_alloc_mb"] > 0) == (
        name in ("manifold", "long_evolution")
    )
    assert m["experiments.run.self_s"] > 0


def test_wrappers_restored_after_tracing():
    import solmanifold
    from solmanifold import experiments, grid, modulation

    before = {
        mod.__name__: dict(vars(mod))
        for name, mod in list(sys.modules.items())
        if name == "solmanifold" or name.startswith("solmanifold.")
    }
    r_property = vars(grid.RadialGrid)["r"]
    tracer = tracing.Tracer("selftest")
    tracer.install()
    try:
        assert experiments.shoot_h is not before["solmanifold.experiments"]["shoot_h"]
        assert modulation.shoot_h is experiments.shoot_h
        assert solmanifold.shoot_h is experiments.shoot_h
        assert vars(grid.RadialGrid)["r"] is not r_property
        g = grid.RadialGrid(R=10.0, n=101)
        grid.inner_product(g.zeros(), g.zeros())
    finally:
        tracer.restore()
    assert tracer.calls["grid.inner_product"] == 1
    assert tracer.counts["grid.r.calls"] > 0
    assert vars(grid.RadialGrid)["r"] is r_property
    for mod_name, attrs in before.items():
        now = vars(sys.modules[mod_name])
        for attr, value in attrs.items():
            assert now[attr] is value, f"{mod_name}.{attr} not restored"


def test_spans_nest_and_name_their_run(tmp_path):
    from solmanifold import grid, norms

    tracer = tracing.Tracer("nest")
    tracer.install()
    try:
        g = grid.RadialGrid(R=10.0, n=101)
        f = g.field(g.r)
        norms.energy(f, f)
    finally:
        tracer.restore()
    names = [s[0] for s in tracer.spans]
    assert names == ["norms.energy", "grid.inner_product", "grid.inner_product"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert all(s[4] == "nest" for s in tracer.spans)
    path = tmp_path / "spans.csv"
    tracer.write_spans(path)
    assert len(path.read_text().splitlines()) == 4


@pytest.mark.parametrize("name", ["dispersive", "manifold", "picard"])
def test_seed_changes_generated_data(name):
    digests = []
    for seed in (1, 2):
        res = run.run_workload(name, seed=seed, seconds=0.0, overrides=SMALL[name])
        digests.append(res["runs"][0]["csv_sha256"])
    assert digests[0] != digests[1]


def test_missing_package_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    with pytest.raises(run.HarnessError):
        run.run_workload("manifold", seconds=0.0)
