"""Tests of the benchmark itself: ``python3 -m pytest bench``.

They check the tracer (where it patches, what it times, self <= busy,
repeatable counts) and that an untraced run leaves the package alone.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.import_package()

import hyperchi  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hyperchi import cli, compositions, hypergraph, invariant, orientations  # noqa: E402
from hyperchi.polynomial import Polynomial  # noqa: E402


def traced(fn):
    tr = tracer.Tracer()
    tr.install(layers.targets())
    try:
        fn()
    finally:
        tr.uninstall()
    return tr


def test_wraps_every_name_a_function_is_looked_up_by():
    original = orientations.acyclic_orientations
    with tracer.Tracer() as tr:
        tr.install(layers.targets())
        for owner in (orientations, invariant, hyperchi):
            assert owner.acyclic_orientations._bench_original is original
        for owner in (compositions, hypergraph, invariant, hyperchi):
            assert hasattr(owner.enumerate_set_compositions, "_bench_original")
        for owner in (invariant, cli, hyperchi, sys.modules["hyperchi.submonoids"]):
            assert hasattr(owner.chi_polynomial, "_bench_original")
        assert Polynomial.__radd__ is Polynomial.__add__
        assert hasattr(Polynomial.__radd__, "_bench_original")
        assert tracer.installed_wrappers()
    assert tracer.installed_wrappers() == []
    assert invariant.acyclic_orientations is original
    assert hasattr(invariant.chi_polynomial, "cache_info")


def test_times_generator_iteration_not_creation():
    fake = types.ModuleType("benchfake")

    def slow_items():
        for i in range(3):
            time.sleep(0.02)
            yield i

    def returns_generator():
        return slow_items()

    fake.slow_items = slow_items
    fake.returns_generator = returns_generator
    sys.modules["benchfake"] = fake
    try:
        with tracer.Tracer() as tr:
            tr.install([(fake, "slow_items", ["fake.gen"], None),
                        (fake, "returns_generator", ["fake.ret"], None)], "benchfake")
            gen = fake.slow_items()
            made = fake.returns_generator()
            assert tr.layers["fake.gen"].busy_s < 0.01
            assert tr.layers["fake.ret"].busy_s < 0.01
            assert list(gen) == [0, 1, 2]
            assert list(made) == [0, 1, 2]
    finally:
        del sys.modules["benchfake"]
    for name in ("fake.gen", "fake.ret"):
        lay = tr.layers[name]
        assert (lay.calls, lay.yielded) == (1, 3)
        assert lay.busy_s >= 0.06


def test_self_time_within_busy_time():
    h = hyperchi.Hypergraph("12345", [{"1", "2"}, {"2", "3", "4"}, {"4", "5"}])
    doc = json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]})
    common.Caches().clear()

    def work():
        invariant.chi_polynomial(h)
        common.run_cli(["verify", doc, "--max-n", "2"])
        common.run_cli(["antipode", doc])

    tr = traced(work)
    busy = [lay for lay in tr.layers.values() if lay.calls]
    assert len(busy) > 10
    for lay in busy:
        assert -1e-9 <= lay.self_s <= lay.busy_s + 1e-9, lay.name


def test_accept_ratio_counts_on_p7():
    """P_7 builds 53,304 head compositions and keeps 2,136 of them."""
    p7 = hyperchi.Hypergraph("1234567", [{str(i), str(i + 1)} for i in range(1, 7)])
    common.Caches().clear()
    tr = traced(lambda: invariant.chi_polynomial(p7))
    values, _ = layers.metrics(tr, *([{k: (0, 0) for k in layers.HIT_RATIOS}] * 2), 1.0)
    assert values["invariant.constrained_compositions.yielded"] == 2136
    assert values["compositions.enumerate_set_compositions.yielded"] == 53304
    assert values["invariant.constrained_compositions.accept_ratio"] == 2136 / 53304


def _traced_run() -> dict:
    out = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", "cli-mix",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"]
    return result["metrics"]


def test_counts_repeat_across_traced_runs():
    first, second = _traced_run(), _traced_run()
    counts = {k for k, m in first.items() if m["unit"] == "count" or k.endswith("_ratio")}
    counts.discard("trace.overhead_ratio")
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["cli.main.calls"]["value"] > 0


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    """Every call of the worker's untraced timed loop reaches the package
    unwrapped."""
    import worker

    seen = []
    run_cli = common.run_cli

    def watched(argv):
        seen.append((tracer.installed_wrappers(), hasattr(cli.main, "_bench_original")))
        return run_cli(argv)

    monkeypatch.setattr(common, "run_cli", watched)
    argv = ["--workload", "cli-mix", "--seed", "3", "--seconds", "0.1", "--trace", "0"]
    assert worker.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert len(seen) == result["attempted"]
    assert all(wrappers == [] and not wrapped for wrappers, wrapped in seen)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.PER_LAYER
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_same_inputs(name):
    def inputs(seed):
        return [c.label for c in workloads.build(name, seed, common.Caches()).calls]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
    assert sorted(x.split()[0] for x in inputs(5)) == sorted(x.split()[0] for x in inputs(6))
