"""The benchmark in bench/ looks up package names by string and attribute,
and calls the package from its workloads; these tests keep both working,
since bench/ is not in the tier-1 run."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import common
        import layers
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return common, layers, workloads


def test_traced_targets_resolve(bench):
    _, layers, _ = bench
    for owner, attribute, _, _ in layers.targets():
        assert hasattr(owner, attribute), (owner, attribute)


def test_cleared_and_reported_caches_resolve(bench):
    common, layers, _ = bench
    for module, name in set(common.CACHES) | set(layers.HIT_RATIOS.values()):
        cached = common.cache(module, name)
        assert callable(getattr(cached, "cache_clear", None)), (module, name)
        assert callable(getattr(cached, "cache_info", None)), (module, name)


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_call_of_each_workload_passes_its_check(bench, name):
    common, _, workloads = bench
    call = workloads.build(name, 0, common.Caches()).calls[0]
    if call.prepare is not None:
        call.prepare()
    assert call.check(call.run()) is None, call.label
