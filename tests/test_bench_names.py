"""The benchmark in bench/ looks up package names by string and attribute;
these tests keep them resolvable, since bench/ is not in the tier-1 run."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import common
        import layers
    finally:
        sys.path.remove(str(BENCH))
    return common, layers


def test_traced_targets_resolve(bench):
    _, layers = bench
    for owner, attribute, _, _ in layers.targets():
        assert hasattr(owner, attribute), (owner, attribute)


def test_cleared_and_reported_caches_resolve(bench):
    common, layers = bench
    for module, name in set(common.CACHES) | set(layers.HIT_RATIOS.values()):
        cached = common.cache(module, name)
        assert callable(getattr(cached, "cache_clear", None)), (module, name)
        assert callable(getattr(cached, "cache_info", None)), (module, name)
