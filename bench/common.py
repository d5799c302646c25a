"""Paths, cache control and in-process CLI calls shared by the benchmark."""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

# Every lru_cache of the package, as tests/test_acceptance.py::_clear_caches
# lists them: (module, attribute).
CACHES = (
    ("hyperchi.invariant", "chi_polynomial"),
    ("hyperchi.invariant", "chi_eval_definition"),
    ("hyperchi.combinatorics", "_f_polynomial_cached"),
    ("hyperchi.combinatorics", "power_sum_polynomial"),
)

REF_LOOPS = 3000  # iterations of the reference slice
# What reference_slice takes at reference speed, about its median on the
# 2-vCPU shared host the benchmark was tuned on.  Timings are reported at
# that speed: the host's speed drifts by a fifth within seconds and
# between minutes, in step for the package and for a reference slice
# timed next to it.
REF_NOMINAL_S = 0.001


def reference_slice() -> float:
    """Seconds one fixed slice of plain interpreter work takes: dict
    stores, int arithmetic and str building, as in the package's own
    pure-Python code."""
    t0 = time.perf_counter()
    slots, acc = {}, 0
    for i in range(REF_LOOPS):
        slots[i % 97] = acc
        acc += len(str(i)) * i % 11
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by REF_NOMINAL_S over the mean of the reference
    slices timed just before and just after it."""
    return seconds * 2 * REF_NOMINAL_S / (before + after)


class LayoutError(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def import_package():
    """Import hyperchi and hyperchi.cli from this checkout's src/ only."""
    if not (SRC / "hyperchi" / "__init__.py").is_file():
        raise LayoutError(f"no package at {SRC / 'hyperchi'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hyperchi
    import hyperchi.cli

    where = Path(hyperchi.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise LayoutError(f"hyperchi imported from {where}, not from {SRC}")
    return hyperchi


def cache(module: str, name: str):
    """The lru_cache object itself, even while a tracer wraps the name."""
    obj = getattr(importlib.import_module(module), name)
    return getattr(obj, "_bench_original", obj)


class Caches:
    """The package's lru_caches, with hits and misses summed across clears
    (``cache_clear`` resets the counts ``cache_info`` reports)."""

    def __init__(self):
        self._retired = {key: (0, 0) for key in CACHES}

    def clear(self) -> None:
        for key in CACHES:
            obj = cache(*key)
            info = obj.cache_info()
            hits, misses = self._retired[key]
            self._retired[key] = (hits + info.hits, misses + info.misses)
            obj.cache_clear()

    def totals(self, module: str, name: str) -> tuple:
        """(hits, misses) since this object was made."""
        info = cache(module, name).cache_info()
        hits, misses = self._retired[(module, name)]
        return hits + info.hits, misses + info.misses


def run_cli(argv) -> tuple:
    """Call hyperchi.cli.main in-process; return (exit code, stdout, stderr).

    ``main`` is looked up at call time so that a tracer's wrapper is used.
    """
    cli = sys.modules["hyperchi.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()
