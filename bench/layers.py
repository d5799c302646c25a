"""Which functions the traced run wraps, and the per-layer metrics.

Layer names are module.function of the package.  ``polynomial.arith``
groups the arithmetic operators of Polynomial, and
``hypergraph.restrict_contract`` the two split operations together.
"""

from __future__ import annotations

import hyperchi.cli as cli
import hyperchi.combinatorics as combinatorics
import hyperchi.compositions as compositions
import hyperchi.hypergraph as hypergraph
import hyperchi.invariant as invariant
import hyperchi.jsonio as jsonio
import hyperchi.orientations as orientations
import hyperchi.submonoids as submonoids
from hyperchi.hypergraph import Hypergraph
from hyperchi.polynomial import Polynomial

import common

ARITH = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__",
         "shift", "__call__")


def targets() -> list:
    """(owner, attribute, layer names, measure) for Tracer.install."""
    out = [
        (invariant, "chi_polynomial", ["invariant.chi_polynomial"], None),
        (invariant, "chi_eval_definition", ["invariant.chi_eval_definition"], None),
        (invariant, "constrained_compositions",
         ["invariant.constrained_compositions"], None),
        (compositions, "enumerate_set_compositions",
         ["compositions.enumerate_set_compositions"], None),
        (compositions, "enumerate_decompositions",
         ["compositions.enumerate_decompositions"], None),
        (combinatorics, "f_polynomial", ["combinatorics.f_polynomial"], None),
        (hypergraph, "antipode", ["hypergraph.antipode"], len),
        (orientations, "colorings", ["orientations.colorings"], None),
        (orientations, "is_acyclic", ["orientations.is_acyclic"], None),
        (orientations, "count_compatible_pairs",
         ["orientations.count_compatible_pairs"], None),
        (orientations, "acyclic_orientations", ["orientations.acyclic_orientations"], None),
        (cli, "main", ["cli.main"], None),
        (cli, "build_parser", ["cli.build_parser"], None),
        (jsonio, "parse_object", ["jsonio.parse_object"], None),
        (jsonio, "as_graph", ["jsonio.as_graph"], None),
        (jsonio, "serialize", ["jsonio.serialize"], None),
        (submonoids, "tubes", ["submonoids.tubes"], None),
        (submonoids, "skeletons", ["submonoids.skeletons"], None),
        (Hypergraph, "restrict", ["hypergraph.restrict", "hypergraph.restrict_contract"], None),
        (Hypergraph, "contract", ["hypergraph.contract", "hypergraph.restrict_contract"], None),
    ]
    out += [(Polynomial, name, ["polynomial.arith"], None) for name in ARITH]
    return out


# Caches whose hit ratio is reported, by the layer reporting it.
HIT_RATIOS = {
    "invariant.chi_polynomial": ("hyperchi.invariant", "chi_polynomial"),
    "invariant.chi_eval_definition": ("hyperchi.invariant", "chi_eval_definition"),
    "combinatorics.f_polynomial": ("hyperchi.combinatorics", "_f_polynomial_cached"),
    "combinatorics.power_sum_polynomial": ("hyperchi.combinatorics", "power_sum_polynomial"),
}

# (metric name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("invariant.constrained_compositions.yielded", "count", "lower"),
    ("invariant.constrained_compositions.accept_ratio", "ratio", "higher"),
    ("invariant.constrained_compositions.self_s", "s", "lower"),
    ("compositions.enumerate_set_compositions.yielded", "count", "lower"),
    ("compositions.enumerate_set_compositions.busy_s", "s", "lower"),
    ("invariant.chi_polynomial.busy_s", "s", "lower"),
    ("invariant.chi_polynomial.hit_ratio", "ratio", "higher"),
    ("combinatorics.f_polynomial.calls", "count", "lower"),
    ("combinatorics.f_polynomial.busy_s", "s", "lower"),
    ("combinatorics.f_polynomial.hit_ratio", "ratio", "higher"),
    ("combinatorics.power_sum_polynomial.hit_ratio", "ratio", "higher"),
    ("polynomial.arith.calls", "count", "lower"),
    ("polynomial.arith.busy_s", "s", "lower"),
    ("hypergraph.restrict.calls", "count", "lower"),
    ("hypergraph.contract.calls", "count", "lower"),
    ("hypergraph.restrict_contract.busy_s", "s", "lower"),
    ("hypergraph.antipode.busy_s", "s", "lower"),
    ("hypergraph.antipode.cancel_ratio", "ratio", "lower"),
    ("compositions.enumerate_decompositions.yielded", "count", "lower"),
    ("compositions.enumerate_decompositions.busy_s", "s", "lower"),
    ("invariant.chi_eval_definition.busy_s", "s", "lower"),
    ("invariant.chi_eval_definition.hit_ratio", "ratio", "higher"),
    ("orientations.colorings.yielded", "count", "lower"),
    ("orientations.is_acyclic.calls", "count", "lower"),
    ("orientations.count_compatible_pairs.busy_s", "s", "lower"),
    ("orientations.acyclic_orientations.yielded", "count", "lower"),
    ("orientations.acyclic_orientations.busy_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_parser.calls", "count", "lower"),
    ("cli.build_parser.busy_s", "s", "lower"),
    ("jsonio.parse_object.calls", "count", "lower"),
    ("jsonio.parse_object.busy_s", "s", "lower"),
    ("jsonio.serialize.busy_s", "s", "lower"),
    ("jsonio.schema_errors", "count", "lower"),
    ("submonoids.tubes.busy_s", "s", "lower"),
    ("submonoids.skeletons.busy_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


def cache_snapshot(caches: common.Caches) -> dict:
    return {name: caches.totals(*where) for name, where in HIT_RATIOS.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer, before: dict, after: dict, overhead_ratio: float) -> tuple:
    """Per-layer values by metric name, and the bases of the ratios."""
    values = {}
    bases = {}
    for name, lay in tracer.layers.items():
        values[f"{name}.calls"] = lay.calls
        values[f"{name}.yielded"] = lay.yielded
        values[f"{name}.busy_s"] = lay.busy_s
        values[f"{name}.self_s"] = lay.self_s
    for name in HIT_RATIOS:
        hits = after[name][0] - before[name][0]
        misses = after[name][1] - before[name][1]
        values[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
        bases[f"{name}.hit_ratio"] = f"{hits} hits of {hits + misses} lookups"

    layers = tracer.layers
    enumerated = tracer.child_yields.get(
        ("compositions.enumerate_set_compositions", "invariant.constrained_compositions"), 0)
    kept = layers["invariant.constrained_compositions"].yielded
    values["invariant.constrained_compositions.accept_ratio"] = _ratio(kept, enumerated)
    bases["invariant.constrained_compositions.accept_ratio"] = (
        f"{kept} kept of {enumerated} compositions")

    terms = layers["hypergraph.antipode"].out_items
    comps = tracer.child_yields.get(
        ("compositions.enumerate_set_compositions", "hypergraph.antipode"), 0)
    values["hypergraph.antipode.cancel_ratio"] = _ratio(terms, comps)
    bases["hypergraph.antipode.cancel_ratio"] = f"{terms} distinct terms of {comps} compositions"

    values["jsonio.schema_errors"] = (
        layers["jsonio.parse_object"].raised + layers["jsonio.as_graph"].raised)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values[name] for name, _, _ in PER_LAYER}, bases
