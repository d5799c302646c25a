"""The JSON input format, the only module that knows it.

Each kind is recognized by its payload key:

  hypergraph    {"vertices": [...], "edges": [[...], ...]}
  simple graph  {"vertices": [...], "edges": [[u, v], ...]}   (all pairs)
  complex       {"vertices": [...], "faces": [[...], ...]}
  building set  {"vertices": [...], "sets": [[...], ...]}
  partition     {"vertices": [...], "parts": [[...], ...]}
  path family   {"vertices": [...], "paths": [[...], ...]}    (ordered)

"edges" parses as a hypergraph; a graph is the special case where every
edge has two vertices (the chromatic front end checks this).

Only the shape is checked here: ``labels`` refuses an array that is not
made of distinct strings of valid Unicode, for "vertices" and for every
inner array.  Empty members, unknown vertices and each kind's axioms are
left to the constructors, which check them for library callers too.
Every failure raises ``SchemaError`` naming the offending element or
axiom.
"""

from __future__ import annotations

import json

from .hypergraph import Hypergraph, _edge_key
from .submonoids import (
    BuildingSet,
    PathFamily,
    SetPartition,
    SimpleGraph,
    SimplicialComplex,
)


class SchemaError(ValueError):
    pass


# payload key -> constructor; each kind stores its members under that name
_KINDS = {
    "edges": Hypergraph,
    "faces": SimplicialComplex,
    "sets": BuildingSet,
    "parts": SetPartition,
    "paths": PathFamily,
}


def labels(value, where: str) -> list:
    """value, checked to be an array of distinct strings of valid Unicode
    (a JSON \\ud800 escape gives a lone surrogate, which UTF-8 cannot
    encode)."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: must be an array of strings")
    if len(set(value)) != len(value):
        raise SchemaError(f"{where}: duplicate vertex labels")
    for v in value:
        if not v.isascii() and any("\ud800" <= ch <= "\udfff" for ch in v):
            raise SchemaError(f"{where}: label {v!r} is not valid Unicode")
    return value


def load_json(text: str):
    """Decode JSON text.  Malformed text, and text nested too deeply for the
    decoder's recursion, raise SchemaError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def parse_object(data):
    """Parse a dict (or JSON text) into the matching domain object."""
    if isinstance(data, str):
        data = load_json(data)
    if not isinstance(data, dict):
        raise SchemaError("input must be a JSON object")
    keys = [key for key in _KINDS if key in data]
    if not keys:
        raise SchemaError("object has none of the payload keys " + str(sorted(_KINDS)))
    if len(keys) > 1:
        raise SchemaError(f"ambiguous object: found {sorted(keys)}")
    key = keys[0]
    vertices = labels(data.get("vertices"), "vertices")
    members = data[key]
    if not isinstance(members, list):
        raise SchemaError(f"{key}: must be an array of arrays")
    members = [labels(inner, f"{key}[{i}]") for i, inner in enumerate(members)]
    try:
        return _KINDS[key](vertices, members)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def as_graph(obj) -> SimpleGraph:
    """Reinterpret a parsed hypergraph whose edges are all pairs."""
    if isinstance(obj, SimpleGraph):
        return obj
    if not isinstance(obj, Hypergraph):
        raise SchemaError("expected a graph object")
    for e in obj.edges:
        if len(e) != 2:
            raise SchemaError(f"edge {sorted(e)} does not have two vertices")
    return SimpleGraph(obj.vertices, obj.edges)


def serialize(obj) -> dict:
    """Canonical JSON dict for any domain object (round-trips parse_object):
    sorted vertices, and members sorted by ``_edge_key``, the (size, labels)
    key of ``Hypergraph._canon``, except paths, which keep their stored
    order."""
    if isinstance(obj, SimpleGraph):
        obj = obj.to_hypergraph()
    for key, kind in _KINDS.items():
        if isinstance(obj, kind):
            members = getattr(obj, key)
            if kind is PathFamily:
                members = [list(p) for p in members]
            else:
                members = _sorted_inner(members)
            return {"vertices": sorted(obj.vertices), key: members}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _sorted_inner(family) -> list:
    return [sorted(s) for s in sorted(family, key=_edge_key)]


def dumps_canonical(obj) -> str:
    return json.dumps(serialize(obj), sort_keys=True)
