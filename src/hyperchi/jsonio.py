"""JSON schemas for all object kinds, with auto-detection.

Each kind is recognized by its payload key:

  hypergraph    {"vertices": [...], "edges": [[...], ...]}
  simple graph  {"vertices": [...], "edges": [[u, v], ...]}   (all pairs)
  complex       {"vertices": [...], "faces": [[...], ...]}
  building set  {"vertices": [...], "sets": [[...], ...]}
  partition     {"vertices": [...], "parts": [[...], ...]}
  path family   {"vertices": [...], "paths": [[...], ...]}    (ordered)

"edges" parses as a hypergraph; a graph is the special case where every
edge has two vertices (the chromatic front end checks this).  Validation
failures raise ``SchemaError`` naming the offending element or axiom.
"""

from __future__ import annotations

import json

from .hypergraph import Hypergraph, from_json_dict, _json_vertices, to_json_dict
from .submonoids import (
    BuildingSet,
    PathFamily,
    SetPartition,
    SimpleGraph,
    SimplicialComplex,
)


class SchemaError(ValueError):
    pass


_KIND_KEYS = {
    "edges": "hypergraph",
    "faces": "complex",
    "sets": "building_set",
    "parts": "partition",
    "paths": "path_family",
}


def _string_lists(data: dict, key: str, allow_empty_inner: bool = False) -> list:
    value = data.get(key)
    if not isinstance(value, list):
        raise SchemaError(f"'{key}' must be an array of arrays")
    out = []
    for i, inner in enumerate(value):
        if not isinstance(inner, list) or not all(isinstance(v, str) for v in inner):
            raise SchemaError(f"{key}[{i}]: must be an array of strings")
        if not inner and not allow_empty_inner:
            raise SchemaError(f"{key}[{i}]: must not be empty")
        if len(set(inner)) != len(inner):
            raise SchemaError(f"{key}[{i}]: duplicate vertex labels")
        out.append(inner)
    return out


def detect_kind(data: dict) -> str:
    if not isinstance(data, dict):
        raise SchemaError("input must be a JSON object")
    kinds = [kind for key, kind in _KIND_KEYS.items() if key in data]
    if not kinds:
        raise SchemaError(
            "object has none of the payload keys " + str(sorted(_KIND_KEYS))
        )
    if len(kinds) > 1:
        raise SchemaError(f"ambiguous object: found {sorted(kinds)}")
    return kinds[0]


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
    kind = detect_kind(data)
    try:
        if kind == "hypergraph":
            return from_json_dict(data)
        vertices = _json_vertices(data)
        if kind == "complex":
            return SimplicialComplex(vertices, _string_lists(data, "faces", True))
        if kind == "building_set":
            return BuildingSet(vertices, _string_lists(data, "sets"))
        if kind == "partition":
            return SetPartition(vertices, _string_lists(data, "parts"))
        return PathFamily(vertices, _string_lists(data, "paths"))
    except SchemaError:
        raise
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
    """Canonical JSON dict for any domain object (round-trips parse_object)."""
    if isinstance(obj, Hypergraph):
        return to_json_dict(obj)
    if isinstance(obj, SimpleGraph):
        return to_json_dict(obj.to_hypergraph())
    key_edges = _sorted_inner
    if isinstance(obj, SimplicialComplex):
        return {"vertices": sorted(obj.vertices), "faces": key_edges(obj.faces)}
    if isinstance(obj, BuildingSet):
        return {"vertices": sorted(obj.vertices), "sets": key_edges(obj.sets)}
    if isinstance(obj, SetPartition):
        return {"vertices": sorted(obj.vertices), "parts": key_edges(obj.parts)}
    if isinstance(obj, PathFamily):
        return {"vertices": sorted(obj.vertices), "paths": [list(p) for p in obj.paths]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _sorted_inner(family) -> list:
    return [sorted(s) for s in sorted(family, key=lambda s: (len(s), tuple(sorted(s))))]


def dumps_canonical(obj) -> str:
    return json.dumps(serialize(obj), sort_keys=True)
