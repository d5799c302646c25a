"""Per-layer tracing by wrapping the package's public functions.

A ``Tracer`` replaces a function with a wrapper under every name it is
looked up by: the defining module, each module that imported it with
``from ... import``, and the package namespace.  Methods are wrapped on
their class.  ``uninstall`` puts every original back.

Each wrapper opens a span when it is entered and closes it when it
returns.  A generator's span opens again on every ``next`` and closes at
the yield, so the time counted is the time spent iterating, not the time
spent creating the generator.  Per layer the tracer keeps:

  calls    wrapper entries (generator creations for generators)
  yielded  items produced by the generators it returned
  busy_s   wall time with at least one span of the layer open
  self_s   span time not covered by child spans of other wrapped calls
  raised   exceptions that left a span

and, for each (child, parent) pair, the items the child yielded while
the parent's span was innermost.  Spans stay in memory as counters.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter


class Layer:
    __slots__ = ("name", "calls", "yielded", "busy_s", "self_s", "raised",
                 "out_items", "depth", "opened")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.yielded = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.out_items = 0
        self.depth = 0
        self.opened = 0.0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.child_yields: dict[tuple, int] = {}
        self._stack: list = []  # [layers, start, child_time]
        self._patches: list = []  # (owner, attribute, original)

    # -- span bookkeeping -------------------------------------------------

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(name)
        return self.layers[name]

    def _enter(self, layers) -> None:
        now = perf_counter()
        for lay in layers:
            if lay.depth == 0:
                lay.opened = now
            lay.depth += 1
        self._stack.append([layers, now, 0.0])

    def _exit(self, layers) -> None:
        now = perf_counter()
        _, start, child = self._stack.pop()
        duration = now - start
        if self._stack:
            self._stack[-1][2] += duration
        for lay in layers:
            lay.self_s += duration - child
            lay.depth -= 1
            if lay.depth == 0:
                lay.busy_s += now - lay.opened

    def _iterate(self, layers, gen):
        first = layers[0].name
        while True:
            self._enter(layers)
            try:
                item = next(gen)
            except StopIteration:
                self._exit(layers)
                return
            except BaseException:
                self._exit(layers)
                for lay in layers:
                    lay.raised += 1
                raise
            self._exit(layers)
            for lay in layers:
                lay.yielded += 1
            if self._stack:
                key = (first, self._stack[-1][0][0].name)
                self.child_yields[key] = self.child_yields.get(key, 0) + 1
            yield item

    def wrap(self, fn, names, measure=None):
        """A wrapper of ``fn`` reporting to the layers ``names``.

        ``measure`` maps a return value to a number summed into the first
        layer's ``out_items``.
        """
        layers = tuple(self.layer(n) for n in names)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for lay in layers:
                lay.calls += 1
            tracer._enter(layers)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(layers)
                for lay in layers:
                    lay.raised += 1
                raise
            tracer._exit(layers)
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(layers, result)
            if measure is not None:
                layers[0].out_items += measure(result)
            return result

        wrapper._bench_original = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self, targets, package: str = "hyperchi") -> None:
        """Wrap each target under every name that refers to it.

        ``targets`` holds (owner, attribute, layer names, measure) with
        ``owner`` a module or class object.
        """
        owners = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == package or name.startswith(package + "."))]
        for owner, attribute, names, measure in targets:
            original = owner.__dict__[attribute]
            wrapper = self.wrap(original, names, measure)
            if isinstance(owner, type):
                places = [owner]
            else:
                places = owners
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._patches.append((place, key, original))
                        setattr(place, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            place, key, original = self._patches.pop()
            setattr(place, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def installed_wrappers(package: str = "hyperchi") -> list:
    """Names under which a tracer wrapper is reachable right now."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in vars(module).items():
            if hasattr(value, "_bench_original"):
                found.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if hasattr(member, "_bench_original"):
                        found.append(f"{name}.{key}.{attr}")
    return found
