"""One workload run in a fresh interpreter; started by run.py.

``worker.py --workload W --seed N --seconds S --trace 0|1`` prints one
JSON line with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import common

LOOP_DEADLINE_S = 120.0  # start no pass after this many seconds
MIN_PASSES = 7  # timed passes at least, whatever --seconds says


def main(argv) -> int:
    try:
        common.import_package()
    except (common.LayoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import tracer
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    caches = common.Caches()
    work = workloads.build(args.workload, args.seed, caches)
    started = time.perf_counter()
    failures: list = []
    attempted = 0

    def run_pass() -> tuple:
        """Time every call of one pass, with a reference slice before the
        first call and after each, then check the outputs.  Returns the
        latencies and the reference times."""
        nonlocal attempted
        caches.clear()
        calls = work.calls
        latencies, outputs = [], []
        refs = [common.reference_slice()]
        for call in calls:
            if call.prepare is not None:
                call.prepare()
            t0 = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a raising call counts as failed
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
            refs.append(common.reference_slice())
        for call, out in zip(calls, outputs):
            attempted += 1
            problem = (f"raised {out!r}" if isinstance(out, Exception)
                       else call.check(out))
            if problem:
                failures.append(f"{call.label}: {problem}")
        return latencies, refs

    if tracer.installed_wrappers():
        print(f"error: wrappers installed: {tracer.installed_wrappers()}", file=sys.stderr)
        return 2

    if args.trace:
        import layers

        run_pass()  # warm-up, as in the timed run
        plain = sum(run_pass()[0])
        before = layers.cache_snapshot(caches)
        with tracer.Tracer() as tr:
            tr.install(layers.targets())
            traced = sum(run_pass()[0])
        after = layers.cache_snapshot(caches)
        leftover = tracer.installed_wrappers()
        if leftover:
            print(f"error: wrappers left installed: {leftover}", file=sys.stderr)
            return 2
        values, bases = layers.metrics(tr, before, after, plain / traced)
        result = {"mode": "trace", "values": values, "bases": bases,
                  "units": {name: unit for name, unit, _ in layers.PER_LAYER},
                  "calls_per_pass": len(work.calls),
                  "pass_s": {"untraced": plain, "traced": traced}}
    else:
        run_pass()  # warm-up: fills the allocator and the Bernoulli table
        passes, refs = [], []
        while time.perf_counter() - started < LOOP_DEADLINE_S:
            latencies, around = run_pass()
            passes.append(latencies)
            refs.append(around)
            if sum(map(sum, passes)) >= args.seconds and len(passes) >= MIN_PASSES:
                break
        if tracer.installed_wrappers():
            print("error: the untraced run installed wrappers", file=sys.stderr)
            return 2
        result = {"mode": "time", "passes": passes, "refs": refs}
    result.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
