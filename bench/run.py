"""hyperchi benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

One client in a closed loop, in one process, without threads: each call
starts when the previous one has returned.  The workload runs in a fresh
interpreter (worker.py) that imports the package from this checkout's
src/.  Inputs come from the recorded universe, picked by ``--seed``;
every output is compared with the recorded reference outside the timed
region.  Times are reported at reference speed: each is scaled by a
fixed slice of interpreter work timed next to it (common.reference_slice),
because the shared host's own speed drifts by a fifth.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced and the same pass with every layer wrapped, and prints the
per-layer metrics with the tracing overhead.  The last line of stdout is
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same figures for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import common

WORKER = common.BENCH_DIR / "worker.py"
PROBE = common.BENCH_DIR / "probe.py"
WORKLOADS = ("chi-ladder", "pairs", "cli-mix")

RUN_LIMIT_S = 170.0  # run.py kills its worker and gives up after this long
# Probe interpreters timed for setup_s, half before the worker and half
# after it, so that set-up is sampled across the run.  Between passes
# they would disturb the latencies of the calls that follow them.
SETUP_PROBES = 21
TAIL_BEYOND = 10  # samples beyond the tail percentile

END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """The caller's environment without PYTHON* settings, hash seed fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(deadline: float) -> float:
    """Seconds, at reference speed, from spawning a probe interpreter
    until it has imported hyperchi and hyperchi.cli."""
    before = common.reference_slice()
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-s", str(PROBE), str(common.SRC)],
                            cwd=common.ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - started, 0.0))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - started
    ok = line.strip() == "ready"
    if not ok:
        proc.kill()
    proc.communicate()
    if not ok:
        raise BenchError("a set-up probe did not import hyperchi (see its error above)")
    return common.at_reference_speed(elapsed, before, common.reference_slice())


def run_worker(args, deadline: float) -> dict:
    proc = subprocess.Popen([sys.executable, "-s", str(WORKER), *args], cwd=common.ROOT,
                            env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"the run took longer than {RUN_LIMIT_S:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setups: list) -> tuple:
    """Latencies at reference speed; each call's is its median over the
    passes."""
    passes = [[common.at_reference_speed(lat, before, after)
               for lat, before, after in zip(lats, refs, refs[1:])]
              for lats, refs in zip(result["passes"], result["refs"])]
    per_call = [statistics.median(times) for times in zip(*passes)]
    ranked = sorted(per_call)
    n = len(ranked)
    values = {
        "throughput_per_s": n / sum(per_call),
        "latency_p50_ms": 1000 * statistics.median(per_call),
        "latency_tail_ms": 1000 * ranked[n - TAIL_BEYOND - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    raw = statistics.median(len(p) / sum(p) for p in result["passes"])
    ref_ms = 1000 * statistics.median(r for refs in result["refs"] for r in refs)
    notes = {
        "throughput_per_s": f"{n} calls at their median of {len(passes)} passes; "
                            f"unscaled median pass {raw:.4g}/s",
        "latency_p50_ms": f"median of the {n} calls' latencies",
        "latency_tail_ms": f"p{100 * (n - TAIL_BEYOND) / n:.1f} of the {n} calls' latencies, "
                           f"{TAIL_BEYOND} beyond it",
        "setup_s": f"median of {len(setups)} fresh interpreters around the run",
        "peak_rss_mb": "worker ru_maxrss",
    }
    speed = (f"latencies at reference speed: the reference slice took "
             f"{ref_ms:.4g} ms (median), {1000 * common.REF_NOMINAL_S:g} ms at reference speed")
    return values, notes, speed


def per_layer(result: dict) -> tuple:
    notes = dict(result["bases"])
    p = result["pass_s"]
    notes["trace.overhead_ratio"] = (
        f"{result['calls_per_pass']} calls: {p['untraced']:.3f} s untraced, "
        f"{p['traced']:.3f} s traced")
    return result["values"], result["units"], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []
    try:
        if not args.trace:
            time_setup(deadline)  # warms the file cache and bytecode; not counted
            setups += [time_setup(deadline) for _ in range(SETUP_PROBES // 2)]
        result = run_worker(worker_args, deadline)
        if not args.trace:
            setups += [time_setup(deadline) for _ in range(SETUP_PROBES - len(setups))]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values, units, notes = per_layer(result)
    else:
        values, notes, speed = end_to_end(result, setups)
        units = dict(END_TO_END)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} calls attempted, {failed} failed")
    if not args.trace:
        print(f"  ({speed})")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:52s} {value:>14.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':52s} {failed / attempted:>14.6g} ratio")
    for problem in result["failures"]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
