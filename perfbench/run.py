"""Benchmark of seqtypes: one workload per process, one thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; seqtypes is imported from its `src/`.
Set-up builds the inputs from the seed several times (`setup_s` is the
median).  The timed loop then runs whole passes over the same fixed item
list until the timed calls add up to `--seconds` of wall time; every
item's outputs are checked right after it, outside the timed region.
Times are reported in reference seconds (see calibrate.py).  With
`--trace 1` the same passes run with a span around each call into
seqtypes, and the per-layer figures are printed instead of the end-to-end
ones.  The last line of stdout is the result object; result files and
traces go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SRC = os.path.join(ROOT, "src")

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 100

LAYERS = (
    "corpus.generate",
    "cli.run",
    "derivations.load",
    "derivations.check",
    "derivations.collapse",
    "reduction.interfaces",
    "reduction.reduce",
    "reduction.r_choices",
    "reduction.build_choices",
    "threads.analysis",
    "threads.consumption",
    "trivialize.closure",
    "trivialize.reset",
    "trivialize.verify",
)
SIZES = (
    "size.nodes",
    "size.edges",
    "size.threads",
    "size.arcs",
    "size.classes",
    "size.reductions",
    "size.sequences",
)


def import_seqtypes():
    """Import the checkout's seqtypes, never an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "seqtypes")):
        sys.exit(f"no seqtypes sources under {SRC}")
    sys.path.insert(0, SRC)
    import seqtypes

    if os.path.dirname(os.path.abspath(seqtypes.__file__)) != os.path.join(SRC, "seqtypes"):
        sys.exit(f"seqtypes was imported from {seqtypes.__file__}, not from {SRC}")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def build_inputs(setup, seed: int, tracer, workdir: str, clock):
    """Build the items several times.  Returns them, the wall time of each
    build, and the host speed over the builds (calibration samples taken
    between them).  Every build must produce the same items."""
    times, items, signature = [], None, None
    first_sample = len(clock.loops)
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        clock.sample_if_due()
        start = time.perf_counter()
        built = setup(seed, tracer, workdir)
        times.append(time.perf_counter() - start)
        clock.sample()
        sig = [(type(i).__name__, i.group, i.nodes) for i in built]
        if signature is not None and sig != signature:
            raise RuntimeError("two set-ups from the same seed built different items")
        items, signature = built, sig
        if tracer.enabled:
            break
    return items, times, clock.speed(first_sample)


@dataclass
class Measurement:
    spans: list = field(default_factory=list)  # (item index, start, end) of completed items
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    wrong: int = 0  # completed items whose outputs failed a check
    wall_s: float = 0.0
    errors: list = field(default_factory=list)


def measure(items, run, check, seconds: float, tracer, clock) -> Measurement:
    """Whole passes until the timed calls add up to `seconds` of wall time."""
    m = Measurement()
    while m.passes == 0 or m.wall_s < seconds:
        gc.collect()
        for index, item in enumerate(items):
            clock.sample_if_due()
            m.attempted += 1
            if tracer.enabled:
                span = tracer.open("item", group=item.group)
                tracer.count("size.nodes", item.nodes)
            start = time.perf_counter()
            try:
                out = run(item, tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                m.failed += 1
                m.errors.append(f"{item.group}: {type(exc).__name__}: {exc}")
                continue
            finally:
                end = time.perf_counter()
                m.wall_s += end - start
                if tracer.enabled:
                    tracer.close(span)
            m.spans.append((index, start, end))
            try:
                check(item, out)
            except AssertionError as exc:
                m.wrong += 1
                m.errors.append(f"{item.group}: check failed: {exc}")
        m.passes += 1
        if tracer.enabled and not tracer.first_pass_end:
            tracer.first_pass_end = len(tracer.spans)
    clock.sample()
    return m


def per_layer_metrics(tracer, passes: int, scale: float) -> dict:
    """Set-up spans count once, pass spans per pass; times are multiplied by
    `scale`, the run's reference seconds per wall second."""
    setup, per_pass = tracer.layer_totals("setup"), tracer.layer_totals("pass")
    metrics = {}
    for layer in LAYERS:
        s0, n0 = setup.get(layer, (0.0, 0))
        s1, n1 = per_pass.get(layer, (0.0, 0))
        metrics[f"{layer}.self_s"] = {"value": scale * (s0 + s1 / passes), "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": n0 + n1 // passes, "unit": "count"}
    for name in SIZES:
        value = tracer.counts[("setup", name)] + tracer.counts[("pass", name)] // passes
        metrics[name] = {"value": value, "unit": "count"}
    edges = tracer.counts[("pass", "size.edges")]
    threads_s = per_pass.get("threads.analysis", (0.0, 0))[0]
    metrics["threads.us_per_edge"] = {
        "value": 1e6 * scale * threads_s / edges if edges else 0.0, "unit": "us"
    }
    return metrics


def group_detail(tracer, passes: int, scale: float) -> dict:
    """Per item group (m, k or instance): items, edges, item seconds and
    per-layer self seconds, all per pass and in reference seconds."""
    groups: dict = {}
    item_of: dict[int, str] = {}
    for i, span in enumerate(tracer.spans):
        if span.phase != "pass":
            continue
        if span.name == "item":
            entry = groups.setdefault(
                span.attrs["group"], {"items": 0, "item_s": 0.0, "edges": 0, "layers": {}}
            )
            entry["items"] += 1
            entry["item_s"] += span.end - span.start
            entry["edges"] += span.attrs.get("size.edges", 0)
            item_of[i] = span.attrs["group"]
        elif span.parent is not None:
            root = span.parent
            while root not in item_of and tracer.spans[root].parent is not None:
                root = tracer.spans[root].parent
            layers = groups[item_of[root]]["layers"]
            layers[span.name] = layers.get(span.name, 0.0) + span.self_s
    for entry in groups.values():
        entry["items"] //= passes
        entry["edges"] //= passes
        entry["item_s"] *= scale / passes
        entry["layers"] = {k: v * scale / passes for k, v in sorted(entry["layers"].items())}
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_seqtypes()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibrate import HostClock
    from spans import NULL, Tracer
    from workloads import WORKLOADS, traced_cli

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NULL
    clock = HostClock()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        items, setup_times, setup_speed = build_inputs(
            workload.setup, args.seed, tracer, workdir, clock
        )
        if workload.write_files:
            workload.write_files(items)
        tracer.phase = "pass"
        with traced_cli(tracer) if tracer.enabled else contextlib.nullcontext():
            m = measure(items, workload.run, workload.check, args.seconds, tracer, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in m.errors[:20]:
        print(line, file=sys.stderr)
    times = [clock.reference(start, end) for _, start, end in m.spans]
    per_item: dict[int, list[float]] = {}
    for (index, _, _), t in zip(m.spans, times):
        per_item.setdefault(index, []).append(t)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": m.passes,
        "items_per_pass": len(items),
        "setups": len(setup_times),
        "wall_s": m.wall_s,
        "reference_s": sum(times),
        "host_speed": clock.speed(),
    }
    if tracer.enabled:
        scale = 1 / clock.speed()
        metrics = per_layer_metrics(tracer, m.passes, scale)
        summary["groups"] = group_detail(tracer, m.passes, scale)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"summary": summary, "spans": tracer.to_json()[: tracer.first_pass_end]}, fh)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) / setup_speed, "unit": "s"},
            "items_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            # each item's median over the passes first: a pass in which the
            # calibration misjudged the host shifts all of its items at once
            "item_ms_p50": {
                "value": 1e3 * statistics.median(statistics.median(t) for t in per_item.values()),
                "unit": "ms",
            },
            "item_ms_p90": {"value": 1e3 * quantile(times, 90), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    print(json.dumps(summary), file=sys.stderr)
    result = {"correct": m.wrong == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
