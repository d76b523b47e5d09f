"""Benchmark of the planted_sprouts package, one workload per run.

    python3 perfbench/run.py --workload verify-n7 --seed 1 --seconds 40 --trace 0

Run from the repository root (or any directory: paths are taken from this
file).  The package is imported from ../src, so nothing is installed.

Before each pass a run times the set-up (a fresh import of the package
plus building the inputs from --seed) several times, and it repeats
passes while the next one is expected to end within --seconds (there is
always at least one pass).  Every pass goes through the output gate in
workloads.py.

Times are reported in reference seconds (see reference.py): the time of
each set-up and of each part of a pass is divided by the mean time of the
reference loops run before, during and after it, and multiplied by REF_S.
Other tenants of the host slow a part and the loops run with it alike, so
the quotient moves much less than plain seconds while the host's speed
changes by up to 1.9x.  setup_s is the median of all set-ups; pass_s sums
over the parts of a pass each part's mean over the passes of the run.
The plain seconds and the loop times are in the per-layer metrics and the
run record.

--trace 0 prints the end-to-end metrics, timed with tracing off.
--trace 1 alternates an untraced and a traced pass and prints the
per-layer metrics from the traced passes, including the tracing overhead
(traced pass_s minus untraced pass_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run metadata, the failure notes
and (with --trace 1) the spans of the last traced pass are written to
.perfbench-out/ at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from reference import REF_S
from tracing import MODULES, PACKAGE, Recorder, summarize
from tracing import per_layer_names as span_metric_names
from workloads import WORKLOADS, Laps, Tally, VerifyWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUPS_PER_PASS = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
EXTRA_LAYER = {
    "enumeration.plays": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.ref_ms": "ms",
    "raw.setup_s": "s",
    "raw.pass_s": "s",
}


def per_layer_names() -> list:
    return span_metric_names() + list(EXTRA_LAYER)


def per_layer_unit(name: str) -> str:
    if name in EXTRA_LAYER:
        return EXTRA_LAYER[name]
    return {"calls": "count", "s": "s", "exponent": "log4"}[name.rsplit(".", 1)[1]]


def load_package():
    """Import the package afresh, so that each set-up pays the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == PACKAGE]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return types.SimpleNamespace(**{m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES})


def timed_pass(workload, pkg, inputs, index, tally, recorder=None) -> tuple:
    """(items, {part: (seconds, reference loop seconds)}) of one pass."""
    gc.collect()
    laps = Laps()
    if recorder is not None:
        recorder.install()
    try:
        items = workload.run_pass(pkg, inputs, index, tally, laps, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    return items, laps.parts


def mean(values) -> float:
    return sum(values) / len(values)


def scaled(seconds: float, reference: float) -> float:
    """Seconds in reference seconds, given the reference loop's time then."""
    return seconds / reference * REF_S


def pass_s(passes) -> float:
    """Sum over the parts of a pass of each part's mean over the passes,
    in reference seconds."""
    per_part = {}
    for _, parts in passes:
        for name, (seconds, reference) in parts.items():
            per_part.setdefault(name, []).append(scaled(seconds, reference))
    return sum(mean(times) for times in per_part.values())


def raw_pass_s(passes) -> float:
    """Median over the passes of the sum of their parts' raw seconds."""
    return statistics.median(sum(t for t, _ in parts.values()) for _, parts in passes)


def pass_factor(parts) -> float:
    """Reference seconds per raw second over one pass."""
    return REF_S / statistics.median(reference for _, reference in parts.values())


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    tally = Tally()
    setups = Laps()
    untraced, traced, summaries, span_counts = [], [], [], []
    spans = []
    start = perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            with setups.part(len(setups.parts)):
                pkg = load_package()
                inputs = workload.make_inputs(args.seed)
        index = len(untraced)
        untraced.append(timed_pass(workload, pkg, inputs, index, tally))
        if args.trace:
            recorder = Recorder()
            traced.append(timed_pass(workload, pkg, inputs, index, tally, recorder))
            factor = pass_factor(traced[-1][1])
            summary = summarize(recorder.spans)
            summaries.append({k: v * factor if k.endswith(".s") else v for k, v in summary.items()})
            span_counts.append(len(recorder.spans))
            spans = recorder.spans
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(untraced) > args.seconds:
            break

    readings = [r for _, parts in untraced + traced for _, r in parts.values()]
    readings += [r for _, r in setups.parts.values()]
    if args.trace:
        metrics = {name: mean([s[name] for s in summaries]) for name in span_metric_names()}
        is_verify = isinstance(workload, VerifyWorkload)
        metrics["enumeration.plays"] = mean([items for items, _ in traced]) if is_verify else 0
        metrics["trace.overhead_s"] = pass_s(traced) - pass_s(untraced)
        metrics["trace.spans"] = mean(span_counts)
        metrics["host.ref_ms"] = statistics.median(readings) * 1000
        metrics["raw.setup_s"] = statistics.median(t for t, _ in setups.parts.values())
        metrics["raw.pass_s"] = raw_pass_s(untraced)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        seconds = pass_s(untraced)
        metrics = {
            "setup_s": statistics.median(scaled(t, r) for t, r in setups.parts.values()),
            "pass_s": seconds,
            "items_per_s": untraced[0][0] / seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    meta = metadata()
    walls = [sum(t for t, _ in parts.values()) for _, parts in untraced]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(walls)} untraced raw seconds min/median/max "
        f"{min(walls):.3f}/{statistics.median(walls):.3f}/{max(walls):.3f}, "
        f"reference loop {min(readings) * 1000:.3f}-{max(readings) * 1000:.3f} ms; "
        f"failed_frac={tally.failed / tally.attempted} ({tally.failed} of {tally.attempted}); "
        + " ".join(f"{k}={v}" for k, v in meta.items())
    )
    for note in tally.notes:
        print(f"FAILED {note}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "ref_s": REF_S,
        "setups": list(setups.parts.values()),
        "part_fields": ["seconds", "reference_loop_s"],
        "untraced_passes": [{"items": i, "parts": p} for i, p in untraced],
        "traced_passes": [{"items": i, "parts": p} for i, p in traced],
        "failed_notes": tally.notes,
        "metrics": metrics,
    }
    if spans:
        origin = spans[0][1]
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "tag"]
        record["spans"] = [[n, s0 - origin, s1 - origin, p, t] for n, s0, s1, p, t in spans]
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
