#!/usr/bin/env python3
"""Benchmark the paper's own scenarios, end to end and layer by layer.

    python3 perfbench/run.py --workload fig22-interference --seed 0 \
        --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The workloads, their cells and checks live in
``workloads.py``; the metric names and units in ``BENCHMARK.json``.

A run repeats the workload's cell list (a *pass*) a fixed number of
times set by ``--seconds``, closed-loop, one cell after another in this
one process.

* ``--trace 0`` prints the end-to-end metrics, all measured untraced.
  ``setup_s`` is the median over several fresh processes of the time
  from process start until the first cell could start.  Every time is
  scaled to the nominal host speed by reference slices timed around and
  inside it (``hostspeed.py``); the raw seconds are printed beside it.
* ``--trace 1`` alternates untraced and traced passes.  Traced passes
  install the wrappers of ``layers.py`` and turn on the program's
  ``obs`` counters and handler profile; they give the per-layer
  metrics.  The run also self-tests: every traced pass must give the
  same counts, and each traced pass the same simulated events, frames
  and history digest as the untraced passes.

The last line of stdout is the JSON result.  The lines before it name
each metric with its unit, the history digest and the failed cells.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5

SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"error: no program source under {SRC}")
sys.path.insert(0, str(SRC))

import repro.experiments.mobility as mobility_cells  # noqa: E402  (needs SRC)
from repro.campaign import run_campaign  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def load_spec() -> Dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} missing")
    return json.loads(path.read_text())


def prepare(workload_name: str, seed: int):
    """Everything a run does before its first cell, imports aside."""
    try:
        workload = workloads.WORKLOADS[workload_name]
    except KeyError:
        raise SystemExit(
            f"error: unknown workload {workload_name!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})"
        ) from None
    cells = workload.cells(seed)
    capture = layers.Capture()
    capture.install()
    return workload, cells, capture


def measure_setup(args) -> Tuple[float, float]:
    """Median seconds from process start to ready-for-first-cell, scaled
    by the reference start-ups just before and after each, and raw."""
    samples, raw = [], []
    before = hostspeed.startup()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline().strip()
        raw.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line != "ready":
            raise SystemExit("error: set-up probe failed")
        after = hostspeed.startup()
        samples.append(raw[-1] * hostspeed.STARTUP_S / ((before + after) / 2))
        before = after
    return statistics.median(samples), statistics.median(raw)


# -- passes --------------------------------------------------------------------


class Pass:
    """One execution of the workload's cell list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.outcomes = []
        self.wall_s = 0.0
        self.wall_scaled_s = 0.0
        self.campaign_cells = 0
        self.metrics: Dict = {}
        self.profile: Dict = {}
        self.self_s: Dict[str, float] = {}
        self.des_s = 0.0
        self.tracer_calls: Dict[str, int] = {}
        self.tracer_counts: Dict[str, int] = {}

    @property
    def cell_seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def scale(self) -> None:
        """Host-speed scaled wall time: each cell by its own scale, the
        rest of the pass (campaign overhead) by the cells' median."""
        scaled = sum(o.seconds * o.scale for o in self.outcomes)
        rest = self.wall_s - self.cell_seconds
        rest_scale = statistics.median(o.scale for o in self.outcomes) if self.outcomes else 1.0
        self.wall_scaled_s = scaled + rest * rest_scale

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(((o.observed or {}).get("digest") or "failed").encode())
        return h.hexdigest()

    def observables(self) -> List[Tuple]:
        keys = ("events", "frames", "unicast", "delivered", "digest")
        return [
            (o.label,) + tuple((o.observed or {}).get(k) for k in keys)
            for o in self.outcomes
        ]


def _observe(workload, outcome, capture) -> None:
    sims, media = capture.take()
    if outcome.result is not None:
        outcome.observed = layers.history_observables(
            sims, media, workloads.row_text(workload.row(outcome.result))
        )


def run_cells(workload, cells, capture, tracer) -> Pass:
    run = Pass(traced=tracer is not None)
    if tracer is not None:
        tracer.reset()
        layers.obs_start()
    meter = hostspeed.Meter(sampling=tracer is None)
    for cell in cells:
        fn = tracer.timed("cell", cell.fn) if tracer is not None else cell.fn
        outcome = workloads.Outcome(cell.label)
        with meter:
            try:
                outcome.result = fn(**cell.kwargs)
            except Exception:
                outcome.errors.append(traceback.format_exc(limit=4))
        outcome.seconds, outcome.scale = meter.seconds, meter.scale
        _observe(workload, outcome, capture)
        run.outcomes.append(outcome)
    run.wall_s = run.cell_seconds
    run.scale()
    if tracer is not None:
        run.metrics, run.profile = layers.obs_stop()
    return run


def run_campaign_pass(workload, seed, capture, tracer) -> Pass:
    """The campaign runs the cells; a stand-in for the registered cell
    function meters and digests each one (the meter's slices and the
    digest are taken out of the pass's time)."""
    run = Pass(traced=tracer is not None)
    original = mobility_cells.vehicular_cell
    inner = tracer.timed("cell", original) if tracer is not None else original
    bookkeeping = [0.0]
    meter = hostspeed.Meter(sampling=tracer is None)

    def cell(**kwargs):
        t0 = time.perf_counter()
        outcome = workloads.Outcome(
            f"{kwargs['speed_kmh']:g}kmh-seed{kwargs['seed']}", group=str(kwargs["seed"])
        )
        try:
            with meter:
                outcome.result = inner(**kwargs)
            return outcome.result
        finally:
            outcome.seconds, outcome.scale = meter.seconds, meter.scale
            _observe(workload, outcome, capture)
            run.outcomes.append(outcome)
            bookkeeping[0] += time.perf_counter() - t0 - outcome.seconds

    if tracer is not None:
        tracer.reset()
    runner = tracer.timed("campaign", run_campaign) if tracer is not None else run_campaign
    mobility_cells.vehicular_cell = cell
    try:
        t0 = time.perf_counter()
        result = runner(
            workload.spec(seed), cache=None, workers=1, retries=0,
            metrics=tracer is not None, profile=tracer is not None,
        )
        run.wall_s = time.perf_counter() - t0 - bookkeeping[0]
    finally:
        mobility_cells.vehicular_cell = original
    run.scale()
    if tracer is not None:
        tracer.stats["campaign"][0] -= int(bookkeeping[0] * 1e9)
        run.metrics = result.telemetry.metrics or {}
        run.profile = result.telemetry.profile or {}
    run.campaign_cells = result.telemetry.scenarios_total
    by_label = {o.label: o for o in run.outcomes}
    for failed in result.failures():
        label = f"{failed.spec.param_dict()['speed_kmh']:g}kmh-seed{failed.spec.seed}"
        outcome = by_label.get(label)
        if outcome is None:
            outcome = workloads.Outcome(label, group=str(failed.spec.seed))
            run.outcomes.append(outcome)
        outcome.errors.append(failed.error or "failed")
    return run


def run_pass(workload, cells, seed, capture, tracer) -> Pass:
    if workload.campaign:
        run = run_campaign_pass(workload, seed, capture, tracer)
    else:
        run = run_cells(workload, cells, capture, tracer)
    if tracer is not None:
        run.self_s = tracer.self_times(run.profile, layers.handler_modules())
        run.des_s = tracer.inclusive_s("des")
        run.tracer_calls = {layer: tracer.calls(layer) for layer in tracer.stats}
        run.tracer_counts = dict(tracer.counts)
    for outcome in run.outcomes:
        if outcome.result is not None and not outcome.errors:
            outcome.errors.extend(workload.check(outcome))
    by_label = {o.label: o for o in run.outcomes}
    for message, labels in workload.check_pass(run.outcomes):
        for label in labels:
            by_label[label].errors.append(message)
    return run


# -- metrics -------------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(passes: List[Pass], setup_s: float, scaled: bool) -> Dict[str, float]:
    """End-to-end metrics, host-speed scaled or raw."""
    samples = [o.seconds * (o.scale if scaled else 1.0) for p in passes for o in p.outcomes]
    tail_s, _ = tail(samples)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_scaled_s if scaled else p.wall_s for p in passes),
        "cell_s_p50": statistics.median(samples),
        "cell_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts_of(run: Pass) -> Dict[str, float]:
    """The exact (count-derived) per-layer metrics of one traced pass."""
    counters = run.metrics.get("counters", {})
    mpdus = run.metrics.get("histograms", {}).get("mac.wigig.aggregation_mpdus", {})
    handler_calls = layers.profile_by_layer(run.profile, layers.handler_modules(), "calls")
    events = counters.get("mac.simulator.events", 0)
    frames = counters.get("mac.medium.frames", 0)
    lookups = run.tracer_calls.get("coupling", 0)
    misses = run.tracer_counts.get("coupling.misses", 0)
    unicast = sum(o.observed["unicast"] for o in run.outcomes if o.observed)
    delivered = sum(o.observed["delivered"] for o in run.outcomes if o.observed)
    return {
        "des.events": events,
        "des.events_per_frame": _ratio(events, frames),
        "mac.tcp.calls": handler_calls.get("mac.tcp", 0),
        "mac.wigig.calls": handler_calls.get("mac.wigig", 0),
        "mac.wigig.mpdus_per_frame": _ratio(mpdus.get("sum", 0), mpdus.get("count", 0)),
        "mac.wihd.calls": handler_calls.get("mac.wihd", 0),
        "medium.frames": frames,
        "medium.delivered_frac": _ratio(delivered, unicast),
        "medium.cca_calls": run.tracer_calls.get("medium.cca", 0),
        "coupling.lookups": lookups,
        "coupling.lookups_per_frame": _ratio(lookups, frames),
        "coupling.misses": misses,
        "coupling.hit_ratio": _ratio(lookups - misses, lookups),
        "coupling.invalidations": run.tracer_counts.get("coupling.invalidations", 0),
        "mobility.position_updates": counters.get("mobility.position_updates", 0),
        "mobility.retrains": sum(counters.get(c, 0) for c in layers.RETRAIN_COUNTERS),
        "campaign.cells": run.campaign_cells,
        "phy.raytraces": counters.get("phy.raytracing.traces", 0),
        "phy.raytrace_paths": counters.get("phy.raytracing.paths", 0),
        "phy.gain_queries": counters.get("phy.antenna.gain_queries", 0),
        "phy.pattern_syntheses": counters.get("phy.antenna.pattern_syntheses", 0),
    }


#: Per-layer time metrics -> the tracer layers whose self time they sum.
SELF_TIME_LAYERS = {
    "des.loop_s": ("des",),
    "mac.tcp.s": ("mac.tcp",),
    "mac.wigig.s": ("mac.wigig",),
    "mac.wihd.s": ("mac.wihd",),
    "medium.transmit_s": ("medium.transmit", "medium"),
    "medium.cca_s": ("medium.cca",),
    "coupling.s": ("coupling",),
    "mobility.s": ("mobility",),
    "phy.raytrace_s": ("phy.raytrace",),
    "phy.synthesis_s": ("phy.synthesis",),
    "setup.scenario_s": ("setup",),
    "analysis.s": ("analysis",),
}
#: Time no named layer owns: experiment glue between the wrapped calls
#: and DES handlers of modules outside the named layers.
UNATTRIBUTED_LAYERS = ("cell", "other")


def times_of(run: Pass) -> Dict[str, float]:
    self_s = run.self_s
    values = {
        name: sum(self_s.get(layer, 0.0) for layer in group)
        for name, group in SELF_TIME_LAYERS.items()
    }
    events = run.metrics.get("counters", {}).get("mac.simulator.events", 0)
    values["des.events_per_s"] = _ratio(events, run.des_s)
    values["campaign.overhead_s"] = (
        run.wall_s - run.cell_seconds if run.campaign_cells else 0.0
    )
    values["trace.unattributed_frac"] = _ratio(
        sum(self_s.get(layer, 0.0) for layer in UNATTRIBUTED_LAYERS), run.wall_s
    )
    return values


def per_layer(passes: List[Pass], problems: List[str]) -> Tuple[Dict[str, float], Dict]:
    """Per-layer metrics, and the exact counts the self-test compares."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    counts = [counts_of(p) for p in traced]
    for other in counts[1:]:
        if other != counts[0]:
            diff = sorted(k for k in other if other[k] != counts[0][k])
            problems.append(f"count metrics differ between traced passes: {diff}")
    reference = untraced[0].observables()
    for p in traced:
        if p.observables() != reference:
            problems.append("a traced pass simulated differently from an untraced one")
        events = sum(o.observed["events"] for o in p.outcomes if o.observed)
        if events != p.metrics.get("counters", {}).get("mac.simulator.events", 0):
            problems.append("obs event counter disagrees with the simulators' own count")
    times = [times_of(p) for p in traced]
    values = dict(counts[0])
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    traced_wall = statistics.median(p.wall_scaled_s for p in traced)
    untraced_wall = statistics.median(p.wall_scaled_s for p in untraced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    sim_s = sum(o.observed["sim_s"] for o in untraced[0].outcomes if o.observed)
    values["des.sim_s_per_wall_s"] = _ratio(sim_s, untraced_wall)
    return values, counts[0]


# -- main ----------------------------------------------------------------------


def passes_for(workload, seconds: int) -> int:
    return max(workload.min_passes, round(seconds / workload.nominal_pass_s))


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    spec = load_spec()
    workload, cells, capture = prepare(args.workload, args.seed)
    trace = bool(args.trace)
    setup_s, setup_raw_s = measure_setup(args) if not trace else (0.0, 0.0)
    tracer = layers.Tracer() if trace else None
    n_passes = passes_for(workload, args.seconds)
    passes: List[Pass] = []
    for i in range(n_passes):
        traced = trace and i % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(workload, cells, args.seed, capture, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()

    problems: List[str] = []
    digests = {p.digest() for p in passes}
    if len(digests) != 1:
        problems.append("passes of one seed gave different history digests")
    counts = None
    raw: Dict[str, float] = {}
    if trace:
        metrics, counts = per_layer(passes, problems)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(passes, setup_s, scaled=True)
        raw = end_to_end(passes, setup_raw_s, scaled=False)
        wanted = spec["end_to_end"]

    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.errors or o.result is None]
    samples = [o.seconds for o in outcomes]
    _, tail_pct = tail(samples)
    print(f"workload {workload.name}  seed {args.seed}  passes {n_passes}  "
          f"cells {len(outcomes)}  trace {args.trace}")
    print(f"digest {passes[0].digest()}")
    if counts is not None:
        print(f"counts {json.dumps(counts, sort_keys=True)}")
    print(f"failed_frac {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)} cells)")
    print(f"cell_s_tail is p{tail_pct:.0f} of {len(samples)} cells")
    scales = [o.scale for o in outcomes if o.seconds]
    if scales:
        print(f"host speed: a reference slice took "
              f"{hostspeed.REFERENCE_S / statistics.median(scales):.5f} s (median over cells; "
              f"nominal {hostspeed.REFERENCE_S} s); times below are scaled to nominal")
    for label in dict.fromkeys(o.label for o in outcomes):
        runs = [o for o in outcomes if o.label == label]
        events = {(o.observed or {}).get("events") for o in runs}
        print(f"cell {label:<16} {statistics.median(o.seconds * o.scale for o in runs):8.3f} s  "
              f"events {'/'.join(str(e) for e in sorted(events, key=str))}")
    for o in failed:
        print(f"FAILED {o.label}: {'; '.join(e.strip() for e in o.errors) or 'no result'}")
    for problem in problems:
        print(f"SELF-TEST {problem}")
    out = {}
    for entry in wanted:
        value = float(metrics[entry["name"]])
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        line = f"  {entry['name']:<28} {value:>16.6g} {entry['unit']}"
        if entry["name"] in raw and raw[entry["name"]] != value:
            line += f"  (raw {raw[entry['name']]:.6g})"
        print(line)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
