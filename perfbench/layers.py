"""Layer attribution for the benchmark, done entirely from outside ``src/``.

Two kinds of hook are installed by patching public names of the
program at run time; nothing under ``src/`` is edited:

* :class:`Capture` — always on.  It records every ``Simulator`` and
  ``Medium`` a cell builds, so the benchmark can digest
  ``Medium.history`` and count events and frames in untraced runs too.
  It costs one list append per scenario.
* :class:`Tracer` — traced runs only.  It wraps the public entry point
  of each layer with a timer that keeps a call stack, so every layer
  is charged its *self* time (its own time minus the wrapped layers it
  called).  DES handler times come from the program's own ``obs.prof``
  handler profile.

Calls made far more than ~10^5 times per run and already counted by
the program (``AntennaPattern.gain_dbi``) are not wrapped: their count
comes from the ``obs`` counters and their time stays with the caller.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import marshal
import sys
import time
from sys import intern
from typing import Callable, Dict, List, Tuple

from repro import obs
from repro.mac.frames import FrameKind
from repro.mac.simulator import Medium, Simulator

#: Module prefix of a DES handler -> the layer its self time goes to.
HANDLER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.mac.tcp", "mac.tcp"),
    ("repro.mac.wigig", "mac.wigig"),
    ("repro.mac.wihd", "mac.wihd"),
    ("repro.mac.simulator", "medium"),
    ("repro.mobility", "mobility"),
)

#: Scenario builders, patched where the experiment modules look them up.
SETUP_CALLS: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments.interference", "build_interference_scenario"),
    ("repro.experiments.frame_level", "build_wigig_link_setup"),
    ("repro.experiments.mobility", "build_vehicular_scenario"),
    ("repro.experiments.reflections", "conference_room"),
    ("repro.experiments.reflections", "make_d5000_dock"),
    ("repro.experiments.reflections", "make_e7440_laptop"),
    ("repro.experiments.reflections", "make_air3c_transmitter"),
    ("repro.experiments.reflections", "make_air3c_receiver"),
)

#: Post-run passes and measurement models (experiments, core, vubiq).
ANALYSIS_CALLS: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments.interference", "channel_utilization"),
    ("repro.experiments.interference", "mean_link_rate_bps"),
    ("repro.experiments.frame_level", "medium_usage_from_records"),
    ("repro.experiments.reflections", "measure_angular_profile"),
    ("repro.experiments.reflections", "find_lobes"),
    ("repro.experiments.reflections", "classify_lobes"),
)

#: obs counters read for the per-layer counts.
RETRAIN_COUNTERS = (
    "mobility.retrain.periodic",
    "mobility.retrain.snr_drop",
    "mobility.retrain.misaligned",
    "mobility.retrain.recovery",
    "mobility.retrain.handover",
)


def handler_layer(module: str) -> str:
    for prefix, layer in HANDLER_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _callback_module(callback) -> str:
    func = getattr(callback, "func", callback)  # functools.partial
    return getattr(func, "__module__", None) or ""


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Capture:
    """Collects the simulators and media built while a cell runs."""

    def __init__(self) -> None:
        self.sims: List[Simulator] = []
        self.media: List[Medium] = []
        self._patches = _Patches()

    def install(self) -> None:
        for cls, store in ((Simulator, self.sims), (Medium, self.media)):
            original = cls.__init__

            @functools.wraps(original)
            def init(obj, *args, _original=original, _store=store, **kwargs):
                _original(obj, *args, **kwargs)
                _store.append(obj)

            self._patches.set(cls, "__init__", init)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> Tuple[List[Simulator], List[Medium]]:
        """Hand over what the last cell built and forget it."""
        sims, media = self.sims[:], self.media[:]
        self.sims.clear()
        self.media.clear()
        return sims, media


def history_observables(sims, media, row_text: str) -> Dict:
    """Exact per-cell facts that tracing must not change.

    The digest is a sha256 over every ``Medium.history`` tuple plus the
    cell's result row, so two runs with byte-identical simulated
    statistics have equal digests.  ``marshal`` version 2 writes each
    float as its 8 bytes and never back-references; interning the
    strings fixes their type byte, so equal tuples give equal bytes.
    """
    digest = hashlib.sha256()
    frames = unicast = delivered = 0
    longest_data_s = 0.0
    for medium in media:
        history = medium.history
        # In chunks, so the digest adds little to the run's peak memory.
        for start in range(0, len(history), 4096):
            rows = [
                (
                    r.start_s, r.duration_s, intern(r.source), intern(r.destination),
                    intern(r.kind.value), r.mcs_index, r.payload_bits, r.aggregated_mpdus,
                    r.delivered, r.retransmission, r.nav_duration_s,
                )
                for r in history[start:start + 4096]
            ]
            digest.update(marshal.dumps(rows, 2))
            frames += len(rows)
            outcomes = [row[8] for row in rows if row[8] is not None]
            unicast += len(outcomes)
            delivered += sum(outcomes)
            data = [row[1] for row in rows if row[4] == FrameKind.DATA.value]
            longest_data_s = max([longest_data_s] + data)
    digest.update(row_text.encode())
    return {
        "events": sum(s.events_processed for s in sims),
        "sim_s": sum(s.now for s in sims),
        "frames": frames,
        "unicast": unicast,
        "delivered": delivered,
        "longest_data_frame_s": longest_data_s,
        "digest": digest.hexdigest(),
    }


class Tracer:
    """Self-time attribution by layer, from wrappers around public calls.

    DES handlers are not wrapped (there are millions of events per run):
    their inclusive time comes from the program's ``obs.prof`` handler
    profile.  A wrapped call made directly by a handler finds that
    handler's layer by walking up to the frame ``run_until`` called, and
    its time is taken out of the handler's in :meth:`self_times`.
    """

    def __init__(self) -> None:
        #: layer -> [self ns, inclusive ns, calls]
        self.stats: Dict[str, List[int]] = {}
        #: Handler layer -> time of the wrapped calls its handlers made.
        self.handler_child_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {"coupling.misses": 0, "coupling.invalidations": 0}
        self._stack: List[List] = []
        self._patches = _Patches()
        self._run_until_code = Simulator.run_until.__code__
        self._code_layers: Dict[object, str] = {}

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0, 0]
        self.handler_child_ns.clear()
        for key in self.counts:
            self.counts[key] = 0

    def calls(self, layer: str) -> int:
        return self.stats.get(layer, [0, 0, 0])[2]

    def inclusive_s(self, layer: str) -> float:
        return self.stats.get(layer, [0, 0, 0])[1] / 1e9

    def _charge_handler(self, dt: int) -> None:
        """Charge a wrapped call made directly by a DES handler to the
        handler's layer (the frame ``run_until`` called)."""
        frame = sys._getframe(2)
        while frame.f_back is not None and frame.f_back.f_code is not self._run_until_code:
            frame = frame.f_back
        layer = self._code_layers.get(frame.f_code)
        if layer is None:
            layer = handler_layer(frame.f_globals.get("__name__", ""))
            self._code_layers[frame.f_code] = layer
        self.handler_child_ns[layer] = self.handler_child_ns.get(layer, 0) + dt

    def timed(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        push, pop = stack.append, stack.pop
        stats = self.stats.setdefault(layer, [0, 0, 0])
        charge_handler = self._charge_handler
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0, layer]
            push(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    if parent[1] == "des":
                        charge_handler(dt)
                stats[0] += dt - frame[0]
                stats[1] += dt
                stats[2] += 1

        return wrapper

    def self_times(self, profile: Dict, modules: Dict[str, str]) -> Dict[str, float]:
        """Seconds of self time per layer, handlers included.

        ``des`` keeps only the loop itself: ``run_until`` minus every
        handler's inclusive time.
        """
        handler_ns = profile_by_layer(profile, modules, "total_ns")
        self_ns = {layer: entry[0] for layer, entry in self.stats.items()}
        self_ns["des"] = self_ns.get("des", 0) + sum(
            self.handler_child_ns.values()
        )
        for layer, ns in handler_ns.items():
            self_ns["des"] -= ns
            self_ns[layer] = (
                self_ns.get(layer, 0) + ns - self.handler_child_ns.get(layer, 0)
            )
        return {layer: ns / 1e9 for layer, ns in self_ns.items()}

    def install(self) -> None:
        from repro.mac.coupling import DeviceCoupling
        from repro.phy.antenna import PhasedArray
        from repro.phy.codebook import Codebook
        from repro.phy.raytracing import RayTracer

        p = self._patches
        counts = self.counts

        p.set(Simulator, "run_until", self.timed("des", Simulator.run_until))

        transmit = Medium.transmit
        timed = self.timed

        def traced_transmit(medium, record, on_complete=None):
            # The frame-end callback runs inside the medium's handler;
            # time it as the layer that owns it.
            if on_complete is not None:
                on_complete = timed(handler_layer(_callback_module(on_complete)), on_complete)
            return transmit(medium, record, on_complete)

        p.set(Medium, "transmit", self.timed("medium.transmit", traced_transmit))
        p.set(Medium, "channel_busy_for", self.timed("medium.cca", Medium.channel_busy_for))

        # A miss is a lookup that evaluates the path gain; the cache has
        # no public hit/miss signal, so the evaluation method is counted
        # while a lookup is in progress (snr_db calls it directly).
        lookup = DeviceCoupling.coupling_db
        compute = DeviceCoupling._compute
        in_lookup = [False]

        def counted_lookup(coupling, tx, rx, control=False):
            in_lookup[0] = True
            try:
                return lookup(coupling, tx, rx, control)
            finally:
                in_lookup[0] = False

        def counted_compute(coupling, tx_dev, rx_dev, control):
            if in_lookup[0]:
                counts["coupling.misses"] += 1
            return compute(coupling, tx_dev, rx_dev, control)

        invalidate = DeviceCoupling.invalidate

        def counted_invalidate(coupling, *names):
            counts["coupling.invalidations"] += 1
            return invalidate(coupling, *names)

        p.set(DeviceCoupling, "coupling_db", self.timed("coupling", counted_lookup))
        p.set(DeviceCoupling, "_compute", counted_compute)
        p.set(DeviceCoupling, "invalidate", counted_invalidate)

        p.set(RayTracer, "trace", self.timed("phy.raytrace", RayTracer.trace))
        p.set(
            PhasedArray,
            "pattern_for_weights",
            self.timed("phy.synthesis", PhasedArray.pattern_for_weights),
        )
        build = Codebook.__dict__["build"]
        p.set(Codebook, "build", staticmethod(self.timed("phy.synthesis", build.__func__)))

        for layer, names in (("setup", SETUP_CALLS), ("analysis", ANALYSIS_CALLS)):
            for module_name, attr in names:
                module = importlib.import_module(module_name)
                p.set(module, attr, self.timed(layer, getattr(module, attr)))

    def uninstall(self) -> None:
        self._patches.undo()


def handler_modules() -> Dict[str, str]:
    """Top-level name -> defining module, for every loaded module under
    a :data:`HANDLER_LAYERS` prefix (the ``obs.prof`` profile names
    handlers by qualname only)."""
    names: Dict[str, str] = {}
    for prefix, _ in HANDLER_LAYERS:
        importlib.import_module(prefix)
    for module_name, module in list(sys.modules.items()):
        layer = handler_layer(module_name)
        if layer == "other":
            continue
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module_name:
                continue
            known = names.setdefault(name, module_name)
            if handler_layer(known) != layer:
                raise RuntimeError(
                    f"{name} is defined in {known} and {module_name}, "
                    "so its handlers have no single layer"
                )
    return names


def profile_by_layer(profile: Dict, modules: Dict[str, str], field: str) -> Dict[str, int]:
    """Sum one field (``calls`` or ``total_ns``) of an ``obs.prof``
    snapshot's handlers per layer."""
    totals: Dict[str, int] = {}
    for qualname, data in ((profile or {}).get("handlers") or {}).items():
        layer = handler_layer(modules.get(qualname.split(".")[0], ""))
        totals[layer] = totals.get(layer, 0) + int(data[field])
    return totals


def obs_start() -> None:
    obs.reset()
    obs.enable(metrics=True, profile=True)


def obs_stop() -> Tuple[Dict, Dict]:
    snapshot = obs.metrics_snapshot() or {}
    profile = obs.profile_snapshot() or {}
    obs.disable()
    obs.reset()
    return snapshot, profile
