"""The four benchmark workloads: their cells, inputs and result checks.

A workload is a fixed list of cells made from ``--seed``; a run repeats
that list (a *pass*) several times.  Seed ``DEFAULT_SEED`` gives every
cell the seed the published figures use (``benchmarks/figreport.py``);
any other seed derives the cell seeds from it with ``derive_seed``.

Each cell's result is checked by a test that holds on any seed, and a
few checks compare cells of one pass (marked as the cells they cover).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign import get_campaign
from repro.experiments.common import derive_seed

DEFAULT_SEED = 0


@dataclass
class Cell:
    label: str
    fn: Callable[..., object]
    kwargs: Dict = field(default_factory=dict)


@dataclass
class Outcome:
    """One executed cell: its time, result and what the checks said."""

    label: str
    group: str = ""
    seconds: float = 0.0
    #: Host-speed scale of ``seconds``, from the reference slices timed
    #: around and inside the cell (``hostspeed.Meter``).
    scale: float = 1.0
    result: object = None
    observed: Optional[Dict] = None
    errors: List[str] = field(default_factory=list)


def row_text(value) -> str:
    """Canonical JSON of a cell result (floats keep every digit)."""

    def plain(v):
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            return {f.name: plain(getattr(v, f.name)) for f in dataclasses.fields(v)}
        if isinstance(v, dict):
            return {str(k): plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, np.ndarray):
            return [plain(x) for x in v.tolist()]
        if isinstance(v, np.generic):
            return v.item()
        return v

    return json.dumps(plain(value), sort_keys=True)


def _seed(seed: int, published: int, *labels) -> int:
    return published if seed == DEFAULT_SEED else derive_seed(seed, *labels)


class Workload:
    name = ""
    #: Host seconds one pass took on the machine the benchmark was tuned
    #: on (2-core x86 container, py3.11).  Sets the passes per run, so
    #: the work of a run is fixed by --seconds and not by the clock.
    nominal_pass_s = 1.0
    #: Fewest passes per run: enough for at least eleven cells, so the
    #: tail has ten samples beyond it.
    min_passes = 2
    campaign = False

    def cells(self, seed: int) -> List[Cell]:
        """The cells of one pass (a campaign workload's come from its spec)."""
        return []

    def row(self, result) -> object:
        """The part of a cell result that goes into the digest."""
        return result

    def check(self, outcome: Outcome) -> List[str]:
        return []

    def check_pass(self, outcomes: Sequence[Outcome]) -> List[Tuple[str, List[str]]]:
        """Cross-cell checks: (failure message, labels of covered cells)."""
        return []


class Fig22Interference(Workload):
    """Fig 22 points: two docking links plus the blind WiHD sender."""

    name = "fig22-interference"
    nominal_pass_s = 12.0
    # (label, WiHD offset m, rotated, with WiHD, published seed): the
    # seeds interference_sweep / interference_free_baseline use.
    POINTS = (
        ("aligned-0.0m", 0.0, False, True, 10),
        ("aligned-3.0m", 3.0, False, True, 16),
        ("rotated-0.0m", 0.0, True, True, 10),
        ("rotated-3.0m", 3.0, True, True, 16),
        ("clean-aligned", 0.0, False, False, 99),
        ("clean-rotated", 0.0, True, False, 99),
    )

    def cells(self, seed):
        from repro.experiments.interference import interference_cell

        return [
            Cell(
                label,
                interference_cell,
                dict(
                    wihd_offset_m=offset,
                    rotated=rotated,
                    with_wihd=with_wihd,
                    duration_s=0.3,
                    warmup_s=0.1,
                    seed=_seed(seed, published, self.name, label),
                ),
            )
            for label, offset, rotated, with_wihd, published in self.POINTS
        ]

    def check(self, outcome):
        r = outcome.result
        errors = []
        if not 0.0 <= r["utilization"] <= 1.0:
            errors.append(f"utilization {r['utilization']} outside [0, 1]")
        if not r["link_rate_bps"] > 0:
            errors.append("no link rate")
        return errors

    def check_pass(self, outcomes):
        util = {o.label: o.result["utilization"] for o in outcomes if o.result}
        failures = []
        for group in ("aligned", "rotated"):
            near, clean = f"{group}-0.0m", f"clean-{group}"
            if near in util and clean in util and not util[near] > util[clean]:
                failures.append(
                    (f"{near} utilization {util[near]:.3f} not above clean "
                     f"baseline {util[clean]:.3f}", [near, clean])
                )
        return failures


class Fig09Aggregation(Workload):
    """The Figs 9-11 TCP sweep on one WiGig link, one cell per point."""

    name = "fig09-aggregation"
    nominal_pass_s = 6.0
    MAX_FRAME_S = 25.5e-6

    def cells(self, seed):
        from repro.experiments.frame_level import TCP_OPERATING_POINTS, aggregation_sweep

        return [
            Cell(
                label,
                aggregation_sweep,
                dict(
                    duration_s=0.15,
                    warmup_s=0.05,
                    operating_points=[(label, window, rate)],
                    seed=_seed(seed, 1, self.name, label),
                ),
            )
            for label, window, rate in TCP_OPERATING_POINTS
        ]

    def check(self, outcome):
        from repro.mac.tcp import GIGE_CAP_BPS

        (report,) = outcome.result
        errors = []
        longest = outcome.observed["longest_data_frame_s"]
        if longest > self.MAX_FRAME_S:
            errors.append(f"data frame of {longest * 1e6:.2f} us exceeds 25.5 us")
        if not 0.0 <= report.throughput_bps <= GIGE_CAP_BPS:
            errors.append(f"goodput {report.throughput_bps:.4g} bps above the GigE cap")
        if not 0.0 <= report.long_fraction <= 1.0:
            errors.append("long-frame share outside [0, 1]")
        return errors

    def check_pass(self, outcomes):
        reports = [o.result[0] for o in outcomes if o.result]
        if len(reports) != len(outcomes) or len(reports) < 3:
            return []
        low, top = reports[2], reports[-1]  # first mbps point, 934 mbps
        if top.long_fraction > low.long_fraction:
            return []
        return [
            (f"long-frame share does not grow with load ({low.long_fraction:.3f} "
             f"at {low.label}, {top.long_fraction:.3f} at {top.label})",
             [low.label, top.label])
        ]


class MobilitySpeed(Workload):
    """The mobility-speed campaign through run_campaign, one worker."""

    name = "mobility-speed"
    nominal_pass_s = 10.0
    campaign = True

    def spec(self, seed):
        base = get_campaign("mobility-speed")
        if seed == DEFAULT_SEED:
            return base
        seeds = tuple(derive_seed(seed, self.name, s) for s in base.seeds)
        return dataclasses.replace(base, seeds=seeds)

    def check(self, outcome):
        r = outcome.result
        errors = []
        if not 0.0 < r["overhead_fraction"] < 1.0:
            errors.append(f"re-training overhead {r['overhead_fraction']} outside (0, 1)")
        if not r["goodput_bps"] > 0:
            errors.append("no goodput")
        if r["retrains"] < 1:
            errors.append("no re-training during the pass")
        return errors

    def check_pass(self, outcomes):
        failures = []
        for group in sorted({o.group for o in outcomes}):
            rows = sorted(
                (o.result["speed_kmh"], o.result["overhead_fraction"], o.label)
                for o in outcomes
                if o.group == group and o.result
            )
            overheads = [r[1] for r in rows]
            if any(b <= a for a, b in zip(overheads, overheads[1:])):
                failures.append(
                    (f"seed {group}: re-training overhead does not rise with speed "
                     f"({overheads})", [r[2] for r in rows])
                )
        return failures


class Fig18Room(Workload):
    """Figs 18/19 room profiles: no DES, ray tracing and geometry."""

    name = "fig18-room"
    nominal_pass_s = 5.5
    min_passes = 3
    JITTER_M = 0.2

    def cells(self, seed):
        from repro.experiments.reflections import measure_room_profiles
        from repro.geometry.room import measurement_locations
        from repro.geometry.vec import Vec2

        rng = np.random.default_rng(derive_seed(seed, self.name))
        jittered = [
            p + Vec2(*rng.uniform(-self.JITTER_M, self.JITTER_M, 2))
            for p in measurement_locations()
        ]
        # compare_systems() at the paper's locations, then both systems
        # at seeded locations around them.
        return [
            Cell(f"{where}-{system}", measure_room_profiles,
                 dict(system=system, locations=locations))
            for where, locations in (("published", ()), ("jittered", jittered))
            for system in ("d5000", "wihd")
        ]

    def row(self, result):
        return {
            "profiles": {k: p.power_dbm for k, p in result.profiles.items()},
            "lobes": result.lobes,
        }

    def check(self, outcome):
        result = outcome.result
        errors = []
        if len(result.profiles) != 6:
            errors.append(f"{len(result.profiles)} profiles, expected 6")
        for label, profile in result.profiles.items():
            if not np.all(np.isfinite(profile.power_dbm)):
                errors.append(f"non-finite power at {label}")
            if not result.lobes[label]:
                errors.append(f"no lobe at {label}")
            if any(l.attribution not in ("tx", "rx", "reflection") for l in result.lobes[label]):
                errors.append(f"unattributed lobe at {label}")
        return errors

    def check_pass(self, outcomes):
        by_label = {o.label: o.result for o in outcomes if o.result}
        d5000, wihd = by_label.get("published-d5000"), by_label.get("published-wihd")
        if d5000 is None or wihd is None:
            return []
        labels = ["published-d5000", "published-wihd"]
        failures = []
        lobes_d = sum(len(v) for v in d5000.lobes.values())
        lobes_w = sum(len(v) for v in wihd.lobes.values())
        if lobes_d > lobes_w:
            failures.append((f"D5000 shows {lobes_d} lobes, WiHD only {lobes_w}", labels))
        if not wihd.strong_reflection_lobes(-12.0) > d5000.strong_reflection_lobes(-12.0):
            failures.append(("WiHD has no more strong reflection lobes than the D5000", labels))
        return failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig22Interference(), Fig09Aggregation(), MobilitySpeed(), Fig18Room())
}

