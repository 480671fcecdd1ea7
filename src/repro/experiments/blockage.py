"""Human-blockage dynamics and reflection fail-over.

The paper's background (Section 2) names blockage as the flip side of
directional 60 GHz links, and its Figure 5 case study shows reflections
carrying real throughput.  This harness combines both: a person walks
through a link, and the device either rides out the shadow or — when a
reflecting wall exists — re-trains its beams onto the wall bounce, the
fail-over behavior that related work ([13], [17]) motivates and that
802.11ad's beam training enables.

The experiment is time-stepped (like the Figure 14 harness): at every
step the combined multipath SNR under the current blocker position is
computed, rate selection runs, and (in fail-over mode) an SLS retrain
fires whenever the link degrades past a hysteresis threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.dbmath import power_sum_db
from repro.devices.base import RadioDevice
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.geometry.materials import Material
from repro.geometry.room import Room
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.mac.beam_training import SectorSweepTrainer
from repro.phy.blockage import crossing_blocker, path_blockage_loss_db
from repro.phy.channel import LinkBudget
from repro.phy.mcs import select_mcs
from repro.phy.raytracing import PropagationPath, RayTracer

#: Geometry: a 3 m link parallel to a reflecting wall 1.2 m away —
#: close to the Figure 5 arrangement, with room for a pedestrian.
DOCK_POS = Vec2(0.0, 0.0)
LAPTOP_POS = Vec2(3.0, 0.0)
WALL_Y = -1.2

REFLECTIVE_WALL = Material("painted-masonry", reflection_loss_db=8.0, penetration_loss_db=40.0)


def build_room(with_wall: bool = True) -> Room:
    """The blockage floor plan, with or without the rescue wall."""
    if with_wall:
        wall = Segment(Vec2(-2.0, WALL_Y), Vec2(5.0, WALL_Y), REFLECTIVE_WALL, name="wall")
    else:
        # A token far-away surface so the Room is non-empty.
        wall = Segment(Vec2(100.0, 100.0), Vec2(101.0, 100.0), REFLECTIVE_WALL)
    return Room([wall])


def path_snr_db(
    tx: RadioDevice,
    rx: RadioDevice,
    paths: List[PropagationPath],
    blocker_pos: Optional[Vec2],
    budget: LinkBudget,
) -> float:
    """Multipath SNR with per-leg blockage losses applied."""
    contributions = []
    for path in paths:
        tx_gain = tx.tx_gain_dbi(path.points[0] + Vec2.unit(path.departure_angle_rad()))
        rx_gain = rx.tx_gain_dbi(path.points[-1] + Vec2.unit(path.arrival_angle_rad()))
        loss = budget.propagation_loss_db(path.length_m()) + path.extra_loss_db()
        if blocker_pos is not None:
            for a, b in zip(path.points, path.points[1:]):
                loss += path_blockage_loss_db(blocker_pos, a, b)
        contributions.append(
            tx.tx_power_dbm + tx_gain + rx_gain - loss - budget.implementation_loss_db
        )
    if not contributions:
        return -300.0
    return power_sum_db(contributions) - budget.noise_floor_dbm()


@dataclass(frozen=True)
class BlockageSample:
    """One time step of the blockage run."""

    time_s: float
    snr_db: float
    phy_rate_bps: float
    retrained: bool
    beam_index: int


@dataclass
class BlockageRunResult:
    """Full time series of one blockage crossing."""

    samples: List[BlockageSample]
    retrain_count: int

    def outage_s(self, step_s: float) -> float:
        """Total time with no sustainable MCS."""
        return step_s * sum(1 for s in self.samples if s.phy_rate_bps == 0.0)

    def min_rate_bps(self) -> float:
        return min(s.phy_rate_bps for s in self.samples)

    def rate_series(self) -> Tuple[np.ndarray, np.ndarray]:
        t = np.array([s.time_s for s in self.samples])
        r = np.array([s.phy_rate_bps for s in self.samples])
        return t, r


def run_blockage_crossing(
    failover: bool = True,
    with_wall: bool = True,
    duration_s: float = 2.0,
    step_s: float = 20e-3,
    crossing_fraction: float = 0.5,
    retrain_threshold_db: float = 6.0,
    seed: int = 0,
) -> BlockageRunResult:
    """A pedestrian crosses the link; optionally SLS fail-over fires.

    Args:
        failover: Re-train (SLS) whenever the SNR drops more than
            ``retrain_threshold_db`` below its value at the last
            training.  Without fail-over the beams stay on the (now
            shadowed) LOS.
        with_wall: Whether the rescue wall exists at all.
        duration_s: Simulated span (the crossing happens at t = 1 s).
        step_s: Sampling period.
        crossing_fraction: Where along the link the person crosses.
        retrain_threshold_db: Fail-over hysteresis.
        seed: Seed for SLS measurement noise.
    """
    room = build_room(with_wall=with_wall)
    tracer = RayTracer(room, max_order=1)
    budget = LinkBudget()
    dock = make_d5000_dock(position=DOCK_POS, orientation_rad=0.0)
    laptop = make_e7440_laptop(position=LAPTOP_POS, orientation_rad=math.pi)
    trainer = SectorSweepTrainer(
        budget=budget, tracer=tracer, rng=np.random.default_rng(seed)
    )
    trainer.train(laptop, dock)

    blocker = crossing_blocker(DOCK_POS, LAPTOP_POS, crossing_fraction, lead_in_s=1.0)
    paths = tracer.trace(laptop.position, dock.position)

    samples: List[BlockageSample] = []
    retrains = 0
    snr_at_training = path_snr_db(laptop, dock, paths, None, budget)
    t = 0.0
    while t < duration_s:
        pos = blocker.position(t)
        snr = path_snr_db(laptop, dock, paths, pos, budget)
        retrained = False
        if failover and snr < snr_at_training - retrain_threshold_db:
            # SLS over the *currently blocked* channel: sweep SNRs are
            # computed per sector pair with the blocker applied, so
            # training converges onto whatever propagation survives.
            blocked_trainer = _BlockedTrainer(budget, tracer, pos, seed + retrains)
            blocked_trainer.train(laptop, dock)
            retrains += 1
            retrained = True
            snr_at_training = path_snr_db(laptop, dock, paths, pos, budget)
            snr = snr_at_training
        mcs = select_mcs(snr)
        samples.append(
            BlockageSample(
                time_s=t,
                snr_db=snr,
                phy_rate_bps=mcs.phy_rate_bps if mcs else 0.0,
                retrained=retrained,
                beam_index=laptop.active_beam.index,
            )
        )
        t += step_s
    return BlockageRunResult(samples=samples, retrain_count=retrains)


class _BlockedTrainer(SectorSweepTrainer):
    """SLS trainer whose channel includes a frozen blocker position."""

    def __init__(self, budget, tracer, blocker_pos: Vec2, seed: int):
        super().__init__(budget=budget, tracer=tracer, rng=np.random.default_rng(seed))
        self._blocker_pos = blocker_pos

    def _extra_losses_db(self, path):
        return [
            path_blockage_loss_db(self._blocker_pos, a, b)
            for a, b in zip(path.points, path.points[1:])
        ]
