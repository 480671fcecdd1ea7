"""Image-method ray tracing for indoor 60 GHz propagation.

Section 4.3 of the paper shows that, contrary to the common quasi-
optical assumption, first- and even second-order wall reflections carry
enough energy to matter: lobes at positions B and F of the conference
room can only be explained by single and double bounces off the glass
and wooden walls.

The tracer enumerates propagation paths between two points using the
image method:

* zeroth order — the LOS path, if not blocked;
* first order — mirror the source across each wall, check that the
  reflection point lies on the wall and both legs are clear;
* second order — mirror the first-order images across every other
  wall and validate both reflection points.

Each path carries its total length, per-bounce reflection losses,
blockage penetration losses, and its departure/arrival angles, which
the link evaluation combines with the antenna patterns at both ends.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.dbmath import power_sum_db
from repro.geometry.room import Room
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.phy.channel import LinkBudget, friis_path_loss_db, oxygen_absorption_db


@dataclass(frozen=True)
class PropagationPath:
    """One resolved propagation path between a TX and an RX point.

    Attributes:
        points: The polyline from TX to RX, including any reflection
            points (so LOS paths have 2 points, 1st order 3, ...).
        surfaces: The wall segment touched at each reflection point.
        reflection_loss_db: Sum of per-bounce reflection losses.
        penetration_loss_db: Sum of through-material losses on all legs.
    """

    points: Tuple[Vec2, ...]
    surfaces: Tuple[Segment, ...]
    reflection_loss_db: float
    penetration_loss_db: float

    @property
    def order(self) -> int:
        """Number of reflections (0 = line of sight)."""
        return len(self.surfaces)

    @property
    def is_los(self) -> bool:
        return self.order == 0

    def length_m(self) -> float:
        """Total unfolded path length."""
        total = 0.0
        for a, b in zip(self.points, self.points[1:]):
            total += a.distance_to(b)
        return total

    def departure_angle_rad(self) -> float:
        """Angle of the first leg leaving the transmitter (global frame)."""
        return (self.points[1] - self.points[0]).angle()

    def arrival_angle_rad(self) -> float:
        """Direction the signal arrives *from*, seen at the receiver.

        This is the bearing from the RX toward the last reflection
        point (or the TX for LOS) — the angle at which a rotating horn
        at the RX location would see this path's energy.
        """
        return (self.points[-2] - self.points[-1]).angle()

    def extra_loss_db(self) -> float:
        """Combined reflection + penetration loss of the path."""
        return self.reflection_loss_db + self.penetration_loss_db

    def received_power_dbm(
        self,
        budget: LinkBudget,
        tx_gain_dbi: float,
        rx_gain_dbi: float,
    ) -> float:
        """Received power over this path for given endpoint gains."""
        return budget.received_power_dbm(
            self.length_m(), tx_gain_dbi, rx_gain_dbi, self.extra_loss_db()
        )


def multipath_gain_db(
    tx_position: Vec2,
    rx_position: Vec2,
    tx_gain: Callable[[Vec2], float],
    rx_gain: Callable[[Vec2], float],
    budget: LinkBudget,
    paths: Optional[Sequence[PropagationPath]] = None,
    extra_losses_db: Optional[Callable[[PropagationPath], Iterable[float]]] = None,
    tx_power_dbm: float = 0.0,
) -> Optional[float]:
    """Received power (dBm; the coupling in dB at the default 0 dBm) from
    a transmit pattern to a receive pattern — the one per-path power sum.

    ``tx_gain``/``rx_gain`` give each end's pattern gain (dBi) toward a
    point.  ``paths=None`` is the free-space LOS.  Otherwise each path
    the caller traced contributes ``tx_power_dbm`` plus its departure
    and arrival gains minus its propagation, wall and implementation
    losses, power-summed; no paths gives ``None``.
    ``extra_losses_db(path)`` adds further per-path losses (a blocker
    on a leg), one at a time.  Callers: ``DeviceCoupling``, both SLS
    trainers, ``VubiqReceiver``, ``coverage_map`` and ``path_snr_db``.
    """
    if paths is None:
        return (
            tx_power_dbm + tx_gain(rx_position) + rx_gain(tx_position)
            - budget.propagation_loss_db(tx_position.distance_to(rx_position))
            - budget.implementation_loss_db
        )
    if not paths:
        return None
    contributions = []
    for path in paths:
        loss = budget.propagation_loss_db(path.length_m()) + path.extra_loss_db()
        if extra_losses_db is not None:
            for extra in extra_losses_db(path):
                loss += extra
        # Each end's gain is read 1 m along its path direction; one Vec2
        # per point, as this loop is the hot path of Figs 18/19.
        out, back = path.departure_angle_rad(), path.arrival_angle_rad()
        departure = Vec2(tx_position.x + math.cos(out), tx_position.y + math.sin(out))
        arrival = Vec2(rx_position.x + math.cos(back), rx_position.y + math.sin(back))
        contributions.append(
            tx_power_dbm + tx_gain(departure) + rx_gain(arrival) - loss
            - budget.implementation_loss_db
        )
    return power_sum_db(contributions)


class RayTracer:
    """Enumerates LOS/1st/2nd order paths between points in a room."""

    def __init__(self, room: Room, max_order: int = 2, max_penetration_db: float = 35.0):
        """
        Args:
            room: The environment.
            max_order: Highest reflection order to enumerate (0-2).
                The paper's design principle is that protocols should
                account for "up to two signal reflections" — beyond
                second order, 60 GHz energy is negligible indoors.
            max_penetration_db: Paths whose accumulated penetration
                loss exceeds this are dropped as below any usable
                signal level (keeps path lists small and honest).
        """
        if max_order not in (0, 1, 2):
            raise ValueError("max_order must be 0, 1, or 2")
        self._room = room
        self._max_order = max_order
        self._max_penetration = max_penetration_db

    @property
    def room(self) -> Room:
        return self._room

    def trace(self, tx: Vec2, rx: Vec2) -> List[PropagationPath]:
        """All propagation paths from ``tx`` to ``rx`` up to max order."""
        if tx.distance_to(rx) < 1e-9:
            raise ValueError("TX and RX positions coincide")
        paths: List[PropagationPath] = []
        with obs.span("phy.raytracing.trace"):
            los = self._trace_los(tx, rx)
            if los is not None:
                paths.append(los)
            if self._max_order >= 1:
                paths.extend(self._trace_first_order(tx, rx))
            if self._max_order >= 2:
                paths.extend(self._trace_second_order(tx, rx))
        if obs.STATE.metrics:
            obs.add("phy.raytracing.traces")
            obs.add("phy.raytracing.paths", len(paths))
        return paths

    def strongest_path(
        self,
        tx: Vec2,
        rx: Vec2,
        budget: LinkBudget,
        tx_gain_dbi: float = 0.0,
        rx_gain_dbi: float = 0.0,
    ) -> Optional[PropagationPath]:
        """Path with the highest received power, or None if none exist."""
        paths = self.trace(tx, rx)
        if not paths:
            return None
        return max(paths, key=lambda p: p.received_power_dbm(budget, tx_gain_dbi, rx_gain_dbi))

    # -- internals ----------------------------------------------------

    def _penetration_between(self, a: Vec2, b: Vec2, touched: Sequence[Segment]) -> Optional[float]:
        """Penetration loss of leg a->b, or None if above the cutoff."""
        loss = self._room.blockage_loss_db(a, b, ignore=touched)
        if loss > self._max_penetration:
            return None
        return loss

    def _trace_los(self, tx: Vec2, rx: Vec2) -> Optional[PropagationPath]:
        loss = self._penetration_between(tx, rx, ())
        if loss is None:
            return None
        return PropagationPath(
            points=(tx, rx), surfaces=(), reflection_loss_db=0.0, penetration_loss_db=loss
        )

    def _reflection_point(self, image: Vec2, target: Vec2, wall: Segment) -> Optional[Vec2]:
        """Where the image->target line crosses the wall, if on-segment."""
        d = target - image
        length = d.length()
        if length < 1e-12:
            return None
        # Solve intersection of the infinite image->target line with the
        # wall segment; the hit must lie within the segment.
        w = wall.b - wall.a
        denom = d.cross(w)
        if abs(denom) < 1e-12:
            return None
        qp = wall.a - image
        t = qp.cross(w) / denom
        u = qp.cross(d) / denom
        if t <= 1e-9 or t >= 1.0 - 1e-9:
            return None
        if u < 0.0 or u > 1.0:
            return None
        return image + d * t

    def _trace_first_order(self, tx: Vec2, rx: Vec2) -> List[PropagationPath]:
        paths: List[PropagationPath] = []
        for wall in self._room.surfaces:
            image = wall.mirror_point(tx)
            hit = self._reflection_point(image, rx, wall)
            if hit is None:
                continue
            # Both legs must be clear of other obstructions; the wall
            # itself legitimately touches the path at the bounce.
            leg1 = self._penetration_between(tx, hit, (wall,))
            if leg1 is None:
                continue
            leg2 = self._penetration_between(hit, rx, (wall,))
            if leg2 is None:
                continue
            paths.append(
                PropagationPath(
                    points=(tx, hit, rx),
                    surfaces=(wall,),
                    reflection_loss_db=wall.material.reflection_loss_db,
                    penetration_loss_db=leg1 + leg2,
                )
            )
        return paths

    def _trace_second_order(self, tx: Vec2, rx: Vec2) -> List[PropagationPath]:
        paths: List[PropagationPath] = []
        surfaces = self._room.surfaces
        for first in surfaces:
            image1 = first.mirror_point(tx)
            for second in surfaces:
                if second is first:
                    continue
                image2 = second.mirror_point(image1)
                # Unfold back to front: last bounce first.
                hit2 = self._reflection_point(image2, rx, second)
                if hit2 is None:
                    continue
                hit1 = self._reflection_point(image1, hit2, first)
                if hit1 is None:
                    continue
                leg1 = self._penetration_between(tx, hit1, (first,))
                if leg1 is None:
                    continue
                leg2 = self._penetration_between(hit1, hit2, (first, second))
                if leg2 is None:
                    continue
                leg3 = self._penetration_between(hit2, rx, (second,))
                if leg3 is None:
                    continue
                paths.append(
                    PropagationPath(
                        points=(tx, hit1, hit2, rx),
                        surfaces=(first, second),
                        reflection_loss_db=(
                            first.material.reflection_loss_db
                            + second.material.reflection_loss_db
                        ),
                        penetration_loss_db=leg1 + leg2 + leg3,
                    )
                )
        return paths


def path_loss_db(path: PropagationPath, frequency_hz: float) -> float:
    """Total propagation loss of a path (spreading + absorption + extra).

    Convenience for analyses that want loss rather than received power.
    """
    length = path.length_m()
    return (
        friis_path_loss_db(length, frequency_hz)
        + oxygen_absorption_db(length, frequency_hz)
        + path.extra_loss_db()
    )
