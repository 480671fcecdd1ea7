"""Spatial-reuse planning tools: the paper's design principles, coded.

Section 5 derives two design principles this module operationalizes:

* *"MAC layer designs which exploit the sparsity of 60 GHz signals to
  increase spatial reuse may incur unexpected collisions ... such
  protocols should extend this geometric approach to include up to two
  signal reflections off walls"* — so the conflict test here evaluates
  the actual multipath coupling (LOS + first/second-order bounces +
  side lobes), not main-lobe geometry.
* *"60 GHz networks should implement multiple MAC behaviors and choose
  the one which is most suitable for the beam patterns of the
  individual devices"* — :func:`recommend_mac_behavior` maps a device's
  measured pattern quality to a protection level.

The tools operate on :class:`~repro.devices.base.RadioDevice` objects
plus a :class:`~repro.mac.coupling.DeviceCoupling`, so they account for
everything the library models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.devices.base import RadioDevice
from repro.geometry.vec import Vec2
from repro.mac.coupling import DeviceCoupling
from repro.phy.channel import LinkBudget

#: Default SINR headroom (dB) a victim needs over an aggressor for the
#: links to count as non-conflicting: top-MCS threshold (16) plus the
#: rate controller's backoff and a fade margin.
DEFAULT_PROTECTION_MARGIN_DB = 20.0


@dataclass(frozen=True)
class Link:
    """One directional link: a transmitter and its receiver device."""

    tx: RadioDevice
    rx: RadioDevice

    @property
    def name(self) -> str:
        return f"{self.tx.name}->{self.rx.name}"


@dataclass(frozen=True)
class Conflict:
    """An aggressor transmitter that breaks a victim link's margin."""

    victim: str
    aggressor: str
    signal_snr_db: float
    interference_snr_db: float

    @property
    def margin_db(self) -> float:
        return self.signal_snr_db - self.interference_snr_db


def link_margins(
    links: Sequence[Link],
    coupling: DeviceCoupling,
) -> List[Conflict]:
    """Signal-vs-interference margins for every (victim, aggressor) pair.

    For each victim link and each *other* link's transmitter, computes
    the victim's signal SNR and the aggressor's interference SNR at the
    victim receiver through the full coupling model (patterns, side
    lobes, reflections, blockage).
    """
    rows: List[Conflict] = []
    for victim in links:
        signal = coupling.snr_db(victim.tx.name, victim.rx.name)
        for other in links:
            if other is victim:
                continue
            interference = coupling.snr_db(other.tx.name, victim.rx.name)
            rows.append(
                Conflict(
                    victim=victim.name,
                    aggressor=other.tx.name,
                    signal_snr_db=signal,
                    interference_snr_db=interference,
                )
            )
    return rows


def conflict_graph(
    links: Sequence[Link],
    coupling: DeviceCoupling,
    margin_db: float = DEFAULT_PROTECTION_MARGIN_DB,
) -> List[Tuple[str, str]]:
    """Pairs of links that cannot operate concurrently.

    Two links conflict when either one's transmitter erodes the other's
    margin below ``margin_db``.  The output is an edge list over link
    names, ready for graph coloring / scheduling.
    """
    by_tx: Dict[str, str] = {link.tx.name: link.name for link in links}
    edges = set()
    for row in link_margins(links, coupling):
        if row.margin_db < margin_db:
            a = row.victim
            b = by_tx[row.aggressor]
            if a != b:
                edges.add(tuple(sorted((a, b))))
    return sorted(edges)


def greedy_schedule(
    links: Sequence[Link],
    coupling: DeviceCoupling,
    margin_db: float = DEFAULT_PROTECTION_MARGIN_DB,
) -> List[List[str]]:
    """Greedy coloring of the conflict graph into concurrent groups.

    Links in the same group can transmit simultaneously; the number of
    groups is the airtime-division factor the interference costs.
    """
    edges = set(conflict_graph(links, coupling, margin_db))
    groups: List[List[str]] = []
    for link in links:
        placed = False
        for group in groups:
            if all(tuple(sorted((link.name, member))) not in edges for member in group):
                group.append(link.name)
                placed = True
                break
        if not placed:
            groups.append([link.name])
    return groups


def coverage_map(
    device: RadioDevice,
    coupling_budget: LinkBudget,
    bounds: Tuple[float, float, float, float],
    resolution_m: float = 0.5,
    tracer=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SNR (dB) a probe receiver would see on a grid of positions.

    Uses the device's *current* active beam, an isotropic probe, and —
    when a tracer is given — all propagation paths.  Returns
    ``(xs, ys, snr)`` where ``snr[j, i]`` corresponds to
    ``(xs[i], ys[j])``.

    Positions co-located with the device (within half a grid cell) get
    ``+inf``; unreachable positions get ``-inf``.
    """
    x0, y0, x1, y1 = bounds
    if x1 <= x0 or y1 <= y0:
        raise ValueError("bounds must span a positive area")
    xs = np.arange(x0, x1 + resolution_m / 2, resolution_m)
    ys = np.arange(y0, y1 + resolution_m / 2, resolution_m)
    snr = np.full((ys.size, xs.size), -math.inf)
    from repro.analysis.dbmath import power_sum_db

    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            probe = Vec2(float(x), float(y))
            distance = device.position.distance_to(probe)
            if distance < resolution_m / 2:
                snr[j, i] = math.inf
                continue
            if tracer is None:
                rx = coupling_budget.received_power_dbm(
                    distance, device.tx_gain_dbi(probe), 0.0
                )
                snr[j, i] = rx - coupling_budget.noise_floor_dbm()
                continue
            paths = tracer.trace(device.position, probe)
            if not paths:
                continue
            contributions = []
            for path in paths:
                departure = device.position + Vec2.unit(path.departure_angle_rad())
                loss = coupling_budget.propagation_loss_db(path.length_m())
                loss += path.extra_loss_db()
                contributions.append(
                    coupling_budget.tx_power_dbm
                    + device.tx_gain_dbi(departure)
                    - loss
                    - coupling_budget.implementation_loss_db
                )
            snr[j, i] = power_sum_db(contributions) - coupling_budget.noise_floor_dbm()
    return xs, ys, snr


def recommended_tx_power_dbm(
    link: Link,
    coupling: DeviceCoupling,
    target_snr_db: float = 20.0,
    min_power_dbm: float = -10.0,
    max_power_dbm: float = 10.0,
) -> float:
    """Transmit power control per the paper's "Range" design principle.

    Section 5: "devices may need to adjust their transmit power to
    control interference even in quasi-static scenarios".  This
    computes the lowest conducted power that still gives the victim
    link ``target_snr_db`` (top-MCS threshold plus margin) — every dB
    shaved off the transmitter is a dB less side-lobe interference at
    everyone else.

    Returns a value clamped to the radio's ``[min, max]`` power range;
    a link that cannot reach the target even at full power gets
    ``max_power_dbm``.
    """
    if target_snr_db <= 0:
        raise ValueError("target SNR must be positive")
    current_power = link.tx.tx_power_dbm
    snr_at_current = coupling.snr_db(link.tx.name, link.rx.name)
    needed = current_power - (snr_at_current - target_snr_db)
    return float(min(max_power_dbm, max(min_power_dbm, needed)))


def apply_power_control(
    links: Sequence[Link],
    coupling: DeviceCoupling,
    target_snr_db: float = 20.0,
) -> Dict[str, float]:
    """Set every link's transmit power to the recommended minimum.

    Mutates the transmitter devices and invalidates the coupling.
    Returns the chosen powers by transmitter name.
    """
    chosen: Dict[str, float] = {}
    for link in links:
        power = recommended_tx_power_dbm(link, coupling, target_snr_db)
        chosen[link.tx.name] = power
    # Apply after computing everything (recommendations are based on
    # the original powers; SNR scales linearly with TX power).
    for link in links:
        link.tx.tx_power_dbm = chosen[link.tx.name]
    coupling.invalidate(*chosen)
    return chosen


def recommend_mac_behavior(device: RadioDevice) -> str:
    """Pick a MAC protection level from the device's pattern quality.

    The paper's design principle: in scenarios where devices with
    certain beam patterns do not interfere, others may cause
    collisions — so the MAC should adapt to the *individual device's*
    pattern.  The heuristic grades the active beam's side-lobe level:

    * clean (< -10 dB): aggressive spatial reuse, no RTS/CTS needed;
    * typical consumer (-10..-3 dB): RTS/CTS protection (what the
      D5000 does);
    * boundary/degraded (> -3 dB): full protection and a lowered CCA
      threshold — the device interferes (and is interfered with) far
      outside its nominal beam.
    """
    sll = device.active_beam.pattern.side_lobe_level_db()
    if sll < -10.0:
        return "aggressive-reuse"
    if sll <= -3.0:
        return "rts-cts"
    return "conservative"
