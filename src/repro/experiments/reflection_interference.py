"""Interference via a metal reflector (Figures 7/23).

Setup (Figure 7): a WiGig link and a WiHD link are geometrically
non-interfering — absorber shields block the direct paths and side
lobes between the two systems.  A metal reflector behind the WiHD
receiver, however, bounces WiHD energy into the WiGig receiver's beam.
The WiGig link runs a fully loaded TCP transfer (250 KB window); when
the WiHD system powers off (at ~90 s of the 120 s run in the paper),
TCP throughput visibly recovers.  The paper reports an average loss of
about 20% (peaks ~300 mbps / 33%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.devices.air3c import make_air3c_receiver, make_air3c_transmitter
from repro.devices.base import RadioDevice
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.experiments.common import wire_devices
from repro.geometry.room import Obstacle, Room
from repro.geometry.segments import Segment
from repro.geometry.materials import Material, get_material
from repro.geometry.vec import Vec2
from repro.mac.coupling import DeviceCoupling
from repro.mac.tcp import IperfFlow, TcpParameters
from repro.mac.wigig import WiGigLink
from repro.mac.wihd import WiHDLink
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer

#: Geometry (meters), mirroring Figure 7: the WiGig link runs along
#: y = 0 (dock receiving at the origin); the WiHD link runs above it;
#: the metal reflector stands past the WiHD receiver and redirects the
#: WiHD transmitter's energy down into the dock's receive beam.
DOCK_POS = Vec2(0.0, 0.0)
LAPTOP_POS = Vec2(1.9, 0.0)
WIHD_TX_POS = Vec2(2.4, 1.5)
WIHD_RX_POS = Vec2(3.1, 1.5)
REFLECTOR_X = 4.0


def _reflector_segment() -> Segment:
    """The metal plate, tilted so the WiHD main lobe bounces onto the dock.

    The paper aims the reflector and verifies "the docking station is
    located inside" the reflection's coverage area; we reproduce that
    alignment analytically: the plate normal bisects the WiHD
    transmitter's boresight ray and the direction from the bounce
    point to the dock.
    """
    bounce = Vec2(REFLECTOR_X, WIHD_TX_POS.y)
    incoming = Vec2(1.0, 0.0)  # WiHD TX boresight (toward its RX)
    outgoing = (DOCK_POS - bounce).normalized()
    normal = (incoming - outgoing).normalized()
    along = normal.perpendicular()
    half_span = 0.9
    # A painted metal plate: ~2.4 dB per bounce.  This calibrates the
    # interference level into the regime the paper measures (about a
    # 20% average TCP loss, peaks over 30%); a bare polished plate
    # (0.8 dB) would collapse the flow entirely.
    painted_metal = Material(
        "painted-metal", reflection_loss_db=2.4, penetration_loss_db=60.0
    )
    return Segment(
        bounce - along * half_span,
        bounce + along * half_span,
        painted_metal,
        name="reflector",
    )


def build_reflector_room() -> Room:
    """The Figure 7 floor plan: metal reflector plus absorber shields."""
    room = Room([_reflector_segment()])
    # Blockage elements between the two links ("blockage elements
    # prevent direct interference from side lobes of the WiHD
    # transmitter", Figure 7).  Two plates block every direct
    # device-to-device path while leaving the reflected corridor —
    # which descends through the gap between them — open.
    room.add_obstacle(
        Obstacle.plate(Vec2(1.0, 0.75), Vec2(1.8, 0.75), material="absorber", name="shield-left")
    )
    room.add_obstacle(
        Obstacle.plate(Vec2(2.05, 0.75), Vec2(2.6, 0.75), material="absorber", name="shield-right")
    )
    return room


@dataclass
class ReflectionInterferenceResult:
    """Outcome of the Figure 23 experiment."""

    times_s: np.ndarray
    throughput_bps: np.ndarray
    wihd_off_time_s: float
    mean_with_interference_bps: float
    mean_without_interference_bps: float

    @property
    def throughput_drop(self) -> float:
        """Relative TCP loss while the WiHD link is on."""
        if self.mean_without_interference_bps <= 0:
            return 0.0
        return (
            self.mean_without_interference_bps - self.mean_with_interference_bps
        ) / self.mean_without_interference_bps

    @property
    def worst_drop_bps(self) -> float:
        """Largest instantaneous throughput deficit vs the clean mean."""
        on = self.times_s < self.wihd_off_time_s
        if not on.any():
            return 0.0
        return float(self.mean_without_interference_bps - self.throughput_bps[on].min())


def build_devices() -> Tuple[Dict[str, RadioDevice], RayTracer]:
    """Create and train all four devices inside the reflector room."""
    room = build_reflector_room()
    tracer = RayTracer(room, max_order=2)
    dock = make_d5000_dock(position=DOCK_POS, orientation_rad=0.0)
    laptop = make_e7440_laptop(position=LAPTOP_POS, orientation_rad=math.pi)
    wihd_tx = make_air3c_transmitter(position=WIHD_TX_POS, orientation_rad=0.0)
    wihd_rx = make_air3c_receiver(position=WIHD_RX_POS, orientation_rad=math.pi)
    dock.train_toward(laptop.position)
    laptop.train_toward(dock.position)
    wihd_tx.train_toward(wihd_rx.position)
    wihd_rx.train_toward(wihd_tx.position)
    devices = {d.name: d for d in (dock, laptop, wihd_tx, wihd_rx)}
    return devices, tracer


def run_reflection_interference(
    duration_s: float = 3.0,
    wihd_off_at_s: float = 2.25,
    bin_s: float = 0.05,
    seed: int = 12,
    video_rate_bps: float = 2.5e9,
) -> ReflectionInterferenceResult:
    """The Figure 23 run: TCP throughput over time, WiHD on -> off.

    The paper's 120 s run (power-off at ~90 s) is time-scaled; the
    on/off ratio and every mechanism are preserved.
    """
    if not 0 < wihd_off_at_s < duration_s:
        raise ValueError("power-off instant must lie inside the run")
    devices, tracer = build_devices()
    sim, coupling, medium, stations = wire_devices(
        devices, LinkBudget(), seed, tracer, capture_history=False
    )

    snr = coupling.snr_db("laptop", "dock")
    link = WiGigLink(
        sim,
        medium,
        transmitter=stations["laptop"],
        receiver=stations["dock"],
        snr_hint_db=snr,
    )
    flow = IperfFlow(
        sim,
        link,
        TcpParameters(window_bytes=250 * 1024, aimd=True),
    )
    wihd = WiHDLink(
        sim,
        medium,
        transmitter=stations["wihd-tx"],
        receiver=stations["wihd-rx"],
        video_rate_bps=video_rate_bps,
    )
    sim.schedule(wihd_off_at_s, wihd.power_off)
    sim.run_until(duration_s)

    # Bin the delivery log into a throughput time series.
    log = flow.delivery_log
    edges = np.arange(0.0, duration_s + bin_s, bin_s)
    centers = (edges[:-1] + edges[1:]) / 2.0
    delivered = np.zeros(edges.size)
    for t, cumulative in log:
        idx = int(np.searchsorted(edges, t, side="right")) - 1
        if 0 <= idx < edges.size:
            delivered[idx] = max(delivered[idx], cumulative)
    # Forward-fill cumulative counts, then difference per bin.
    for i in range(1, delivered.size):
        delivered[i] = max(delivered[i], delivered[i - 1])
    per_bin = np.diff(np.concatenate([[0.0], delivered]))[: centers.size]
    throughput = per_bin / bin_s

    on_mask = centers < wihd_off_at_s
    # Ignore the slow-start ramp in the "with interference" mean and
    # the AIMD recovery ramp right after the power-off instant.
    settled = centers > 0.3
    recovered = centers > wihd_off_at_s + 0.15
    with_mean = float(throughput[on_mask & settled].mean()) if (on_mask & settled).any() else 0.0
    off_mean = float(throughput[recovered].mean()) if recovered.any() else 0.0
    return ReflectionInterferenceResult(
        times_s=centers,
        throughput_bps=throughput,
        wihd_off_time_s=wihd_off_at_s,
        mean_with_interference_bps=with_mean,
        mean_without_interference_bps=off_mean,
    )


def interference_path_report() -> Dict[str, float]:
    """Diagnostic: coupling levels of the key paths in the setup.

    Returns the dB coupling for the WiGig signal path, the (shielded)
    direct WiHD->dock path, and the reflected WiHD->dock path, so tests
    can assert the geometry does what Figure 7 claims: direct path
    blocked, reflection open.
    """
    devices, tracer = build_devices()
    budget = LinkBudget()
    coupling = DeviceCoupling(devices, budget=budget, tracer=tracer)
    no_reflector_room = Room(
        [
            Segment(
                Vec2(REFLECTOR_X, 10.0),
                Vec2(REFLECTOR_X, 11.0),
                get_material("metal"),
            )
        ],
        build_reflector_room().obstacles,
    )
    direct_only = DeviceCoupling(
        devices, budget=budget, tracer=RayTracer(no_reflector_room, max_order=0)
    )
    stations = {name: dev.make_station() for name, dev in devices.items()}
    return {
        "wigig_signal_db": coupling.coupling_db(stations["laptop"], stations["dock"]),
        "wihd_direct_db": direct_only.coupling_db(stations["wihd-tx"], stations["dock"]),
        "wihd_reflected_db": coupling.coupling_db(stations["wihd-tx"], stations["dock"]),
    }
