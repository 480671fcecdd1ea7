"""The one received-power kernel, ``repro.phy.raytracing.multipath_gain_db``,
and the consumers folded onto it.

The Vubiq receiver used to compute each path at the link budget's
transmit power and shift the result to the device's power afterwards;
the kernel puts the device's power inside the per-path sum instead.
That moves results in the last bits only, so the parent formula is kept
here as a reference and the receiver must stay within
:data:`VUBIQ_TOLERANCE_DB` of it.
"""

import math

import numpy as np
import pytest

from repro.analysis.dbmath import power_sum_db
from repro.core.spatial import coverage_map
from repro.devices.air3c import make_air3c_transmitter
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.devices.vubiq import VubiqReceiver
from repro.experiments.blockage import blocker_leg_losses_db, path_snr_db
from repro.geometry.materials import get_material
from repro.geometry.room import Room, conference_room
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.mac.coupling import DeviceCoupling
from repro.mac.frames import DISCOVERY_SUBELEMENTS, FrameKind
from repro.phy.antenna import standard_horn_25dbi
from repro.phy.blockage import path_blockage_loss_db
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer, multipath_gain_db

#: Largest allowed difference (dB) between the receiver and the parent
#: formula: a few ULPs of a ~-60 dBm value.
VUBIQ_TOLERANCE_DB = 1e-12


def _flat(gain_dbi):
    return lambda toward: gain_dbi


class TestKernel:
    def test_free_space_is_the_link_budget(self):
        budget = LinkBudget()
        got = multipath_gain_db(
            Vec2(0, 0), Vec2(3, 4), _flat(7.0), _flat(2.0), budget,
            tx_power_dbm=budget.tx_power_dbm,
        )
        assert got == pytest.approx(budget.received_power_dbm(5.0, 7.0, 2.0), abs=1e-12)

    def test_no_paths_is_none(self):
        assert multipath_gain_db(
            Vec2(0, 0), Vec2(1, 0), _flat(0.0), _flat(0.0), LinkBudget(), []
        ) is None

    def test_tx_power_shifts_every_path(self):
        wall = Segment(Vec2(-5, -1.0), Vec2(8, -1.0), get_material("metal"))
        tracer = RayTracer(Room([wall]), max_order=1)
        paths = tracer.trace(Vec2(0, 0), Vec2(3, 0))
        assert len(paths) == 2
        args = (Vec2(0, 0), Vec2(3, 0), _flat(3.0), _flat(1.0), LinkBudget(), paths)
        base = multipath_gain_db(*args)
        assert multipath_gain_db(*args, tx_power_dbm=12.5) == pytest.approx(
            base + 12.5, abs=1e-12
        )

    def test_extra_losses_apply_per_path(self):
        wall = Segment(Vec2(-5, -1.0), Vec2(8, -1.0), get_material("metal"))
        paths = RayTracer(Room([wall]), max_order=1).trace(Vec2(0, 0), Vec2(3, 0))
        budget = LinkBudget()
        args = (Vec2(0, 0), Vec2(3, 0), _flat(0.0), _flat(0.0), budget, paths)
        # A huge loss on the LOS only leaves the wall bounce.
        got = multipath_gain_db(*args, lambda p: [500.0] if p.is_los else [])
        bounce = multipath_gain_db(*args[:5], [paths[1]])
        assert got == pytest.approx(bounce, abs=1e-9)


class TestCoverageMapPower:
    """A device's transmit power sets the level of its coverage map."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_power_change_shifts_every_cell(self, traced):
        tracer = RayTracer(conference_room(), max_order=1) if traced else None
        dock = make_d5000_dock(position=Vec2(2.0, 2.0), orientation_rad=0.0)
        dock.train_toward(Vec2(5.0, 2.0))
        kwargs = dict(bounds=(0.5, 0.5, 5.5, 3.0), resolution_m=0.5, tracer=tracer)
        _, _, full = coverage_map(dock, LinkBudget(), **kwargs)
        dock.tx_power_dbm -= 10.0
        _, _, low = coverage_map(dock, LinkBudget(), **kwargs)
        finite = np.isfinite(full)
        assert finite.sum() > 10
        np.testing.assert_array_equal(np.isfinite(low), finite)
        np.testing.assert_allclose(low[finite], full[finite] - 10.0, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(low[~finite], full[~finite])


def _parent_vubiq_power(vubiq, device, kind, subelement):
    """The receiver's formula before the fold: every path at the
    budget's transmit power, shifted to the device's afterwards."""
    budget = vubiq.budget
    shift = device.tx_power_for(kind) - budget.tx_power_dbm
    if vubiq.tracer is None:
        tx_gain = device.tx_gain_dbi(vubiq.position, kind, subelement)
        rx_gain = vubiq.antenna.gain_toward(
            (device.position - vubiq.position).angle() - vubiq.boresight_rad
        )
        distance = device.position.distance_to(vubiq.position)
        power = budget.received_power_dbm(distance, tx_gain, rx_gain)
        return power + shift + vubiq.extra_gain_db
    paths = vubiq.tracer.trace(device.position, vubiq.position)
    if not paths:
        return -300.0
    contributions = []
    for path in paths:
        departure = device.position + Vec2.unit(path.departure_angle_rad())
        tx_gain = device.tx_gain_dbi(departure, kind, subelement)
        rx_gain = vubiq.antenna.gain_toward(path.arrival_angle_rad() - vubiq.boresight_rad)
        contributions.append(path.received_power_dbm(budget, tx_gain, rx_gain) + shift)
    return power_sum_db(contributions) + vubiq.extra_gain_db


@pytest.fixture(scope="module")
def transmitters():
    dock = make_d5000_dock(position=Vec2(1.5, 1.5), orientation_rad=0.3)
    dock.train_toward(Vec2(5.0, 3.0))
    wihd = make_air3c_transmitter(position=Vec2(5.5, 1.0), orientation_rad=2.5)
    wihd.train_toward(Vec2(1.0, 2.5))
    return dock, wihd


class TestVubiqOracle:
    FRAMES = (
        [(FrameKind.DATA, None), (FrameKind.BEACON, None)]
        + [(FrameKind.DISCOVERY, i) for i in range(0, DISCOVERY_SUBELEMENTS, 5)]
    )

    @pytest.mark.parametrize("traced", [False, True])
    def test_within_tolerance_of_parent_formula(self, transmitters, traced):
        tracer = RayTracer(conference_room()) if traced else None
        worst = 0.0
        checked = 0
        for device in transmitters:
            for position in (Vec2(3.0, 2.5), Vec2(0.8, 2.9), Vec2(6.2, 0.7)):
                for step in range(8):
                    vubiq = VubiqReceiver(
                        position, boresight_rad=step * math.pi / 4,
                        antenna=standard_horn_25dbi(), tracer=tracer,
                        extra_gain_db=10.0 if step % 2 else 0.0,
                    )
                    for kind, subelement in self.FRAMES:
                        got = vubiq.received_power_dbm(device, kind, subelement)
                        want = _parent_vubiq_power(vubiq, device, kind, subelement)
                        worst = max(worst, abs(got - want))
                        checked += 1
        assert checked == 2 * 3 * 8 * len(self.FRAMES)
        assert worst <= VUBIQ_TOLERANCE_DB

    def test_no_path_keeps_the_floor(self, transmitters):
        dock, _ = transmitters
        wall = Segment(Vec2(2.5, -5), Vec2(2.5, 5), get_material("metal"))
        tracer = RayTracer(Room([wall]), max_order=0)
        vubiq = VubiqReceiver(Vec2(4.0, 1.5), tracer=tracer, extra_gain_db=10.0)
        assert vubiq.received_power_dbm(dock) == -300.0


class TestConsumersAgree:
    def test_blockage_snr_matches_device_coupling(self):
        tracer = RayTracer(conference_room())
        budget = LinkBudget()
        dock = make_d5000_dock(position=Vec2(1.5, 1.5), orientation_rad=0.0)
        laptop = make_e7440_laptop(position=Vec2(4.5, 2.5), orientation_rad=math.pi)
        dock.train_toward(laptop.position)
        laptop.train_toward(dock.position)
        coupling = DeviceCoupling({"dock": dock, "laptop": laptop}, budget, tracer)
        for tx, rx in ((laptop, dock), (dock, laptop)):
            paths = tracer.trace(tx.position, rx.position)
            assert len(paths) > 1
            assert path_snr_db(tx, rx, paths, None, budget) == pytest.approx(
                coupling.snr_db(tx.name, rx.name), abs=1e-9
            )

    def test_blocker_leg_losses(self):
        wall = Segment(Vec2(-2.0, -1.2), Vec2(5.0, -1.2), get_material("metal"))
        paths = RayTracer(Room([wall]), max_order=1).trace(Vec2(0, 0), Vec2(3, 0))
        blocker = Vec2(1.5, 0.0)
        for path in paths:
            legs = list(zip(path.points, path.points[1:]))
            assert blocker_leg_losses_db(blocker, path) == [
                path_blockage_loss_db(blocker, a, b) for a, b in legs
            ]
        los = next(p for p in paths if p.is_los)
        assert blocker_leg_losses_db(blocker, los)[0] > 0.0
