"""Unit tests for the device-backed coupling model."""

import math

import pytest

from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.geometry.materials import get_material
from repro.geometry.room import Room
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.mac.coupling import DeviceCoupling
from repro.mac.simulator import Medium, Simulator
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer


@pytest.fixture()
def pair():
    dock = make_d5000_dock(position=Vec2(0, 0), orientation_rad=0.0)
    laptop = make_e7440_laptop(position=Vec2(3, 0), orientation_rad=math.pi)
    dock.train_toward(laptop.position)
    laptop.train_toward(dock.position)
    return dock, laptop


def stations_of(*devices):
    return {d.name: d.make_station() for d in devices}


class TestFreeSpaceMode:
    def test_trained_link_has_high_coupling(self, pair):
        dock, laptop = pair
        coupling = DeviceCoupling({d.name: d for d in pair})
        st = stations_of(*pair)
        value = coupling.coupling_db(st["laptop"], st["dock"])
        budget = LinkBudget()
        # Expect roughly tx+rx main-lobe gains minus the path loss.
        expected = 34.0 - budget.propagation_loss_db(3.0) - budget.implementation_loss_db
        assert value == pytest.approx(expected, abs=4.0)

    def test_control_frames_use_wide_patterns(self, pair):
        coupling = DeviceCoupling({d.name: d for d in pair})
        st = stations_of(*pair)
        data = coupling.coupling_db(st["laptop"], st["dock"], control=False)
        ctrl = coupling.coupling_db(st["laptop"], st["dock"], control=True)
        # Quasi-omni patterns have far less gain on the link axis.
        assert ctrl < data - 10.0

    def test_cache_consistency(self, pair):
        coupling = DeviceCoupling({d.name: d for d in pair})
        st = stations_of(*pair)
        a = coupling.coupling_db(st["laptop"], st["dock"])
        b = coupling.coupling_db(st["laptop"], st["dock"])
        assert a == b

    def test_invalidate_after_retrain(self, pair):
        dock, laptop = pair
        coupling = DeviceCoupling({d.name: d for d in pair})
        st = stations_of(*pair)
        before = coupling.coupling_db(st["laptop"], st["dock"])
        # Point the laptop's beam away and invalidate.
        laptop.train_toward(laptop.position + Vec2(0, -5))
        coupling.invalidate()
        after = coupling.coupling_db(st["laptop"], st["dock"])
        assert after < before
        # Restore for other tests using the fixture instance.
        laptop.train_toward(dock.position)

    def test_unknown_station_raises(self, pair):
        coupling = DeviceCoupling({d.name: d for d in pair})
        from repro.mac.simulator import Station

        ghost = Station("ghost", Vec2(1, 1))
        with pytest.raises(KeyError):
            coupling.coupling_db(ghost, stations_of(*pair)["dock"])

    def test_snr_helper_matches_budget(self, pair):
        budget = LinkBudget()
        coupling = DeviceCoupling({d.name: d for d in pair}, budget=budget)
        st = stations_of(*pair)
        snr = coupling.snr_db("laptop", "dock")
        manual = (
            10.0
            + coupling.coupling_db(st["laptop"], st["dock"])
            - budget.noise_floor_dbm()
        )
        assert snr == pytest.approx(manual)


class TestMediumTableInvalidation:
    """The medium's received-power table is the only coupling cache;
    invalidating one pair must not evict unrelated pairs' entries."""

    @pytest.fixture()
    def wired(self):
        devices = {}
        for i in (0, 1):
            dock = make_d5000_dock(
                name=f"dock-{i}", position=Vec2(0, 5.0 * i), unit_seed=i + 1
            )
            laptop = make_e7440_laptop(
                name=f"laptop-{i}",
                position=Vec2(3, 5.0 * i),
                orientation_rad=math.pi,
                unit_seed=i + 70,
            )
            dock.train_toward(laptop.position)
            laptop.train_toward(dock.position)
            devices[dock.name] = dock
            devices[laptop.name] = laptop
        medium = Medium(Simulator(seed=0), DeviceCoupling(devices))
        for device in devices.values():
            medium.register(device.make_station())
        return medium, devices

    @staticmethod
    def fill(medium, *keys):
        for tx, rx, wide in keys:
            medium._received(medium.station(tx), medium.station(rx), wide)

    def test_named_invalidation_keeps_unrelated_pairs(self, wired):
        medium, devices = wired
        self.fill(medium, ("laptop-0", "dock-0", False), ("laptop-1", "dock-1", False))
        pair1_before = medium._powers[("laptop-1", "dock-1", False)]

        # Retrain BOTH laptops away, but only invalidate pair 0: pair 1
        # keeps its (now stale) entry — proof it survived.
        devices["laptop-0"].train_toward(Vec2(3, -50))
        devices["laptop-1"].train_toward(Vec2(3, -50))
        medium.coupling.invalidate("laptop-0", "dock-0")
        assert set(medium._powers) == {("laptop-1", "dock-1", False)}
        self.fill(medium, ("laptop-0", "dock-0", False), ("laptop-1", "dock-1", False))
        pair0_after = medium._powers[("laptop-0", "dock-0", False)]
        assert pair0_after[0] < pair1_before[0] - 10.0
        assert medium._powers[("laptop-1", "dock-1", False)] == pair1_before

    def test_invalidation_drops_both_directions_and_pattern_classes(self, wired):
        medium, _ = wired
        self.fill(
            medium,
            ("laptop-0", "dock-0", False),
            ("dock-0", "laptop-0", False),
            ("laptop-0", "dock-0", True),
            ("dock-0", "laptop-0", True),
            ("laptop-1", "dock-0", False),
            ("laptop-0", "laptop-1", True),
            ("laptop-1", "dock-1", False),
        )
        medium.coupling.invalidate("dock-0")
        assert set(medium._powers) == {
            ("laptop-0", "laptop-1", True),
            ("laptop-1", "dock-1", False),
        }

    def test_invalidate_without_names_clears_the_table(self, wired):
        medium, _ = wired
        self.fill(medium, ("laptop-0", "dock-0", False), ("laptop-1", "dock-1", True))
        medium.coupling.invalidate()
        assert medium._powers == {}


class TestRayTracedMode:
    def test_blocked_path_uses_isolation(self, pair):
        dock, laptop = pair
        wall = Segment(Vec2(1.5, -5), Vec2(1.5, 5), get_material("metal"))
        room = Room([wall])
        tracer = RayTracer(room, max_order=0)
        coupling = DeviceCoupling({d.name: d for d in pair}, tracer=tracer)
        st = stations_of(*pair)
        assert coupling.coupling_db(st["laptop"], st["dock"]) == -200.0

    def test_reflection_adds_to_los(self, pair):
        # A metal wall parallel to the link: LOS + one bounce.
        wall = Segment(Vec2(-5, -1.0), Vec2(8, -1.0), get_material("metal"))
        room = Room([wall])
        with_wall = DeviceCoupling(
            {d.name: d for d in pair}, tracer=RayTracer(room, max_order=1)
        )
        los_only = DeviceCoupling(
            {d.name: d for d in pair}, tracer=RayTracer(room, max_order=0)
        )
        st = stations_of(*pair)
        assert with_wall.coupling_db(st["laptop"], st["dock"]) >= los_only.coupling_db(
            st["laptop"], st["dock"]
        )

    def test_matches_free_space_when_no_walls_matter(self, pair):
        # A tiny, far-away wall: ray-traced result equals free space.
        wall = Segment(Vec2(100, 100), Vec2(101, 100), get_material("metal"))
        room = Room([wall])
        traced = DeviceCoupling({d.name: d for d in pair}, tracer=RayTracer(room, max_order=2))
        free = DeviceCoupling({d.name: d for d in pair})
        st = stations_of(*pair)
        assert traced.coupling_db(st["laptop"], st["dock"]) == pytest.approx(
            free.coupling_db(st["laptop"], st["dock"]), abs=0.1
        )
