"""The medium's received-power table never serves a stale value.

``Medium`` keeps one ``(tx, rx, wide)`` table of received dBm and mW.
It is valid only until the coupling model is invalidated: mobility
moves and re-trainings call ``DeviceCoupling.invalidate``, and
``StaticCoupling.set`` edits a pair mid-run.  These properties
interleave transmissions and carrier sensing with those changes and
check, after every step, that each table entry equals a freshly
computed ``tx.tx_power_for(kind) + coupling_db`` bit for bit.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dbmath import db_to_linear_scalar
from repro.devices.air3c import make_air3c_transmitter
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.geometry.vec import Vec2
from repro.mac.coupling import DeviceCoupling
from repro.mac.frames import FrameKind, FrameRecord
from repro.mac.simulator import Medium, Simulator, Station, StaticCoupling
from repro.mobility.station import sync_station

NAMES = ("dock", "laptop", "wihd")
KINDS = (FrameKind.DATA, FrameKind.ACK, FrameKind.RTS, FrameKind.BEACON)
#: Device home positions, far enough apart that no move co-locates two.
HOMES = (Vec2(0.0, 0.0), Vec2(3.0, 0.0), Vec2(1.5, 2.5))

frame_op = st.tuples(
    st.just("frame"),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from(KINDS),
    st.floats(min_value=1e-6, max_value=40e-6),
)
sense_op = st.tuples(st.just("sense"), st.integers(0, 2))
advance_op = st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=30e-6))
move_op = st.tuples(
    st.just("move"),
    st.integers(0, 2),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=-0.5, max_value=0.5),
)
retrain_op = st.tuples(st.just("retrain"), st.integers(0, 2), st.integers(0, 2))
set_op = st.tuples(
    st.just("set"),
    st.integers(0, 2),
    st.integers(0, 2),
    st.floats(min_value=-150.0, max_value=-30.0),
)


def assert_table_fresh(medium, fresh_coupling_db):
    """Every entry equals ``tx_power_for + fresh coupling`` exactly."""
    for (tx_name, rx_name, wide), (dbm, mw) in medium._powers.items():
        tx, rx = medium.station(tx_name), medium.station(rx_name)
        kind = FrameKind.BEACON if wide else FrameKind.DATA
        expected = tx.tx_power_for(kind) + fresh_coupling_db(tx, rx, wide)
        assert dbm.hex() == expected.hex(), (tx_name, rx_name, wide)
        assert mw.hex() == db_to_linear_scalar(dbm).hex()


def apply_medium_op(op, sim, medium, stations):
    """Frames, carrier sensing and time steps (shared by both tests)."""
    if op[0] == "frame":
        _, src, dst, kind, duration = op
        destination = "" if kind == FrameKind.BEACON or src == dst else NAMES[dst]
        medium.transmit(FrameRecord(sim.now, duration, NAMES[src], destination, kind))
    elif op[0] == "sense":
        medium.channel_busy_for(stations[op[1]])
    else:
        sim.run_until(sim.now + op[1])


def device_set():
    devices = [
        make_d5000_dock(name="dock", position=HOMES[0], pattern_points=90),
        make_e7440_laptop(
            name="laptop", position=HOMES[1], orientation_rad=math.pi, pattern_points=90
        ),
        make_air3c_transmitter(
            name="wihd", position=HOMES[2], orientation_rad=-math.pi / 2, pattern_points=90
        ),
    ]
    for device in devices:
        device.train_toward(HOMES[1] if device.name == "dock" else HOMES[0])
    return devices


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(frame_op, sense_op, advance_op, move_op, retrain_op), max_size=25))
def test_table_tracks_device_coupling_invalidation(ops):
    devices = device_set()
    by_name = {d.name: d for d in devices}
    sim = Simulator(seed=0)
    coupling = DeviceCoupling(by_name)
    medium = Medium(sim, coupling)
    stations = [d.make_station() for d in devices]
    for station in stations:
        medium.register(station)

    for op in ops:
        if op[0] == "move":
            _, i, dx, dy = op
            devices[i].position = HOMES[i] + Vec2(dx, dy)
            sync_station(devices[i], stations[i])
            coupling.invalidate(NAMES[i])
        elif op[0] == "retrain":
            _, i, peer = op
            if i != peer:
                devices[i].train_toward(devices[peer].position)
                sync_station(devices[i], stations[i])
                coupling.invalidate(NAMES[i], NAMES[peer])
        else:
            apply_medium_op(op, sim, medium, stations)
        # The model caches nothing: its values follow the devices'
        # current poses and beams.
        assert_table_fresh(medium, coupling.coupling_db)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)),
        st.floats(min_value=-150.0, max_value=-30.0),
    ),
    st.lists(st.one_of(frame_op, sense_op, advance_op, set_op), max_size=30),
)
def test_table_tracks_static_coupling_set(table, ops):
    sim = Simulator(seed=0)
    coupling = StaticCoupling(table, default_db=-120.0)
    medium = Medium(sim, coupling)
    stations = [Station(name, home) for name, home in zip(NAMES, HOMES)]
    for station in stations:
        medium.register(station)

    for op in ops:
        if op[0] == "set":
            _, a, b, value = op
            coupling.set(NAMES[a], NAMES[b], value)
        else:
            apply_medium_op(op, sim, medium, stations)
        assert_table_fresh(medium, coupling.coupling_db)


def test_table_is_filled_by_traffic():
    """The properties above check something: traffic fills the table."""
    sim = Simulator(seed=0)
    coupling = StaticCoupling({("dock", "laptop"): -50.0})
    medium = Medium(sim, coupling)
    for name, home in zip(NAMES, HOMES):
        medium.register(Station(name, home))
    medium.transmit(FrameRecord(0.0, 10e-6, "dock", "laptop", FrameKind.DATA))
    medium.transmit(FrameRecord(0.0, 10e-6, "wihd", "", FrameKind.BEACON))
    assert set(medium._powers) == {
        ("dock", "laptop", False),
        ("wihd", "laptop", True),
    }
    # Invalidation is by station name: every entry involving either
    # station of the edited pair goes.
    coupling.set("wihd", "laptop", -60.0)
    assert medium._powers == {}
