"""Brute-force worst-SINR oracle for the medium's interference model.

The simulator's stated model: powers of concurrent transmitters add
linearly at a receiver, and a frame is judged by the worst SINR over
its airtime.  The oracle replays ``Medium.history``: it cuts a frame's
airtime at every start and end of an overlapping interferer, sums the
interferers' received mW on each piece, and takes the worst piece.

``Medium`` keeps the strongest single interferer instead of the sum
(ROADMAP item 2), so the two agree only while at most one interferer
overlaps a frame.  The strict xfail below pins the known defect; the
change that sums interference flips it.  Under either model, adding an
interferer can only lower a frame's SINR.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dbmath import db_to_linear_scalar, linear_to_db_scalar
from repro.geometry.vec import Vec2
from repro.mac.frames import FrameKind, FrameRecord
from repro.mac.simulator import Medium, Simulator, Station, StaticCoupling

US = 1e-6


def received_mw(medium, record, rx):
    tx = medium.station(record.source)
    wide = record.kind.uses_wide_pattern()
    dbm = tx.tx_power_for(record.kind) + medium.coupling.coupling_db(tx, rx, wide)
    return db_to_linear_scalar(dbm)


def interferers(medium, frame):
    """History frames on the air with ``frame`` that reach its receiver."""
    rx = medium.station(frame.destination)
    return [
        other for other in medium.history
        if other is not frame
        and other.start_s < frame.end_s and other.end_s > frame.start_s
        and other.source not in (frame.source, frame.destination)
        and medium.station(other.source).channel == rx.channel
    ]


def oracle_worst_sinr_db(medium, frame):
    """Worst SINR of a unicast frame over piecewise-constant intervals."""
    tx, rx = medium.station(frame.source), medium.station(frame.destination)
    signal_dbm = tx.tx_power_for(frame.kind) + medium.coupling.coupling_db(
        tx, rx, frame.kind.uses_wide_pattern()
    )
    others = [(o, received_mw(medium, o, rx)) for o in interferers(medium, frame)]
    cuts = {frame.start_s, frame.end_s}
    for other, _ in others:
        cuts.update(t for t in (other.start_s, other.end_s) if frame.start_s < t < frame.end_s)
    cuts = sorted(cuts)
    worst_mw = 0.0
    for t0, t1 in zip(cuts, cuts[1:]):
        total = sum(mw for o, mw in others if o.start_s < t1 and o.end_s > t0)
        worst_mw = max(worst_mw, total)
    noise_mw = db_to_linear_scalar(medium.budget.noise_floor_dbm())
    return signal_dbm - linear_to_db_scalar(noise_mw + worst_mw)


def spy_sinrs(medium):
    """Record the worst SINR the medium judges each unicast frame by,
    keyed by ``id(record)``."""
    seen = {}
    evaluate = medium._evaluate_delivery
    noise_mw = db_to_linear_scalar(medium.budget.noise_floor_dbm())

    def spy(act):
        if act.signal_dbm is not None:
            seen[id(act.record)] = act.signal_dbm - linear_to_db_scalar(
                noise_mw + act.max_interference_mw
            )
        return evaluate(act)

    medium._evaluate_delivery = spy
    return seen


def build(names, table):
    sim = Simulator(seed=0)
    medium = Medium(sim, StaticCoupling(table, default_db=-130.0))
    for i, name in enumerate(names):
        medium.register(Station(name, Vec2(float(i), 0.0)))
    return sim, medium


def play(sim, medium, frames):
    for frame in frames:
        sim.schedule_at(frame.start_s, lambda f=frame: medium.transmit(f))
    sim.run_until(max(f.end_s for f in frames) + US)


# Victim frames a -> b start and end on whole microseconds; interferer
# frames start on half microseconds, so no boundary of an interferer
# ever coincides with a victim boundary (the oracle's open intervals
# and the medium's event order then agree on what overlaps).
victim = st.tuples(st.integers(0, 200), st.integers(1, 30))
interferer = st.tuples(
    st.sampled_from(("c", "d", "e")),
    st.sampled_from(("", "c", "d", "e")),
    st.integers(0, 200),
    st.integers(1, 30),
)


gains = st.lists(st.floats(min_value=-110.0, max_value=-40.0), min_size=4, max_size=4)
NAMES = ("a", "b", "c", "d", "e")


def scenario(victims, others, gains):
    """A medium plus victim frames a -> b (first) and interferer frames."""
    table = {("a", "b"): gains[0], ("c", "b"): gains[1], ("d", "b"): gains[2],
             ("e", "b"): gains[3]}
    sim, medium = build(NAMES, table)
    frames = [
        FrameRecord(start * US, length * US, "a", "b", FrameKind.DATA, mcs_index=4)
        for start, length in victims
    ]
    for src, dst, start, length in others:
        dst = "" if dst == src else dst
        kind = FrameKind.BEACON if dst == "" else FrameKind.DATA
        frames.append(FrameRecord((start + 0.5) * US, length * US, src, dst, kind))
    return sim, medium, frames


@settings(max_examples=60, deadline=None)
@given(st.lists(victim, min_size=1, max_size=8), st.lists(interferer, max_size=10), gains)
def test_oracle_matches_medium_with_one_interferer(victims, others, gains):
    sim, medium, frames = scenario(victims, others, gains)
    seen = spy_sinrs(medium)
    play(sim, medium, frames)
    for frame in frames[: len(victims)]:
        if len(interferers(medium, frame)) <= 1:
            assert seen[id(frame)] == oracle_worst_sinr_db(medium, frame)


#: An interferer placed inside one victim's airtime: (source,
#: destination, victim index, start offset, length), all in whole us.
extra_interferer = st.tuples(
    st.sampled_from(("c", "d", "e")),
    st.sampled_from(("", "c", "d", "e")),
    st.integers(0, 7),
    st.integers(0, 29),
    st.integers(1, 30),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(victim, min_size=1, max_size=8),
    st.lists(interferer, max_size=10),
    extra_interferer,
    gains,
)
def test_adding_an_interferer_never_raises_sinr(victims, others, extra, gains):
    # Holds whether concurrent interferers combine by max or by sum.
    def victim_sinrs(interferer_frames):
        sim, medium, frames = scenario(victims, interferer_frames, gains)
        seen = spy_sinrs(medium)
        play(sim, medium, frames)
        return [seen[id(frame)] for frame in frames[: len(victims)]]

    src, dst, index, offset, length = extra
    start, victim_length = victims[index % len(victims)]
    hit = (src, dst, start + offset % victim_length, length)
    before = victim_sinrs(others)
    after = victim_sinrs(others + [hit])
    assert all(a <= b for a, b in zip(after, before))


def test_oracle_matches_medium_on_a_single_collision():
    sim, medium = build(("a", "b", "c"), {("a", "b"): -50.0, ("c", "b"): -70.0})
    medium_sinrs = spy_sinrs(medium)
    frame = FrameRecord(0.0, 20 * US, "a", "b", FrameKind.DATA, mcs_index=4)
    hit = FrameRecord(5.5 * US, 4 * US, "c", "", FrameKind.BEACON)
    play(sim, medium, [frame, hit])
    assert interferers(medium, frame) == [hit]
    assert medium_sinrs[id(frame)] == oracle_worst_sinr_db(medium, frame)
    clean_db = 10.0 - 50.0 - medium.budget.noise_floor_dbm()
    assert medium_sinrs[id(frame)] < clean_db - 1.0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: Medium keeps the strongest concurrent interferer "
    "(max), not the linear sum of concurrent interferers its model states",
)
@pytest.mark.parametrize("k", [2, 4, 8])
def test_k_equal_interferers_add_10log10k(k):
    names = ("a", "b") + tuple(f"i{n}" for n in range(k))
    table = {("a", "b"): -45.0}
    table.update({(name, "b"): -75.0 for name in names[2:]})
    sim, medium = build(names, table)
    medium_sinrs = spy_sinrs(medium)
    frame = FrameRecord(0.0, 20 * US, "a", "b", FrameKind.DATA, mcs_index=4)
    burst = [FrameRecord(5.5 * US, 9 * US, name, "", FrameKind.RTS) for name in names[2:]]
    play(sim, medium, [frame] + burst)

    # k equal interferers carry 10*log10(k) dB more power than one.
    one_mw = received_mw(medium, burst[0], medium.station("b"))
    noise_mw = db_to_linear_scalar(medium.budget.noise_floor_dbm())
    expected_db = 10.0 - 45.0 - linear_to_db_scalar(noise_mw + k * one_mw)
    assert oracle_worst_sinr_db(medium, frame) == pytest.approx(expected_db)
    assert medium_sinrs[id(frame)] == pytest.approx(expected_db)
