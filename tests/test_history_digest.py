"""History-digest contract: refactors of the frame path keep every
simulated statistic byte-identical.

Each test runs one short paper scenario and pins a sha256 over every
``Medium.history`` tuple plus the scenario's result row.  A change that
is only meant to be faster must leave these digests alone; a change to
the physics updates them on purpose and says so in EXPERIMENTS.md.
"""

import hashlib

from repro.experiments.blockage import run_blockage_crossing
from repro.experiments.frame_level import run_wigig_tcp
from repro.experiments.interference import (
    build_interference_scenario,
    measure_interference_point,
)
from repro.experiments.mobility import vehicular_cell
from repro.experiments.reflection_interference import (
    interference_path_report,
    run_reflection_interference,
)

#: Fig 22: rotated dock, WiHD at 0 m, 5 ms warm-up + 15 ms measured.
FIG22_DIGEST = "8ae0d6f944ee6b9f1f3510188f18172f19b7a529c1297a51da891631c5193aa1"
#: Fig 9: the 128 KB window point, 5 ms warm-up + 20 ms measured.
FIG09_DIGEST = "788e47bfde81a246b26b1e8f503270f600c2c7dba853c399dae31061f13e5786"
#: Fig 23: 60 ms of the reflector run, WiHD off at 40 ms.
REFLECTION_DIGEST = "b928883e06355949d194903e02eb0d2d9df0f8a40510a812a1fe98255c20c841"
#: Fig 5 blockage crossing with SLS fail-over and the rescue wall.
BLOCKAGE_DIGEST = "c2f5b45ad2c06e160737f2becb876b762a483e8d9d53b5d838021c9f5fa85586"
#: One 110 km/h drive-by cell, 3 m approach.
VEHICULAR_DIGEST = "8ca64e3a39a8c09ba5c30c951eed83d49c17f5e9ba0ddbd2afe8d07ffd3e85af"


def history_digest(medium, row) -> str:
    digest = hashlib.sha256()
    for r in medium.history:
        fields = (
            r.start_s, r.duration_s, r.source, r.destination, r.kind.value,
            r.mcs_index, r.payload_bits, r.aggregated_mpdus, r.delivered,
            r.retransmission, r.nav_duration_s,
        )
        digest.update(repr(fields).encode())
    digest.update(repr(row).encode())
    return digest.hexdigest()


def fig22_cell():
    scenario = build_interference_scenario(wihd_offset_m=0.0, rotated=True, seed=10)
    point = measure_interference_point(scenario, 0.0, duration_s=0.015, warmup_s=0.005)
    row = (
        point.utilization, point.link_rate_bps, point.retransmissions,
        point.transfer_time_s, scenario.sim.events_processed,
    )
    return scenario.medium, row


def fig09_point():
    setup = run_wigig_tcp(
        window_bytes=128 * 1024, duration_s=0.02, warmup_s=0.005, seed=1
    )
    row = (
        setup.flow.throughput_bps(), setup.link.stats.mpdus_delivered,
        setup.sim.events_processed,
    )
    return setup.medium, row


def test_fig22_history_digest():
    medium, row = fig22_cell()
    assert len(medium.history) > 1000
    assert history_digest(medium, row) == FIG22_DIGEST


def test_fig09_history_digest():
    medium, row = fig09_point()
    assert len(medium.history) > 1000
    assert history_digest(medium, row) == FIG09_DIGEST


def row_digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def test_reflection_interference_digest():
    # Ray-traced DeviceCoupling through the DES (Fig 23), plus the
    # diagnostic couplings of the Fig 7 geometry.
    result = run_reflection_interference(duration_s=0.06, wihd_off_at_s=0.04)
    report = interference_path_report()
    digest = row_digest(
        result.times_s.tolist(), result.throughput_bps.tolist(),
        result.mean_with_interference_bps, result.mean_without_interference_bps,
        sorted(report.items()),
    )
    assert digest == REFLECTION_DIGEST


def test_blocked_trainer_digest():
    # SLS over a frozen blocker (Fig 5 fail-over): one retrain.
    result = run_blockage_crossing(failover=True, with_wall=True)
    assert result.retrain_count == 1
    rows = [
        (s.time_s, s.snr_db, s.phy_rate_bps, s.retrained, s.beam_index)
        for s in result.samples
    ]
    assert row_digest(rows, result.retrain_count) == BLOCKAGE_DIGEST


def test_vehicular_cell_digest():
    # Trainer plus a coupling invalidation on every move.
    row = vehicular_cell(speed_kmh=110, seed=0, approach_m=3)
    assert row["retrains"] > 0
    assert row_digest(sorted(row.items())) == VEHICULAR_DIGEST
