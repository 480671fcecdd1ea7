"""History-digest contract: refactors of the frame path keep every
simulated statistic byte-identical.

Each test runs one short paper scenario and pins a sha256 over every
``Medium.history`` tuple plus the scenario's result row.  A change that
is only meant to be faster must leave these digests alone; a change to
the physics updates them on purpose and says so in EXPERIMENTS.md.
"""

import hashlib

from repro.experiments.frame_level import run_wigig_tcp
from repro.experiments.interference import (
    build_interference_scenario,
    measure_interference_point,
)

#: Fig 22: rotated dock, WiHD at 0 m, 5 ms warm-up + 15 ms measured.
FIG22_DIGEST = "8ae0d6f944ee6b9f1f3510188f18172f19b7a529c1297a51da891631c5193aa1"
#: Fig 9: the 128 KB window point, 5 ms warm-up + 20 ms measured.
FIG09_DIGEST = "788e47bfde81a246b26b1e8f503270f600c2c7dba853c399dae31061f13e5786"


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
