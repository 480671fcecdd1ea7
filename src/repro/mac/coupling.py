"""Coupling models that connect the MAC simulator to the PHY substrate.

:class:`DeviceCoupling` computes station-to-station path gains from the
actual :class:`~repro.devices.base.RadioDevice` models — their trained
beams, control patterns, and positions — optionally through a
:class:`~repro.phy.raytracing.RayTracer` so that blockage and wall
reflections shape the MAC-level interference, as in the reflection-
interference experiment (Figure 7/23).

The sum of a transmit pattern and a receive pattern over the LOS and
reflected paths is :func:`repro.phy.raytracing.multipath_gain_db`, the
one received-power kernel; this model, both beam trainers, the Vubiq
receiver, the coverage map and the blockage SNR all call it.

:class:`DeviceCoupling` caches nothing: every lookup reads the
devices' current state.  The received-power table of each
:class:`~repro.mac.simulator.Medium` built on the model is the only
cache, and :meth:`DeviceCoupling.invalidate` exists to refresh it
(see the :class:`~repro.mac.simulator.CouplingModel` contract).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.devices.base import RadioDevice
from repro.mac.frames import FrameKind
from repro.mac.simulator import CouplingModel, Station
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer, multipath_gain_db


class DeviceCoupling(CouplingModel):
    """Path gain between stations backed by full device models.

    Args:
        devices: Station-name -> device map.  Every station that will
            transmit or receive must be present.
        budget: Link-budget parameters (implementation loss etc.).
        tracer: Optional ray tracer.  Without one, free space with the
            devices' patterns is used.  With one, all LOS/reflected
            paths contribute and blockage penetration losses apply.
        isolation_db: Coupling assigned when no propagation path exists
            at all (e.g. fully shielded); traced values never fall
            below it.

    Every lookup is computed from the devices' current state.  Media
    cache the results, so code that moves a device, re-trains its beam
    or changes its power or patterns mid-run must call
    :meth:`invalidate` with the device names (mobility and association
    already do).
    """

    def __init__(
        self,
        devices: Mapping[str, RadioDevice],
        budget: LinkBudget = LinkBudget(),
        tracer: Optional[RayTracer] = None,
        isolation_db: float = -200.0,
    ):
        super().__init__()
        self._devices = dict(devices)
        self._budget = budget
        self._tracer = tracer
        self._isolation = isolation_db

    def invalidate(self, *device_names: str) -> None:
        """Refresh the media after moving or retraining devices.

        With device names, subscribed media drop only the received
        powers involving those devices — unrelated pairs keep theirs.
        With no arguments every entry is dropped, which is what
        scenario-wide changes (an outage flag, a budget swap) need.
        """
        # Defined here, not only inherited, so that per-class wrappers
        # (perfbench/layers.py counts invalidations) find it.
        super().invalidate(*device_names)

    def _compute(self, tx_dev: RadioDevice, rx_dev: RadioDevice, control: bool) -> float:
        tracer = self._tracer
        if tracer is None and tx_dev.position.distance_to(rx_dev.position) <= 0:
            raise ValueError("devices are co-located")
        kind = FrameKind.BEACON if control else FrameKind.DATA
        paths = None if tracer is None else tracer.trace(tx_dev.position, rx_dev.position)
        total = multipath_gain_db(
            tx_dev.position, rx_dev.position,
            lambda toward: tx_dev.tx_gain_dbi(toward, kind),
            lambda toward: rx_dev.tx_gain_dbi(toward, kind),
            self._budget, paths,
        )
        if tracer is None or (total is not None and total > self._isolation):
            return total
        return self._isolation

    def coupling_db(self, tx: Station, rx: Station, control: bool = False) -> float:
        """CouplingModel interface used by the medium."""
        try:
            tx_dev = self._devices[tx.name]
            rx_dev = self._devices[rx.name]
        except KeyError as exc:
            raise KeyError(f"no device model registered for station {exc}") from None
        return self._compute(tx_dev, rx_dev, control)

    def snr_db(self, tx_name: str, rx_name: str, control: bool = False) -> float:
        """Convenience: SNR of a (tx, rx) pair under this coupling."""
        tx_dev = self._devices[tx_name]
        rx_dev = self._devices[rx_name]
        power = tx_dev.tx_power_for(FrameKind.BEACON if control else FrameKind.DATA)
        coupling = self._compute(tx_dev, rx_dev, control)
        return power + coupling - self._budget.noise_floor_dbm()
