"""MobileStation: a moving device on the DES clock, with re-training.

The MAC simulator's :class:`~repro.mac.simulator.Station` snapshots a
device's pose and trained beam; nothing in the seed-era code ever moved
one.  :class:`MobileStation` closes that gap: between MAC events it

1. advances the device along a :class:`~repro.mobility.trajectory.Trajectory`,
2. mirrors the new pose into the registered :class:`Station` and
   invalidates the coupling for that device (so the medium's
   received-power table judges the very next frame against the new
   geometry), and
3. decides whether the beams are stale — periodically, when the SNR
   has dropped a threshold below its value at the last training, or
   when the pointing error exceeds a beamwidth-scaled misalignment
   bound (arXiv 1611.07867's regime: the faster the client, the more
   often a fixed-beamwidth beam must be re-steered).

Re-training runs through the existing
:class:`~repro.mac.beam_training.SectorSweepTrainer` — the same
imperfect SLS the association machinery uses — and its airtime is
**charged to the medium** as real SSW frames: an ISS-long broadcast
from the AP followed by an RSS-long broadcast from the client.  CSMA
peers defer to those frames, and a data frame already in flight takes
the collision, so sweep cost is paid in the currency the paper
measures: medium time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.devices.base import RadioDevice
from repro.geometry.vec import angle_between
from repro.mac.beam_training import (
    SBIFS_S,
    SSW_FRAME_S,
    SectorSweepTrainer,
    TrainingResult,
)
from repro.mac.frames import FrameKind, FrameRecord
from repro.mac.simulator import Medium, Simulator, Station
from repro.mobility.trajectory import Trajectory

#: Fixed buckets for the re-training airtime histogram, in milliseconds
#: of sweep airtime per second of motion.  Fixed bounds keep per-worker
#: histogram merges deterministic (see repro.obs.metrics).
RETRAIN_AIRTIME_BUCKETS_MS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Counter names per re-training trigger (periodic cadence, SNR drop,
#: pointing error, post-failure recovery, AP handover).
_RETRAIN_COUNTERS = {
    "periodic": "mobility.retrain.periodic",
    "snr_drop": "mobility.retrain.snr_drop",
    "misaligned": "mobility.retrain.misaligned",
    "recovery": "mobility.retrain.recovery",
    "handover": "mobility.retrain.handover",
}


@dataclass(frozen=True)
class RetrainConfig:
    """When a mobile link re-trains its beams.

    Attributes:
        periodic_interval_s: Re-train on this cadence regardless of
            link quality (``None`` disables the periodic trigger).
        snr_drop_db: Re-train when the current SNR falls this far
            below the SNR measured at the last successful training
            (``None`` disables the trigger).
        misalignment_rad: Re-train when the pointing error — the angle
            between the peer's current bearing and its bearing at the
            last training, both in the device's frame — exceeds this
            bound.  Scale it with beamwidth: a narrow beam tolerates
            less error (``None`` disables the trigger).
        min_gap_s: Refractory period between trainings, so one bad
            tick cannot trigger back-to-back sweeps.
        retry_backoff_s: Re-attempt cadence while the link is down
            (the previous sweep heard zero sectors).
    """

    periodic_interval_s: Optional[float] = None
    snr_drop_db: Optional[float] = 8.0
    misalignment_rad: Optional[float] = math.radians(6.0)
    min_gap_s: float = 2e-3
    retry_backoff_s: float = 50e-3

    def __post_init__(self) -> None:
        if self.min_gap_s < 0 or self.retry_backoff_s <= 0:
            raise ValueError("invalid re-train timing bounds")


@dataclass
class MobilityStats:
    """Counters a :class:`MobileStation` accumulates."""

    position_updates: int = 0
    retrains_periodic: int = 0
    retrains_snr: int = 0
    retrains_misaligned: int = 0
    retrains_recovery: int = 0
    retrains_handover: int = 0
    retrains_failed: int = 0
    retrain_airtime_s: float = 0.0
    distance_travelled_m: float = 0.0

    @property
    def retrains_total(self) -> int:  # replint: unit=none
        return (
            self.retrains_periodic
            + self.retrains_snr
            + self.retrains_misaligned
            + self.retrains_recovery
            + self.retrains_handover
        )


def sync_station(device: RadioDevice, station: Station) -> None:
    """Mirror a device's pose and trained beam into its MAC station.

    ``RadioDevice.make_station`` snapshots; a mobile device's station
    must be re-synced after every move and every re-training.
    """
    station.position = device.position
    station.orientation_rad = device.orientation_rad
    station.data_pattern = device.active_beam.pattern


class MobileStation:
    """Drives one mobile device through the simulation.

    Args:
        sim: Event loop (position updates are ordinary DES events).
        medium: Shared channel; sweep airtime is transmitted on it.
        coupling: The coupling model, invalidated per move/retrain
            (anything with an ``invalidate(*names)`` method).
        device: The moving :class:`RadioDevice`.
        station: The device's registered MAC station.
        trajectory: Position source, sampled at ``sim.now - start``.
        peer_device / peer_station: The serving AP's device and station.
        trainer: SLS trainer used for re-training (seeded by caller).
        update_interval_s: Position sampling period.
        config: Re-training triggers.
        orient_along_heading: Rotate the device with its direction of
            travel (a handheld); when False the mount orientation is
            fixed (a vehicle-mounted array facing the roadside).
        mount_offset_rad: Extra rotation applied on top of the heading
            when ``orient_along_heading`` is set.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        coupling,
        device: RadioDevice,
        station: Station,
        trajectory: Trajectory,
        peer_device: RadioDevice,
        peer_station: Station,
        trainer: SectorSweepTrainer,
        update_interval_s: float = 5e-3,
        config: RetrainConfig = RetrainConfig(),
        orient_along_heading: bool = False,
        mount_offset_rad: float = 0.0,
    ):
        if update_interval_s <= 0:
            raise ValueError("update interval must be positive")
        self.sim = sim
        self.medium = medium
        self.coupling = coupling
        self.device = device
        self.station = station
        self.trajectory = trajectory
        self.peer_device = peer_device
        self.peer_station = peer_station
        self.trainer = trainer
        self.update_interval_s = update_interval_s
        self.config = config
        self.orient_along_heading = orient_along_heading
        self.mount_offset_rad = mount_offset_rad
        self.stats = MobilityStats()
        self._started = False
        self._running = False
        self._start_time_s = 0.0
        self._last_train_s = -math.inf
        self._snr_at_train_db: Optional[float] = None
        self._bearing_at_train_rad: Optional[float] = None
        self._link_up = False
        # 1 s histogram windows of sweep airtime per second of motion.
        self._window_index = 0
        self._window_airtime_s = 0.0

    # -- public state ---------------------------------------------------------

    @property
    def link_up(self) -> bool:
        """Whether the last sector sweep produced a usable beam pair."""
        return self._link_up

    @property
    def snr_at_train_db(self) -> Optional[float]:
        """Link SNR measured at the last successful training."""
        return self._snr_at_train_db

    def current_snr_db(self) -> float:
        """Instantaneous data-beam SNR toward the serving peer."""
        return self.coupling.snr_db(self.device.name, self.peer_device.name)

    def motion_elapsed_s(self) -> float:
        """Seconds of motion since :meth:`start`."""
        return self.sim.now - self._start_time_s

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> TrainingResult:
        """Place the device at t=0, run the initial training, and begin
        sampling the trajectory.  Returns the initial training result.
        """
        if self._started:
            raise RuntimeError("MobileStation already started")
        self._started = True
        self._running = True
        self._start_time_s = self.sim.now
        self._apply_position(0.0)
        training = self._train("recovery", charge_airtime=False, count=False)
        self.sim.schedule(self.update_interval_s, self._tick)
        return training

    def stop(self) -> None:
        """Stop sampling (the trajectory also stops itself at its end)."""
        self._running = False

    # -- motion ---------------------------------------------------------------

    def _apply_position(self, t_rel_s: float) -> None:
        new_pos = self.trajectory.position(t_rel_s)
        self.stats.distance_travelled_m += self.device.position.distance_to(new_pos)
        self.device.position = new_pos
        if self.orient_along_heading:
            self.device.orientation_rad = (
                self.trajectory.heading_rad(t_rel_s) + self.mount_offset_rad
            )
        sync_station(self.device, self.station)
        self.coupling.invalidate(self.device.name)
        self.stats.position_updates += 1
        if obs.STATE.metrics:
            obs.add("mobility.position_updates")

    def _roll_airtime_window(self, t_rel_s: float) -> None:
        """Close completed 1 s motion windows into the obs histogram."""
        while t_rel_s >= (self._window_index + 1) * 1.0:
            if obs.STATE.metrics:
                obs.observe(
                    "mobility.retrain.airtime_ms_per_s",
                    self._window_airtime_s * 1e3,
                    buckets=RETRAIN_AIRTIME_BUCKETS_MS,
                )
            self._window_airtime_s = 0.0
            self._window_index += 1

    def _tick(self) -> None:
        if not self._running:
            return
        t_rel = self.motion_elapsed_s()
        self._apply_position(t_rel)
        self._roll_airtime_window(t_rel)
        reason = self._retrain_reason()
        if reason is not None:
            self._train(reason)
        if t_rel < self.trajectory.duration_s:
            self.sim.schedule(self.update_interval_s, self._tick)
        else:
            self._running = False

    # -- re-training ----------------------------------------------------------

    def _retrain_reason(self) -> Optional[str]:
        cfg = self.config
        since_train = self.sim.now - self._last_train_s
        if since_train < cfg.min_gap_s:
            return None
        if not self._link_up:
            return "recovery" if since_train >= cfg.retry_backoff_s else None
        if (
            cfg.periodic_interval_s is not None
            and since_train >= cfg.periodic_interval_s
        ):
            return "periodic"
        if cfg.snr_drop_db is not None and self._snr_at_train_db is not None:
            if self.current_snr_db() < self._snr_at_train_db - cfg.snr_drop_db:
                return "snr_drop"
        if cfg.misalignment_rad is not None and self._bearing_at_train_rad is not None:
            error = angle_between(
                self.device.bearing_to(self.peer_device.position),
                self._bearing_at_train_rad,
            )
            if error > cfg.misalignment_rad:
                return "misaligned"
        return None

    def _charge_sweep_airtime(self) -> None:
        """Put the SLS on the air: ISS from the AP, then the RSS."""
        iss_s = len(self.peer_device.codebook.directional_entries) * (
            SSW_FRAME_S + SBIFS_S
        )
        rss_s = (
            len(self.device.codebook.directional_entries) * (SSW_FRAME_S + SBIFS_S)
            + 2 * SSW_FRAME_S
        )
        self.medium.transmit(
            FrameRecord(
                start_s=self.sim.now,
                duration_s=iss_s,
                source=self.peer_station.name,
                destination="",
                kind=FrameKind.SSW,
            )
        )
        self.sim.schedule(
            iss_s,
            lambda: self.medium.transmit(
                FrameRecord(
                    start_s=self.sim.now,
                    duration_s=rss_s,
                    source=self.station.name,
                    destination="",
                    kind=FrameKind.SSW,
                )
            ),
        )

    def _train(
        self, reason: str, charge_airtime: bool = True, count: bool = True
    ) -> TrainingResult:
        with obs.span("mobility.retrain", device=self.device.name, reason=reason):
            training = self.trainer.train(self.peer_device, self.device)
        self._last_train_s = self.sim.now
        if charge_airtime:
            self._charge_sweep_airtime()
            self.stats.retrain_airtime_s += training.duration_s
            self._window_airtime_s += training.duration_s
        if count:
            field = {
                "periodic": "retrains_periodic",
                "snr_drop": "retrains_snr",
                "misaligned": "retrains_misaligned",
                "recovery": "retrains_recovery",
                "handover": "retrains_handover",
            }[reason]
            setattr(self.stats, field, getattr(self.stats, field) + 1)
            if obs.STATE.metrics:
                obs.add(_RETRAIN_COUNTERS[reason])
        if training.success:
            self._link_up = True
            self._snr_at_train_db = training.link_snr_db
            self._bearing_at_train_rad = self.device.bearing_to(
                self.peer_device.position
            )
            sync_station(self.device, self.station)
            sync_station(self.peer_device, self.peer_station)
            self.coupling.invalidate(self.device.name, self.peer_device.name)
        else:
            self._link_up = False
            self._snr_at_train_db = None
            self._bearing_at_train_rad = None
            self.stats.retrains_failed += 1
            if obs.STATE.metrics:
                obs.add("mobility.retrain.failed")
        return training

    def force_retrain(self, reason: str = "periodic") -> TrainingResult:
        """Re-train right now, bypassing the trigger logic.

        The sweep is charged and counted like any trigger-driven
        re-training; ``reason`` picks which counter it lands in.
        """
        if reason not in _RETRAIN_COUNTERS:
            raise ValueError(
                f"unknown re-train reason {reason!r} "
                f"(choose from {', '.join(sorted(_RETRAIN_COUNTERS))})"
            )
        return self._train(reason)

    # -- handover support ------------------------------------------------------

    def set_peer(
        self,
        peer_device: RadioDevice,
        peer_station: Station,
        trainer: Optional[SectorSweepTrainer] = None,
    ) -> TrainingResult:
        """Switch the serving AP and re-train with it immediately.

        Used by the handover policies; the sweep with the *new* AP is
        charged to the medium like any other re-training.
        """
        self.peer_device = peer_device
        self.peer_station = peer_station
        if trainer is not None:
            self.trainer = trainer
        return self._train("handover")


__all__ = [
    "RETRAIN_AIRTIME_BUCKETS_MS",
    "MobileStation",
    "MobilityStats",
    "RetrainConfig",
    "sync_station",
]
