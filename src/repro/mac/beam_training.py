"""Sector-level-sweep (SLS) beam training, 802.11ad style.

The paper observes that "a complex association and beamforming process
between dock and remote station takes place" before data flows
(Section 4.1), and that beam selection is revisited during operation
(Figure 14).  This module implements that process rather than assuming
an oracle:

* **ISS** — the initiator transmits one short sector-sweep (SSW) frame
  on each directional codebook entry; the responder listens through a
  quasi-omni pattern and records the SNR of every decodable frame.
* **RSS** — the roles swap; the responder's SSW frames also carry
  feedback naming the best initiator sector.
* **Feedback/ACK** — the initiator reports the best responder sector.

Training is imperfect in the same ways real hardware is: each SNR
measurement carries estimation noise, frames below the control-PHY
sensitivity are simply not received, and quasi-omni listening patterns
have the deep gaps of Figure 16 — so the chosen sector is occasionally
not the truly best one, which is exactly the realignment churn the
paper sees in Figure 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro import obs
from repro.devices.base import RadioDevice
from repro.phy.channel import LinkBudget
from repro.phy.codebook import CodebookEntry
from repro.phy.mcs import CONTROL_MCS
from repro.phy.raytracing import PropagationPath, RayTracer, multipath_gain_db
from repro.geometry.vec import Vec2

#: On-air duration of one SSW frame at the control PHY (~26 bytes at
#: 27.5 mbps plus preamble).
SSW_FRAME_S = 15.0e-6

#: Short beamforming interframe space between SSW frames.
SBIFS_S = 1.0e-6

#: Control-PHY sensitivity: SSW frames below this SNR are not decoded.
SSW_MIN_SNR_DB = CONTROL_MCS.min_snr_db


@dataclass
class SectorMeasurement:
    """One decoded SSW frame during a sweep."""

    sector_index: int
    snr_db: float


@dataclass
class SweepResult:
    """Outcome of one directional sweep (ISS or RSS)."""

    measurements: List[SectorMeasurement] = field(default_factory=list)

    @property
    def heard(self) -> int:
        return len(self.measurements)

    def best(self) -> Optional[SectorMeasurement]:
        if not self.measurements:
            return None
        return max(self.measurements, key=lambda m: m.snr_db)


@dataclass
class TrainingResult:
    """Outcome of a full SLS exchange between two devices."""

    success: bool
    initiator_sector: Optional[int]
    responder_sector: Optional[int]
    initiator_sweep: SweepResult
    responder_sweep: SweepResult
    duration_s: float
    link_snr_db: Optional[float]

    def summary(self) -> str:  # pragma: no cover - cosmetic
        if not self.success:
            return "SLS failed: no sector pair decodable"
        return (
            f"SLS ok: sectors ({self.initiator_sector}, {self.responder_sector}), "
            f"{self.duration_s * 1e3:.2f} ms, link SNR {self.link_snr_db:.1f} dB"
        )


class SectorSweepTrainer:
    """Runs SLS between two devices over a (possibly reflected) channel.

    Args:
        budget: Link budget for SNR computation.
        tracer: Optional ray tracer; with one, training operates on the
            combined multipath channel, so a blocked LOS makes training
            converge onto a reflection — the paper's Figure 5 scenario.
        snr_noise_std_db: Estimation noise per SSW measurement.
        rng: Randomness source.
    """

    def __init__(
        self,
        budget: LinkBudget = LinkBudget(),
        tracer: Optional[RayTracer] = None,
        snr_noise_std_db: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        self.budget = budget
        self.tracer = tracer
        self.snr_noise_std_db = snr_noise_std_db
        self.rng = rng if rng is not None else np.random.default_rng(0)

    # -- channel evaluation ------------------------------------------------

    def _gain_pair_db(
        self,
        tx: RadioDevice,
        tx_entry: CodebookEntry,
        rx: RadioDevice,
        rx_entry: CodebookEntry,
    ) -> float:
        """Coupling (dB) for an explicit TX/RX pattern pair; -300 dB
        when no propagation path exists."""

        def tx_gain(toward: Vec2) -> float:
            return tx_entry.pattern.gain_dbi(
                (toward - tx.position).angle() - tx.orientation_rad
            )

        def rx_gain(toward: Vec2) -> float:
            return rx_entry.pattern.gain_dbi(
                (toward - rx.position).angle() - rx.orientation_rad
            )

        paths = None if self.tracer is None else self.tracer.trace(tx.position, rx.position)
        total = multipath_gain_db(
            tx.position, rx.position, tx_gain, rx_gain,
            self.budget, paths, self._extra_losses_db,
        )
        return -300.0 if total is None else total

    def _extra_losses_db(self, path: PropagationPath) -> Iterable[float]:
        """Per-path losses beyond the path's own walls; none here."""
        return ()

    def _snr_db(
        self,
        tx: RadioDevice,
        tx_entry: CodebookEntry,
        rx: RadioDevice,
        rx_entry: CodebookEntry,
        control: bool,
    ) -> float:
        power = tx.tx_power_dbm + (tx.control_power_boost_db if control else 0.0)
        coupling = self._gain_pair_db(tx, tx_entry, rx, rx_entry)
        return power + coupling - self.budget.noise_floor_dbm()

    # -- the protocol --------------------------------------------------------

    def _sweep(
        self,
        transmitter: RadioDevice,
        listener: RadioDevice,
        listen_entry: CodebookEntry,
    ) -> SweepResult:
        """One directional sweep: TX iterates sectors, RX listens."""
        result = SweepResult()
        with obs.span("mac.beam_training.sweep", transmitter=transmitter.name):
            for entry in transmitter.codebook.directional_entries:
                snr = self._snr_db(transmitter, entry, listener, listen_entry, control=True)
                snr += float(self.rng.normal(0.0, self.snr_noise_std_db))
                if snr >= SSW_MIN_SNR_DB:
                    result.measurements.append(SectorMeasurement(entry.index, snr))
        if obs.STATE.metrics:
            obs.add("mac.beam_training.sweeps")
            obs.add(
                "mac.beam_training.sectors_swept",
                len(transmitter.codebook.directional_entries),
            )
        return result

    def train(self, initiator: RadioDevice, responder: RadioDevice) -> TrainingResult:
        """Run the full SLS and apply the chosen sectors to the devices.

        The responder listens through its first quasi-omni pattern
        during the ISS (and vice versa during the RSS), as the devices
        under test do during discovery.
        """
        with obs.span(
            "mac.beam_training.sls",
            initiator=initiator.name,
            responder=responder.name,
        ):
            return self._train(initiator, responder)

    def _train(self, initiator: RadioDevice, responder: RadioDevice) -> TrainingResult:
        resp_listen = (
            responder.codebook.quasi_omni_entries[0]
            if responder.codebook.quasi_omni_entries
            else responder.active_beam
        )
        init_listen = (
            initiator.codebook.quasi_omni_entries[0]
            if initiator.codebook.quasi_omni_entries
            else initiator.active_beam
        )
        iss = self._sweep(initiator, responder, resp_listen)
        rss = self._sweep(responder, initiator, init_listen)
        sectors_total = len(initiator.codebook.directional_entries) + len(
            responder.codebook.directional_entries
        )
        duration = sectors_total * (SSW_FRAME_S + SBIFS_S) + 2 * SSW_FRAME_S

        best_init = iss.best()
        best_resp = rss.best()
        if best_init is None or best_resp is None:
            return TrainingResult(
                success=False,
                initiator_sector=None,
                responder_sector=None,
                initiator_sweep=iss,
                responder_sweep=rss,
                duration_s=duration,
                link_snr_db=None,
            )
        init_entry = initiator.codebook.entry(best_init.sector_index)
        resp_entry = responder.codebook.entry(best_resp.sector_index)
        initiator.select_beam(init_entry)
        responder.select_beam(resp_entry)
        link_snr = self._snr_db(initiator, init_entry, responder, resp_entry, control=False)
        return TrainingResult(
            success=True,
            initiator_sector=best_init.sector_index,
            responder_sector=best_resp.sector_index,
            initiator_sweep=iss,
            responder_sweep=rss,
            duration_s=duration,
            link_snr_db=link_snr,
        )

    def oracle_snr_db(self, initiator: RadioDevice, responder: RadioDevice) -> float:
        """Best achievable link SNR over all sector pairs (exhaustive).

        The reference SLS is compared against: a real SLS measures each
        side against a quasi-omni listener, so it can miss the jointly
        best pair.  The gap is the SLS suboptimality the tests bound.
        """
        best = -math.inf
        for ie in initiator.codebook.directional_entries:
            for re in responder.codebook.directional_entries:
                best = max(best, self._snr_db(initiator, ie, responder, re, control=False))
        return best
