"""Beam codebooks: predefined steering entries and discovery sweeps.

Millimeter-wave systems steer beams by selecting entries from a
codebook of precomputed antenna weights rather than by continuous
adaptation (Section 2, "Beam Steering").  A :class:`Codebook` bundles:

* a set of *directional* entries covering the serviceable sector
  (the D5000 services a nominal 120-degree cone), and
* a set of *quasi-omni* entries swept during device discovery
  (the D5000 sweeps 32 of them, Section 4.2).

Entries cache their computed :class:`~repro.phy.antenna.AntennaPattern`
so repeated link-budget evaluations during a simulation stay cheap.
Directional patterns are synthesised when the codebook is built (beam
training scores every one of them); a quasi-omni pattern is synthesised
on first access of its entry's :attr:`CodebookEntry.pattern`, because
most runs only ever read entry 0 (the control pattern).  Synthesis is a
pure function of the array and the entry's seed, so a lazy pattern is
identical to an eager one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.antenna import AntennaPattern, PhasedArray


@dataclass
class CodebookEntry:
    """One selectable beam: an identifier, its intent, and its pattern.

    ``synthesize`` computes the pattern; it runs on the first access of
    :attr:`pattern` and its result is kept.
    """

    index: int
    kind: str  # "directional" or "quasi_omni"
    steering_azimuth_rad: Optional[float]
    synthesize: Callable[[], AntennaPattern] = field(repr=False)

    @functools.cached_property
    def pattern(self) -> AntennaPattern:
        return self.synthesize()

    def peak_direction_rad(self) -> float:
        """Azimuth where the realized pattern actually peaks.

        For imperfect hardware this deviates from the nominal steering
        direction; the deviation itself is a measurable imperfection.
        """
        azimuth, _ = self.pattern.peak()
        return azimuth


class Codebook:
    """The set of beams a device can select from."""

    def __init__(
        self,
        directional: Sequence[CodebookEntry],
        quasi_omni: Sequence[CodebookEntry],
    ):
        if not directional:
            raise ValueError("codebook needs at least one directional entry")
        self._directional = list(directional)
        self._quasi_omni = list(quasi_omni)

    @property
    def directional_entries(self) -> Tuple[CodebookEntry, ...]:
        return tuple(self._directional)

    @property
    def quasi_omni_entries(self) -> Tuple[CodebookEntry, ...]:
        return tuple(self._quasi_omni)

    @property
    def num_discovery_patterns(self) -> int:
        """Number of quasi-omni patterns swept during discovery."""
        return len(self._quasi_omni)

    def best_entry_toward(self, azimuth_rad: float) -> CodebookEntry:
        """Directional entry with the highest gain toward a direction.

        This models the outcome of beam training: the devices under
        test pick the codebook beam that maximizes link gain toward
        their peer.  Because patterns are imperfect, the chosen entry
        is not always the nominally-closest steering angle.
        """
        return max(
            self._directional,
            key=lambda e: e.pattern.gain_dbi(azimuth_rad),
        )

    def entry(self, index: int, kind: str = "directional") -> CodebookEntry:
        """Fetch an entry by index within its kind."""
        pool = self._directional if kind == "directional" else self._quasi_omni
        for e in pool:
            if e.index == index:
                return e
        raise KeyError(f"no {kind} entry with index {index}")

    @staticmethod
    def build(
        array: PhasedArray,
        sector_width_deg: float = 120.0,
        num_directional: int = 32,
        num_quasi_omni: int = 32,
        quasi_omni_seed: int = 1,
        pattern_points: int = 720,
    ) -> "Codebook":
        """Construct a codebook for a phased array.

        Directional entries steer to ``num_directional`` azimuths evenly
        spanning the serviceable sector (centered on broadside).
        Quasi-omni entries use randomized subarray activations (see
        :meth:`PhasedArray.quasi_omni_pattern`), seeded per entry so the
        sweep is deterministic for a given device; their patterns are
        synthesised on first access, directional ones here.
        """
        if num_directional < 1:
            raise ValueError("need at least one directional entry")
        if sector_width_deg <= 0 or sector_width_deg > 360:
            raise ValueError("sector width must be in (0, 360]")
        half = math.radians(sector_width_deg) / 2.0
        if num_directional == 1:
            azimuths = [0.0]
        else:
            azimuths = list(np.linspace(-half, half, num_directional))
        directional = [
            CodebookEntry(
                index=i,
                kind="directional",
                steering_azimuth_rad=float(az),
                synthesize=functools.partial(
                    array.steered_pattern, float(az), points=pattern_points
                ),
            )
            for i, az in enumerate(azimuths)
        ]
        for entry in directional:
            entry.pattern  # eager: beam training scores every entry
        quasi_omni = [
            CodebookEntry(
                index=i,
                kind="quasi_omni",
                steering_azimuth_rad=None,
                synthesize=functools.partial(
                    array.quasi_omni_pattern,
                    seed=quasi_omni_seed * 1000 + i,
                    points=pattern_points,
                ),
            )
            for i in range(num_quasi_omni)
        ]
        return Codebook(directional, quasi_omni)


def boundary_degradation_report(codebook: Codebook) -> List[dict]:
    """Summarize how beam quality degrades toward the sector boundary.

    For each directional entry, reports steering angle, realized HPBW,
    side-lobe level, and peak gain.  The paper's Section 4.2 finding —
    less directionality and stronger side lobes near the boundary of
    the transmission area — shows up as a trend in these rows.
    """
    rows = []
    for entry in codebook.directional_entries:
        pattern = entry.pattern
        rows.append(
            {
                "index": entry.index,
                "steering_deg": math.degrees(entry.steering_azimuth_rad or 0.0),
                "peak_gain_dbi": pattern.peak_gain_dbi(),
                "hpbw_deg": pattern.half_power_beam_width_deg(),
                "side_lobe_db": pattern.side_lobe_level_db(),
            }
        )
    return rows
