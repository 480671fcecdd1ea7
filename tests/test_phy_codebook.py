"""Unit tests for beam codebooks."""

import math

import numpy as np
import pytest

from repro.devices.air3c import make_air3c_transmitter
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.phy.antenna import PhaseShifterModel, UniformRectangularArray
from repro.phy.codebook import Codebook, boundary_degradation_report

FREQ = 60.48e9


@pytest.fixture(scope="module")
def array():
    return UniformRectangularArray(
        2, 8, FREQ, phase_shifter=PhaseShifterModel(2), rng=np.random.default_rng(11)
    )


@pytest.fixture(scope="module")
def codebook(array):
    return Codebook.build(array, sector_width_deg=120.0, num_directional=16, num_quasi_omni=8)


class TestBuild:
    def test_entry_counts(self, codebook):
        assert len(codebook.directional_entries) == 16
        assert codebook.num_discovery_patterns == 8

    def test_directional_span_covers_sector(self, codebook):
        angles = [e.steering_azimuth_rad for e in codebook.directional_entries]
        assert math.degrees(min(angles)) == pytest.approx(-60.0)
        assert math.degrees(max(angles)) == pytest.approx(60.0)

    def test_single_entry_is_broadside(self, array):
        cb = Codebook.build(array, num_directional=1, num_quasi_omni=0)
        assert cb.directional_entries[0].steering_azimuth_rad == 0.0

    def test_invalid_sector(self, array):
        with pytest.raises(ValueError):
            Codebook.build(array, sector_width_deg=0.0)

    def test_quasi_omni_entries_differ(self, codebook):
        a, b = codebook.quasi_omni_entries[:2]
        assert not np.array_equal(a.pattern.gains_dbi, b.pattern.gains_dbi)

    def test_needs_directional_entries(self):
        with pytest.raises(ValueError):
            Codebook([], [])


class TestSelection:
    def test_best_entry_points_near_target(self, codebook):
        target = math.radians(30)
        entry = codebook.best_entry_toward(target)
        # Realized gain toward the target beats the worst entry by a lot.
        gains = [e.pattern.gain_dbi(target) for e in codebook.directional_entries]
        assert entry.pattern.gain_dbi(target) == pytest.approx(max(gains))

    def test_entry_lookup_by_index(self, codebook):
        e = codebook.entry(3)
        assert e.index == 3 and e.kind == "directional"

    def test_entry_lookup_quasi_omni(self, codebook):
        e = codebook.entry(2, kind="quasi_omni")
        assert e.index == 2 and e.kind == "quasi_omni"

    def test_missing_entry_raises(self, codebook):
        with pytest.raises(KeyError):
            codebook.entry(999)

    def test_peak_direction_near_steering(self, codebook):
        # The realized peak of a mid-sector beam stays within ~15 deg of
        # its nominal steering direction despite hardware errors.
        entry = codebook.best_entry_toward(0.0)
        assert abs(math.degrees(entry.peak_direction_rad())) < 20.0


class TestBoundaryReport:
    def test_report_rows(self, codebook):
        rows = boundary_degradation_report(codebook)
        assert len(rows) == 16
        assert {"steering_deg", "peak_gain_dbi", "hpbw_deg", "side_lobe_db"} <= set(rows[0])

    def test_boundary_entries_degraded(self, codebook):
        rows = boundary_degradation_report(codebook)
        center = [r for r in rows if abs(r["steering_deg"]) < 15]
        edge = [r for r in rows if abs(r["steering_deg"]) > 50]
        mean_center_sll = np.mean([r["side_lobe_db"] for r in center])
        mean_edge_sll = np.mean([r["side_lobe_db"] for r in edge])
        # Edge beams have relatively stronger side lobes (paper 4.2).
        assert mean_edge_sll > mean_center_sll

    def test_boundary_entries_lose_gain(self, codebook):
        rows = boundary_degradation_report(codebook)
        center = max(rows, key=lambda r: -abs(r["steering_deg"]))
        edge = max(rows, key=lambda r: abs(r["steering_deg"]))
        assert edge["peak_gain_dbi"] < center["peak_gain_dbi"]


class TestLazyQuasiOmni:
    """Quasi-omni patterns are synthesised on first access, and equal
    the eager synthesis bit for bit."""

    @pytest.fixture(autouse=True)
    def _counting(self):
        from repro import obs

        obs.disable()
        obs.reset()
        obs.enable(metrics=True)
        yield
        obs.disable()
        obs.reset()

    @staticmethod
    def syntheses():
        from repro import obs

        return obs.metrics_snapshot()["counters"].get("phy.antenna.pattern_syntheses", 0)

    @pytest.mark.parametrize(
        "factory, unit_seed",
        [(make_d5000_dock, 8), (make_e7440_laptop, 21), (make_air3c_transmitter, 2024)],
        ids=["d5000", "e7440", "air3c"],
    )
    def test_lazy_entries_match_eager_and_count_only_accessed(self, factory, unit_seed):
        device = factory(unit_seed=unit_seed)
        directional = len(device.codebook.directional_entries)
        entries = device.codebook.quasi_omni_entries
        # Build synthesised every directional entry plus quasi-omni
        # entry 0 (the device's control pattern), nothing else.
        assert self.syntheses() == directional + 1

        accessed = [0, 3, len(entries) - 1]
        lazy = {i: entries[i].pattern for i in accessed}
        assert entries[3].pattern is lazy[3]
        assert self.syntheses() == directional + len(accessed)

        for i, pattern in lazy.items():
            eager = device.array.quasi_omni_pattern(seed=unit_seed * 1000 + i)
            assert np.array_equal(pattern.azimuths, eager.azimuths)
            assert np.array_equal(pattern.gains_dbi, eager.gains_dbi)
