"""Per-bucket phase sampling: deterministic, proportional, and free at rate 0.

``Telemetry(bucket_sample_rate=r)`` makes the engines time a deterministic
subset of their buckets, each solved by a call of its own.  The contract under
test:

* rate 0 (the default) hands the engines ``None`` -- the bucket loop is the
  *exact* uninstrumented path (proved here by poisoning every
  :class:`BucketSampler` entry point and showing a rate-0 run never touches
  one);
* rate 1 times every bucket of every angle of every sweep;
* fractional rates pick a Bresenham-spaced subset -- no RNG, so identical
  runs produce identical counters;
* sampling never changes the numerics (bit-for-bit flux identity).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import ProblemSpec
from repro.core.solver import TransportSolver
from repro.telemetry import BucketSampler, Telemetry

SMALL = ProblemSpec(nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2,
                    num_inners=2, num_outers=1)

ENGINES = ("reference", "vectorized", "prefactorized")


def _buckets_per_sweep(spec: ProblemSpec) -> int:
    solver = TransportSolver(spec)
    schedule = solver.executor.schedule
    num_angles = solver.quadrature.num_angles
    return sum(len(schedule.for_angle(angle).buckets) for angle in range(num_angles))


class TestSamplerObject:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="bucket_sample_rate"):
            Telemetry(bucket_sample_rate=1.5)
        with pytest.raises(ValueError, match="bucket_sample_rate"):
            Telemetry(bucket_sample_rate=-0.1)

    def test_sampler_is_none_at_rate_zero_or_disabled(self):
        assert Telemetry().bucket_sampler() is None
        assert Telemetry(enabled=False, bucket_sample_rate=1.0).bucket_sampler() is None

    def test_bresenham_fraction(self):
        tel = Telemetry(bucket_sample_rate=0.25)
        sampler = tel.bucket_sampler()
        picks = [sampler.want() for _ in range(100)]
        assert sum(picks) == 25
        # Evenly spaced, not front-loaded: every window of 4 has exactly one.
        for i in range(0, 100, 4):
            assert sum(picks[i : i + 4]) == 1

    def test_rate_one_takes_every_bucket(self):
        sampler = Telemetry(bucket_sample_rate=1.0).bucket_sampler()
        assert all(sampler.want() for _ in range(10))

    def test_record_accumulates_counters(self):
        tel = Telemetry(bucket_sample_rate=1.0)
        sampler = tel.bucket_sampler()
        sampler.record(0.5, 16)
        sampler.record(0.25, 8)
        assert tel.counters["bucket_samples"] == 2
        assert tel.counters["bucket_sample_seconds"] == 0.75
        assert tel.counters["bucket_sample_systems"] == 24


class TestEngineSampling:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rate_one_times_every_bucket(self, engine):
        spec = SMALL.with_(engine=engine)
        tel = Telemetry(bucket_sample_rate=1.0)
        result = repro.run(spec, telemetry=tel)
        expected = tel.counters["sweeps"] * _buckets_per_sweep(spec)
        assert tel.counters["bucket_samples"] == expected
        assert tel.counters["bucket_sample_seconds"] > 0.0
        assert tel.counters["bucket_sample_systems"] == result.timings.systems_solved

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sampling_never_perturbs_numerics(self, engine):
        spec = SMALL.with_(engine=engine)
        plain = repro.run(spec).scalar_flux
        sampled = repro.run(spec, telemetry=Telemetry(bucket_sample_rate=0.3))
        np.testing.assert_array_equal(plain, sampled.scalar_flux)

    def test_fractional_rate_is_deterministic_and_proportional(self):
        spec = SMALL.with_(engine="vectorized")
        counts = []
        for _ in range(2):
            tel = Telemetry(bucket_sample_rate=0.5)
            repro.run(spec, telemetry=tel)
            counts.append(tel.counters["bucket_samples"])
        assert counts[0] == counts[1]  # no RNG anywhere
        # One fresh sampler per sweep_angle call: the Bresenham accumulator
        # takes exactly floor(buckets * rate) of each angle's buckets.
        solver = TransportSolver(spec)
        schedule = solver.executor.schedule
        per_sweep = sum(
            len(schedule.for_angle(angle).buckets) // 2
            for angle in range(solver.quadrature.num_angles)
        )
        tel = Telemetry(bucket_sample_rate=0.5)
        repro.run(spec, telemetry=tel)
        assert tel.counters["bucket_samples"] == tel.counters["sweeps"] * per_sweep


class TestRateZeroIsUninstrumented:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rate_zero_never_touches_the_sampler(self, engine, monkeypatch):
        """Poison every sampler entry point: a rate-0 run must not construct,
        query or record through a sampler -- the engines' bucket loops take
        the exact path an uninstrumented run takes."""

        def poisoned(self, *a, **k):
            raise AssertionError("BucketSampler touched during a rate-0 run")

        monkeypatch.setattr(BucketSampler, "__init__", poisoned)
        monkeypatch.setattr(BucketSampler, "want", poisoned)
        monkeypatch.setattr(BucketSampler, "record", poisoned)
        tel = Telemetry()  # default rate 0
        result = repro.run(SMALL.with_(engine=engine), telemetry=tel)
        assert result.scalar_flux is not None
        assert "bucket_samples" not in tel.counters

    def test_rate_zero_flux_matches_uninstrumented_bit_for_bit(self):
        for engine in ENGINES:
            spec = SMALL.with_(engine=engine)
            np.testing.assert_array_equal(
                repro.run(spec).scalar_flux,
                repro.run(spec, telemetry=Telemetry()).scalar_flux,
            )
