import json
import math

import numpy as np
import pytest

from pathprob.potentials import (
    BandLimitedPotential,
    SpectralLine,
    band_limit,
    potential_from_dict,
    potential_to_dict,
)

TWO_PI = 2.0 * math.pi


class TestConstruction:
    @pytest.mark.parametrize(
        "q, a, phi",
        [(0.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (1.0, math.nan, 0.0), (math.inf, 1.0, 0.0),
         (1.0, 1.0, math.inf), (math.nan, 1.0, 0.0)],
    )
    def test_line_rejects_bad_field(self, q, a, phi):
        # a positive q, and finite q, a and phi
        with pytest.raises(ValueError):
            SpectralLine(q=q, a=a, phi=phi)

    def test_from_lines_sets_r_and_k(self):
        p = BandLimitedPotential.from_lines([(1.0, 0.5, 0.0), (0.3, -0.2, 1.0)])
        assert p.R == 1.0
        assert p.K == pytest.approx(TWO_PI * 0.7)

    def test_r_and_k_are_not_arguments(self):
        # derived from the lines, so a lineless potential cannot claim a band
        with pytest.raises(TypeError):
            BandLimitedPotential(R=1.0, K=1.0)
        assert (BandLimitedPotential().R, BandLimitedPotential().K) == (0.0, 0.0)

    def test_line_arrays(self):
        # the lines as read-only arrays, left out of equality, hashing and repr
        p = BandLimitedPotential.from_lines([(1.0, 0.5, 0.0), (0.3, -0.2, 1.0)])
        q, a, phi = p.line_arrays
        assert q.tolist() == [1.0, 0.3] and a.tolist() == [0.5, -0.2] and phi.tolist() == [0.0, 1.0]
        assert not any(v.flags.writeable for v in p.line_arrays)
        twin = BandLimitedPotential(p.lines)
        assert twin == p and hash(twin) == hash(p) and "line_arrays" not in repr(p)
        assert all(v.shape == (0,) for v in BandLimitedPotential().line_arrays)

    @pytest.mark.parametrize(
        "q, vt, match",
        [
            (np.linspace(-1, 1, 4), np.zeros(4), "odd number"),
            (np.linspace(-1, 1, 1), np.zeros(1), "odd number"),
            (np.linspace(-1, 1, 5) ** 3, np.zeros(5), "uniform"),
            (np.linspace(-1, 2, 5), np.zeros(5), "symmetric"),
            (np.linspace(-1, 1, 5), np.zeros(3), "shapes differ"),
            (np.linspace(-1, 1, 5), np.array([0, 0, 0, 1, 0], dtype=complex), "Hermitian"),
            (np.linspace(-1, 1, 5), np.array([0, 1, 1, 1, 0], dtype=complex), "constant offset"),
        ],
    )
    def test_from_grid_rejects_bad_spectrum(self, q, vt, match):
        with pytest.raises(ValueError, match=match):
            BandLimitedPotential.from_grid(q, vt)

    def test_zero_potential(self):
        p = BandLimitedPotential.zero()
        assert p.is_zero
        assert p.evaluate(1.3) == 0.0

    def test_evaluate_cosine(self):
        p = BandLimitedPotential.single_line(a=0.5, q=2.0, phi=0.3)
        x = np.linspace(-3, 3, 11)
        assert np.allclose(p.evaluate(x), 0.5 * np.cos(2.0 * x + 0.3))
        assert isinstance(p.evaluate(0.7), float)


class TestBandLimit:
    def test_cosine_recovers_single_line(self):
        x = np.linspace(-60, 60, 4001)
        pot, report = band_limit(x, np.cos(x), R=2.0)
        assert pot.lines and pot.R == pytest.approx(2.0)
        assert report.peaks, "expected a dominant spectral peak"
        q_peak, amp = max(report.peaks, key=lambda t: t[1])
        assert q_peak == pytest.approx(1.0, abs=0.05)
        assert amp == pytest.approx(1.0, rel=0.1)

    def test_zero_samples_give_zero_k(self):
        x = np.linspace(-10, 10, 201)
        pot, report = band_limit(x, np.zeros_like(x), R=2.0)
        assert pot.K == pytest.approx(0.0, abs=1e-12)
        assert report.linf_error == pytest.approx(0.0, abs=1e-12)

    def test_truncated_harmonic_reports_error(self):
        x = np.linspace(-5, 5, 801)
        v = 0.5 * 0.1 * x**2
        pot, report = band_limit(x, v, R=4.0)
        assert report.linf_error > 0
        # the approximant reproduces the (mean-subtracted) samples reasonably
        assert report.rms_error < 0.1 * np.max(np.abs(v - v.mean()))

    def test_error_decreases_with_r(self):
        x = np.linspace(-5, 5, 801)
        v = 0.5 * 0.1 * x**2
        errs = [band_limit(x, v, R=r)[1].linf_error for r in (1.0, 2.0, 4.0)]
        assert errs[0] > errs[1] > errs[2]

    def test_r_beyond_nyquist_rejected(self):
        x = np.linspace(-5, 5, 101)
        with pytest.raises(ValueError, match="Nyquist"):
            band_limit(x, np.cos(x), R=100.0)

    @pytest.mark.parametrize(
        "x, v, R, match",
        [
            (np.linspace(-5, 5, 101), np.zeros(100), 1.0, "matching"),
            (np.linspace(-5, 5, 3), np.zeros(3), 0.5, "at least 4"),
            (np.linspace(-5, 5, 101) ** 3, np.zeros(101), 1e-3, "uniform"),
            (np.linspace(-5, 5, 101), np.zeros(101), 0.0, "positive"),
            (np.linspace(-5, 5, 101), np.zeros(101), -1.0, "positive"),
        ],
    )
    def test_rejects_bad_samples(self, x, v, R, match):
        with pytest.raises(ValueError, match=match):
            band_limit(x, v, R)

    @pytest.mark.parametrize("n_q", [None, 129])
    def test_rejects_nan_band(self, n_q):
        # checked before the default spectral grid's size int(8 R X / pi)
        x = np.linspace(-5, 5, 101)
        with pytest.raises(ValueError, match="R must be positive"):
            band_limit(x, np.cos(x), math.nan, n_q=n_q)

    def test_even_n_q_rounds_up_to_odd(self):
        # the spectral grid must be odd in length and symmetric about q = 0
        x = np.linspace(-10, 10, 401)
        v = np.cos(x) + 0.3 * np.sin(2 * x)
        pot, _ = band_limit(x, v, R=3.0, n_q=40)
        assert pot == band_limit(x, v, R=3.0, n_q=41)[0]
        assert pot.R == pytest.approx(3.0)

    def test_reconstruction_is_real(self):
        # the lines are the trapezoid node sum of the sampled spectrum, which
        # Hermitian symmetry makes real
        x = np.linspace(-30, 30, 2001)
        v = np.cos(x) + 0.3 * np.sin(2 * x)
        pot, _ = band_limit(x, v, R=3.0, n_q=301)
        q = np.linspace(-3.0, 3.0, 301)
        vt = (x[1] - x[0]) * np.exp(1j * np.multiply.outer(q, x)) @ (v - v.mean())
        vt[150] = 0.0
        v_c = np.trapezoid(vt * np.exp(-1j * np.multiply.outer(x, q)), q, axis=-1) / TWO_PI
        scale = np.max(np.abs(v_c))
        assert np.max(np.abs(v_c.imag)) <= 1e-12 * scale
        assert np.max(np.abs(pot.evaluate(x) - v_c.real)) <= 1e-14 * scale
        assert pot.K == pytest.approx(np.trapezoid(np.abs(vt), q), rel=1e-12)


class TestInterchange:
    def test_line_round_trip(self):
        p = BandLimitedPotential.from_lines([(1.0, 0.5, 0.2), (0.7, -0.1, 0.0)])
        d = potential_to_dict(p)
        assert set(d) == {"lines", "R", "K"}
        q = potential_from_dict(json.loads(json.dumps(d)))
        assert q == p

    def test_grid_round_trip(self):
        x = np.linspace(-30, 30, 2001)
        p, _ = band_limit(x, np.cos(x), R=2.0)
        q = potential_from_dict(json.loads(json.dumps(potential_to_dict(p))))
        xs = np.linspace(-3, 3, 50)
        assert np.allclose(q.evaluate(xs), p.evaluate(xs), atol=1e-12)
        assert q.K == pytest.approx(p.K)

    def test_zero_round_trip(self):
        p = BandLimitedPotential.zero()
        assert potential_from_dict(potential_to_dict(p)).is_zero

    def test_looser_declaration_accepted(self):
        # a looser R or K is accepted and dropped for lines and grids alike
        d = {"lines": [{"q": 1.0, "a": 0.5}], "R": 2.0, "K": 10.0}
        assert potential_from_dict(d) == BandLimitedPotential.single_line(a=0.5, q=1.0)
        x = np.linspace(-30, 30, 2001)
        p, _ = band_limit(x, 0.05 * np.cos(x), R=2.0)
        loaded = potential_from_dict({**potential_to_dict(p), "R": 3.0, "K": 10.0})
        assert (loaded.R, loaded.K) == (p.R, p.K)

    @pytest.mark.parametrize(
        "declared, match",
        [({"R": 0.5}, "beyond the declared R"), ({"K": 3.0}, "declared K")],
    )
    def test_violated_line_declaration_rejected(self, declared, match):
        with pytest.raises(ValueError, match=match):
            potential_from_dict({"lines": [{"q": 1.0, "a": 1.0}], **declared})

    @pytest.mark.parametrize(
        "declared, match", [({"R": 1.5}, "beyond the declared R"), ({"K": 0.5}, "below")]
    )
    def test_violated_grid_declaration_rejected(self, declared, match):
        x = np.linspace(-30, 30, 2001)
        p, _ = band_limit(x, np.cos(x), R=2.0)
        d = {**potential_to_dict(p), **declared}
        with pytest.raises(ValueError, match=match):
            potential_from_dict(d)
