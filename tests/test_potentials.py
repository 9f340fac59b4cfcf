import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprob.potentials import (
    BandLimitedPotential,
    SpectralLine,
    band_limit,
    potential_from_dict,
    potential_to_dict,
)

TWO_PI = 2.0 * math.pi


class TestConstruction:
    def test_line_requires_positive_q(self):
        with pytest.raises(ValueError):
            SpectralLine(q=0.0, a=1.0)
        with pytest.raises(ValueError):
            SpectralLine(q=-1.0, a=1.0)

    def test_from_lines_sets_r_and_k(self):
        p = BandLimitedPotential.from_lines([(1.0, 0.5, 0.0), (0.3, -0.2, 1.0)])
        assert p.R == 1.0
        assert p.K == pytest.approx(TWO_PI * 0.7)

    def test_wrong_k_rejected(self):
        with pytest.raises(ValueError):
            BandLimitedPotential(R=1.0, K=1.0, lines=(SpectralLine(q=1.0, a=1.0),))

    def test_line_beyond_r_rejected(self):
        with pytest.raises(ValueError):
            BandLimitedPotential(
                R=0.5, K=TWO_PI, lines=(SpectralLine(q=1.0, a=1.0),)
            )

    def test_zero_potential(self):
        p = BandLimitedPotential.zero()
        assert p.is_zero
        assert p.evaluate(1.3) == 0.0
        assert p.force_bound() == 0.0

    def test_evaluate_cosine(self):
        p = BandLimitedPotential.single_line(a=0.5, q=2.0, phi=0.3)
        x = np.linspace(-3, 3, 11)
        assert np.allclose(p.evaluate(x), 0.5 * np.cos(2.0 * x + 0.3))
        assert isinstance(p.evaluate(0.7), float)


class TestForceBound:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 3.0),
                st.floats(-2.0, 2.0),
                st.floats(0.0, 6.28),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_bound_dominates_numerical_derivative(self, specs):
        lines = [SpectralLine(q=q, a=a, phi=phi) for q, a, phi in specs]
        p = BandLimitedPotential.from_lines(lines)
        x = np.linspace(-20, 20, 4001)
        h = 1e-4
        deriv = (p.evaluate(x + h) - p.evaluate(x - h)) / (2 * h)
        assert np.max(np.abs(deriv)) <= p.force_bound() * (1 + 1e-6) + 1e-9


class TestBandLimit:
    def test_cosine_recovers_single_line(self):
        x = np.linspace(-60, 60, 4001)
        pot, report = band_limit(x, np.cos(x), R=2.0)
        assert pot.grid is not None
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

    def test_reconstruction_is_real(self):
        x = np.linspace(-30, 30, 2001)
        pot, _ = band_limit(x, np.cos(x) + 0.3 * np.sin(2 * x), R=3.0)
        # Hermitian grid symmetry makes the reconstructed potential real;
        # evaluate() already takes the real part, so check the raw integral
        phase = np.exp(-1j * np.multiply.outer(x[:50], pot.grid.q))
        v_c = np.trapezoid(pot.grid.vt * phase, pot.grid.q, axis=-1) / TWO_PI
        scale = np.max(np.abs(v_c))
        assert np.max(np.abs(v_c.imag)) <= 1e-12 * scale


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
