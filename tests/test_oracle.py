import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import jv

from pathprob import oracle
from pathprob.oracle import (
    WavefunctionGrid,
    ck_check,
    free_kernel_exact,
    gaussian_packet,
    kernel_estimate,
    make_grid,
    propagate,
)
from pathprob.potentials import BandLimitedPotential, SpectralLine

TWO_PI = 2.0 * math.pi
FREE = BandLimitedPotential.zero()


def default_grid():
    return make_grid(20.0, 2048)


def safe_dt(x):
    dx = x[1] - x[0]
    return 0.999 * dx**2 / math.pi**2


def counting(monkeypatch):
    """Route the oracle's own calls to ``propagate`` through a recorder."""
    calls = []

    def counting_propagate(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(oracle, "propagate", counting_propagate)
    return calls


class TestPropagation:
    def test_norm_conservation(self):
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        x = default_grid()
        w = gaussian_packet(x, 0.0, 1.0, momentum=1.5)
        out = propagate(w, p, 1.0)
        assert abs(out.norm() - w.norm()) <= 1e-10 * w.norm()

    def test_zero_duration_is_identity(self):
        x = default_grid()
        w = gaussian_packet(x, 0.3, 0.8)
        out = propagate(w, FREE, 0.0)
        assert np.array_equal(out.psi, w.psi)

    def test_free_dispersion_law(self):
        x = default_grid()
        sigma0, T = 0.7, 1.5
        out = propagate(gaussian_packet(x, 0.0, sigma0), FREE, T)
        dens = np.abs(out.psi) ** 2
        dens /= np.sum(dens) * out.dx
        var = float(np.sum(x**2 * dens) * out.dx)
        predicted = sigma0**2 + (T / (2 * sigma0)) ** 2
        assert var == pytest.approx(predicted, rel=1e-6)

    def test_constant_shift_is_pure_phase(self):
        c = 0.37

        class Shifted(BandLimitedPotential):
            def evaluate(self, x):
                return super().evaluate(x) + c

        p = BandLimitedPotential.single_line(a=0.3, q=1.0)
        ps = Shifted(R=p.R, K=p.K, lines=p.lines)
        x = default_grid()
        w = gaussian_packet(x, 0.0, 1.0)
        T = 1.0
        out = propagate(w, p, T)
        out_s = propagate(w, ps, T)
        assert np.max(np.abs(np.abs(out_s.psi) ** 2 - np.abs(out.psi) ** 2)) <= 1e-10
        assert np.allclose(out_s.psi, out.psi * np.exp(-1j * c * T), atol=1e-9)

    def test_free_energy_conserved(self):
        x = default_grid()
        w = gaussian_packet(x, 0.0, 0.9, momentum=2.0)
        out = propagate(w, FREE, 1.0)
        k = TWO_PI * np.fft.fftfreq(x.size, d=w.dx)

        def energy(psi):
            ft = np.fft.fft(psi)
            return float(
                np.sum(0.5 * k**2 * np.abs(ft) ** 2) / np.sum(np.abs(ft) ** 2)
            )

        assert energy(out.psi) == pytest.approx(energy(w.psi), rel=1e-6)

    def test_potential_evaluated_once(self):
        calls = []

        class Counting(BandLimitedPotential):
            def evaluate(self, x):
                calls.append(np.size(x))
                return super().evaluate(x)

        base = BandLimitedPotential.single_line(a=0.3, q=1.0)
        p = Counting(R=base.R, K=base.K, lines=base.lines)
        x = make_grid(8.0, 128)
        propagate(gaussian_packet(x, 0.0, 1.0), p, 0.1)
        assert calls == [x.size]

    def test_guard_grid_resolution(self):
        p = BandLimitedPotential.single_line(a=0.1, q=100.0)
        x = make_grid(20.0, 512)
        with pytest.raises(ValueError, match="dx"):
            propagate(gaussian_packet(x, 0.0, 1.0), p, 1.0)


def strang_reference(w, p, duration, dt):
    """Strang splitting written out step by step: the dt -> 0 reference for ``propagate``."""
    v = p.evaluate(w.x) if not p.is_zero else np.zeros_like(w.x)
    n_steps = max(1, int(math.ceil(duration / dt)))
    step = duration / n_steps
    k = TWO_PI * np.fft.fftfreq(w.x.size, d=w.dx)
    kinetic = np.exp(-0.5j * step * k**2)
    half_pot = np.exp(-0.5j * step * v)
    psi = w.psi * half_pot
    for _ in range(n_steps - 1):
        psi = np.fft.ifft(kinetic * np.fft.fft(psi)) * half_pot * half_pot
    return np.fft.ifft(kinetic * np.fft.fft(psi)) * half_pot


def rel_l2(a, b):
    """Largest per-row relative L2 distance of ``a`` from ``b``."""
    return float(np.max(np.linalg.norm(a - b, axis=-1) / np.linalg.norm(b, axis=-1)))


class TestExactPropagation:
    """``propagate``: Chebyshev series, or one kinetic factor for V = 0."""

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(0.0, 6.28)),
            max_size=3,
        ),
        st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(0.3, 1.5), st.floats(-2.0, 2.0)),
            min_size=1,
            max_size=3,
        ),
        st.floats(0.01, 0.3),
        st.floats(0.01, 0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_route_properties(self, specs, packets, t1, t2):
        p = BandLimitedPotential.from_lines([SpectralLine(q, a, phi) for q, a, phi in specs])
        x = make_grid(8.0, 128)
        rows = [gaussian_packet(x, c, s, momentum=k).psi for c, s, k in packets]
        w = WavefunctionGrid(x=x, psi=rows)
        out = propagate(w, p, t1 + t2)
        assert np.all(np.abs(out.norm() - w.norm()) <= 1e-12 * w.norm())
        assert rel_l2(propagate(propagate(w, p, t1), p, t2).psi, out.psi) <= 1e-11
        for row, got in zip(rows, out.psi):
            assert np.array_equal(got, propagate(WavefunctionGrid(x=x, psi=row), p, t1 + t2).psi)
        # Strang's O(dt^2) error at the safe dt reaches ~4e-6 here; its
        # Richardson extrapolation from dt and dt/2 is the dt -> 0 limit
        dt = safe_dt(x)
        coarse = strang_reference(w, p, t1 + t2, dt)
        fine = strang_reference(w, p, t1 + t2, dt / 2)
        assert rel_l2((4.0 * fine - coarse) / 3.0, out.psi) <= 1e-7

    def test_free_dispersed_gaussian(self):
        x = make_grid(20.0, 1024)
        sigma, k0, T = 0.7, 1.0, 1.5
        out = propagate(gaussian_packet(x, 0.0, sigma, momentum=k0), FREE, T)
        tau = 1.0 + 0.5j * T / sigma**2
        exact = (
            (TWO_PI * sigma**2) ** -0.25
            * tau**-0.5
            * np.exp(-((x - k0 * T) ** 2) / (4.0 * sigma**2 * tau) + 1j * k0 * (x - 0.5 * k0 * T))
        )
        assert np.max(np.abs(out.psi - exact)) <= 1e-12

    @pytest.mark.parametrize("a", [0.3, 7.0, 150.0, 1003.5])
    def test_chebyshev_terms_fewest_within_tolerance(self, a):
        coeff = oracle._chebyshev_coefficients(a)
        n = len(coeff)
        orders = np.arange(n, int(2 * a) + 200)
        dropped = 2.0 * np.sum(np.abs(jv(orders, a)))
        assert dropped <= oracle.CHEB_TOL
        assert dropped + 2.0 * abs(jv(n - 1, a)) > oracle.CHEB_TOL
        k = np.arange(n)
        assert np.array_equal(coeff, np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, a))


class TestFreeKernel:
    def test_modulus_squared_values(self):
        assert free_kernel_exact(0.0, 0.7, 1.0).modulus_squared == pytest.approx(
            1.0 / TWO_PI, rel=1e-12
        )
        assert free_kernel_exact(0.0, 0.0, 2.0).modulus_squared == pytest.approx(
            1.0 / (2 * TWO_PI), rel=1e-12
        )

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            free_kernel_exact(0.0, 0.0, 0.0)

    def test_composition_identity(self):
        # A(a->c, T/2) A(c->b, T/2) integrated over c along the rotated
        # contour c = c* + exp(i pi/4) xi, where the phase is a pure Gaussian
        za, zb, T = -0.4, 0.9, 1.0
        c_star = 0.5 * (za + zb)
        rot = np.exp(1j * np.pi / 4)
        xi = np.linspace(-12.0, 12.0, 20001)
        c = c_star + rot * xi
        pref = (TWO_PI * (T / 2)) ** -0.5 * np.exp(-1j * np.pi / 4)
        integrand = (
            pref**2
            * np.exp(1j * ((c - za) ** 2 + (zb - c) ** 2) / T)
        )
        lhs = complex(np.trapezoid(integrand, xi) * rot)
        rhs = free_kernel_exact(za, zb, T).amplitude
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


class TestKernelEstimate:
    def test_free_matches_exact(self):
        # criterion 8's input; exact kinetic factor, spectral read-out and
        # image-safe grid leave only round-off
        est = kernel_estimate(FREE, -0.3, 0.5, 1.0)
        exact = free_kernel_exact(-0.3, 0.5, 1.0).amplitude
        assert abs(est.amplitude - exact) <= 1e-9 * abs(exact)
        assert est.extrapolation_residual < 1e-9

    def test_flat_in_separation(self):
        mods = [
            kernel_estimate(FREE, -dz / 2, dz / 2, 1.0).modulus_squared
            for dz in (0.0, 1.0)
        ]
        assert abs(mods[1] - mods[0]) / mods[0] < 0.02

    def test_born_regime_sign_and_size(self):
        a, q, phi, T, za, zb = 0.05, 1.0, 0.3, 1.0, -0.3, 0.4
        p = BandLimitedPotential.single_line(a=a, q=q, phi=phi)
        A0 = free_kernel_exact(za, zb, T).amplitude

        def leg(t, pm, part):
            xs = za + (zb - za) * t / T
            val = np.exp(1j * pm * (q * xs + phi)) * np.exp(
                -1j * q * q * t * (T - t) / (2 * T)
            )
            return val.real if part == 0 else val.imag

        tot = 0j
        for pm in (1, -1):
            re = quad(lambda t: leg(t, pm, 0), 0, T, epsabs=1e-12)[0]
            im = quad(lambda t: leg(t, pm, 1), 0, T, epsabs=1e-12)[0]
            tot += re + 1j * im
        a1 = -1j * (a / 2) * A0 * tot
        predicted = 2.0 * np.real(np.conj(A0) * a1)

        measured = kernel_estimate(p, za, zb, T).modulus_squared - abs(A0) ** 2
        assert measured * predicted > 0  # same sign
        assert measured == pytest.approx(predicted, rel=0.1)

    def test_short_time_approaches_free(self):
        p = BandLimitedPotential.single_line(a=0.05, q=1.0, phi=0.3)
        devs = []
        for T in (0.5, 0.25, 0.125):
            est = kernel_estimate(p, -0.3, 0.4, T)
            free = free_kernel_exact(-0.3, 0.4, T).amplitude
            devs.append(abs(est.amplitude / free - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_unresolvable_width_rejected(self):
        with pytest.raises(ValueError, match="resolvable"):
            kernel_estimate(FREE, 0.0, 0.0, 1.0, half_width=20.0, n_points=256)

    def test_default_grid_size(self):
        # the smallest FFT-friendly size >= 1024 with dx <= 0.04, not a power of two
        for half_width, n in ((12.7, 1024), (20.48, 1024), (20.5, 1029), (93.3, 4704)):
            x, dx = oracle._grid(half_width, None)
            assert x.size == n and dx <= 0.04

    def test_one_stacked_propagation(self, monkeypatch):
        calls = counting(monkeypatch)
        kernel_estimate(FREE, -0.3, 0.5, 0.2, half_width=12.7, n_points=512)
        assert len(calls) == 1
        assert calls[0][0].psi.shape == (len(oracle.SOURCE_SIGMAS), 512)


class TestCompositionCheck:
    def test_amplitude_mode_closes(self):
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        res = ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode="amplitude")
        assert res.residual <= 1e-6

    def test_probability_mode_fails(self):
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        res = ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode="probability")
        assert res.residual > 0.05

    def test_probability_mode_propagation_count(self, monkeypatch):
        # two legs plus one stacked propagation of the direct kernel's source
        # widths; the full-duration leg is the amplitude mode's alone
        calls = counting(monkeypatch)
        ck_check(FREE, -0.2, 0.0, 0.6, 0.4, 1.0, half_width=12.7, n_points=512)
        assert len(calls) == 3

    def test_unknown_mode_rejected_before_propagating(self, monkeypatch):
        calls = counting(monkeypatch)
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            ck_check(FREE, -0.2, 0.0, 0.6, 0.4, 1.0, mode="bogus")
        assert calls == []

    def test_grid_without_endpoints_rejected_before_propagating(self, monkeypatch):
        # X <= max(|za|, |zb|) + 4 leaves an endpoint outside ck's window
        calls = counting(monkeypatch)
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        for mode in ("probability", "amplitude"):
            with pytest.raises(ValueError, match="does not hold the endpoints"):
                ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode=mode, half_width=4.4)
        with pytest.raises(ValueError, match="does not hold the endpoints"):
            kernel_estimate(p, 0.0, 0.0, 1.0, half_width=0.3)
        assert calls == []

    def test_free_probability_nonconvergent(self):
        res = ck_check(FREE, 0.0, 0.0, 0.5, 0.0, 1.0, mode="probability")
        assert not res.converged

    def test_time_ordering_enforced(self):
        with pytest.raises(ValueError):
            ck_check(FREE, 0.0, 0.0, 1.5, 0.0, 1.0)


class TestIO:
    def test_grid_shape_validation(self):
        with pytest.raises(ValueError):
            WavefunctionGrid(x=np.zeros(4), psi=np.zeros(5))
        with pytest.raises(ValueError):
            WavefunctionGrid(x=np.zeros(4), psi=np.zeros((4, 5)))
        with pytest.raises(ValueError):
            WavefunctionGrid(x=np.zeros((2, 4)), psi=np.zeros((2, 4)))

    def test_stack_norms(self):
        x = make_grid(8.0, 256)
        rows = [gaussian_packet(x, c, 1.0).psi for c in (-1.0, 0.5)]
        w = WavefunctionGrid(x=x, psi=[rows[0], 2.0 * rows[1]])
        assert w.norm() == pytest.approx([1.0, 4.0], rel=1e-10)
        assert w.norm()[0] == WavefunctionGrid(x=x, psi=rows[0]).norm()
