import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
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
from pathprob.potentials import BandLimitedPotential, SpectralLine, band_limit
from pathprob.weights import SERIES_TOL

TWO_PI = 2.0 * math.pi
FREE = BandLimitedPotential.zero()


def grid_spectra():
    """The suite's tabulated potentials through ``band_limit``: a cosine at
    R = 2 and two cosines at R = 1.5, which make 64 lines."""
    x, y = np.linspace(-30.0, 30.0, 2001), np.linspace(-20.0, 20.0, 201)
    return (
        band_limit(x, np.cos(x), R=2.0)[0],
        band_limit(y, 0.03 * np.cos(0.6 * y + 0.5) + 0.04 * np.cos(1.1 * y + 1.7), R=1.5)[0],
    )


GRID_SPECTRA = grid_spectra()
LINE = BandLimitedPotential.single_line(a=0.5, q=1.0)


def default_grid():
    return make_grid(20.0, 2048)


def safe_dt(x):
    dx = x[1] - x[0]
    return 0.999 * dx**2 / math.pi**2


def counting(monkeypatch, name="propagate"):
    """Route the oracle's own calls to its function ``name`` through a recorder."""
    calls = []
    target = getattr(oracle, name)

    def recorder(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(oracle, name, recorder)
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

    def test_tiny_duration_is_identity_to_rounding(self):
        # a = rT is about 2e-15 here; the Chebyshev series must still keep
        # the two terms that the recurrence starts from
        x = make_grid(20.0, 1024)
        w = gaussian_packet(x, 0.0, 1.0)
        out = propagate(w, BandLimitedPotential.single_line(a=0.5, q=1.0), 1e-18)
        assert np.max(np.abs(out.psi - w.psi)) <= 1e-15 * np.max(np.abs(w.psi))

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
        ps = Shifted(p.lines)
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
        p = Counting(base.lines)
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


def terms_at(n):
    """Least ``a`` (up to 1e-9 relative) at which ``exp(-i a y)`` takes ``n`` Chebyshev terms."""
    lo, hi = 0.0, float(n)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if oracle._chebyshev_coefficients(mid).size < n else (lo, mid)
    return hi * (1.0 + 1e-9)


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

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(0.0, 6.28)),
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.floats(-3.0, 3.0),
                st.floats(0.3, 1.5),
                st.just(0.0) | st.floats(-2.0, 2.0),  # real and complex rows
                st.lists(
                    st.sampled_from([2, 20, 63, oracle.CHEB_BLOCK, 65, 2 * oracle.CHEB_BLOCK])
                    | st.integers(2, 400),
                    min_size=1,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(
        [(1.0, 0.5, 0.3)],
        [(0.0, 1.0, 0.0, [20, 64, 65, 300]), (0.5, 0.7, 1.0, [20, 64, 65, 300])],
    )
    @example([], [(0.0, 1.0, 0.0, [20, 300]), (0.5, 0.7, 1.0, [20, 300])])
    # a complex row longest, between and shortest: its imaginary part's
    # terms stop with its real part's, inside a block and at its edge
    @example(
        [(1.0, 0.5, 0.3)],
        [(0.0, 1.0, 0.0, [20]), (0.5, 0.7, 1.0, [300, 2]), (-1.0, 0.8, 0.0, [65, 64])],
    )
    @example([(1.0, 0.5, 0.3)], [(0.5, 0.7, 1.0, [63]), (0.0, 1.0, 0.0, [128, 2])])
    @example(
        [(1.0, 0.5, 0.3)],
        [(0.0, 1.0, 0.0, [300]), (0.5, 0.7, 1.0, [129]), (1.0, 0.6, 0.0, [64])],
    )
    @settings(max_examples=30, deadline=None)
    def test_one_pass_matches_separate_calls(self, specs, packets):
        # each row has its own durations, whose Chebyshev series have the
        # drawn term counts, below, at and well above one block of CHEB_BLOCK
        # terms, so the rows stop at different terms
        p = BandLimitedPotential.from_lines([SpectralLine(q, a, phi) for q, a, phi in specs])
        x = make_grid(8.0, 128)
        rows = [gaussian_packet(x, c, s, momentum=k).psi for c, s, k, _ in packets]
        w = WavefunctionGrid(x=x, psi=rows)
        v = p.evaluate(x)
        kinetic_max = 0.5 * (math.pi / w.dx) ** 2
        r = 0.5 * (kinetic_max + float(np.max(v)) - float(np.min(v)))
        durations = [[terms_at(n) / r for n in counts] for *_, counts in packets]
        if not p.is_zero:
            for (*_, counts), ts in zip(packets, durations):
                assert [oracle._chebyshev_coefficients(r * t).size for t in ts] == counts
        out = oracle._propagate_rows(w, p, durations)
        assert len(out) == len(rows)
        for row, got, ts in zip(rows, out, durations):
            assert got.shape == (len(ts), x.size)
            for got_t, t in zip(got, ts):
                alone = propagate(WavefunctionGrid(x=x, psi=row), p, t).psi
                assert rel_l2(got_t, alone) <= 1e-13

    @pytest.mark.parametrize("p", [FREE, LINE], ids=["free", "line"])
    def test_stack_keeps_its_shape(self, p):
        # a (2, 2, n) stack of real and complex rows, each propagated alone, and an empty stack
        x = make_grid(8.0, 128)
        packets = [[(-1.0, 0.8, 0.0), (0.5, 0.6, 1.0)], [(1.0, 1.0, -0.7), (0.0, 0.5, 0.0)]]
        stack = [[gaussian_packet(x, *pk).psi for pk in pair] for pair in packets]
        w = WavefunctionGrid(x=x, psi=stack)
        out = propagate(w, p, 0.3)
        assert out.psi.shape == (2, 2, x.size)
        for i, j in np.ndindex(2, 2):
            alone = propagate(WavefunctionGrid(x=x, psi=w.psi[i, j]), p, 0.3).psi
            assert rel_l2(out.psi[i, j], alone) <= 1e-13
        empty = WavefunctionGrid(x=x, psi=np.empty((0, x.size)))
        assert propagate(empty, p, 0.3).psi.shape == (0, x.size)

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

    # J_k(a) to 40 digits (mpmath), at oscillatory orders and at the last
    # order each series keeps
    BESSEL_J = {
        0.3: {
            0: 0.97762624653829608921641584783788283635,
            9: 1.0570147217965365539988720297557e-13,
        },
        7.0: {
            3: -0.1675555879953342360315111126342017767335,
            26: 2.195221914399326007384944977458e-13,
        },
        150.0: {
            75: 0.06663262333091886174288756854314030441535,
            201: 3.603500861579524694188573360522e-14,
        },
        1003.5: {
            500: 0.01678614145142673800554820620389697569108,
            1003: 0.04672932165073070201137859886918846275708,
            1099: 1.852323267533290594259909472609e-14,
        },
    }

    @pytest.mark.parametrize("a", [0.3, 7.0, 150.0, 1003.5])
    def test_chebyshev_terms_fewest_within_tolerance(self, a):
        coeff = oracle._chebyshev_coefficients(a)
        n = len(coeff)
        orders = np.arange(n, int(2 * a) + 200)
        dropped = 2.0 * np.sum(np.abs(jv(orders, a)))
        assert dropped <= oracle.CHEB_TOL
        assert dropped + 2.0 * abs(jv(n - 1, a)) > oracle.CHEB_TOL
        k = np.arange(n)
        j = coeff / (np.where(k == 0, 1.0, 2.0) * (-1j) ** k)
        for order, value in self.BESSEL_J[a].items():
            assert abs(j[order] - value) <= 1e-15
        # jv's own error reaches about 1e-14 at a = 1003.5
        assert np.max(np.abs(j - jv(k, a))) <= 5e-14

    # the callers' tolerances: the oracle's, the exponential step factor's
    # and the product form's, each on the dropped orders of one side
    @pytest.mark.parametrize("tol", [oracle.CHEB_TOL / 2.0, SERIES_TOL / 2.0, 1e-17])
    @pytest.mark.parametrize("least", [1, 2])
    @pytest.mark.parametrize("a", [0.0, 1e-300, 2e-15, 0.5, 1.0, 7.3, 40.0, 300.0])
    def test_bessel_orders_against_scipy(self, a, tol, least):
        j, tail = oracle._bessel_orders(a, tol, least)
        k = np.arange(j.size)
        assert j.size >= least
        # below 1e-50, a is taken as 1e-50; jv's own error reaches about 1e-14 at a = 300
        assert np.allclose(j, jv(k, a), rtol=1e-12, atol=2e-14 if a > 1.0 else 1e-50)
        dropped = np.sum(np.abs(jv(np.arange(j.size, int(2 * a) + 200), a)))
        assert dropped <= tail * (1.0 + 1e-12)
        assert tail <= tol
        if least == 2 and a == 2e-15:
            # the tiny-duration propagation needs J_1, not a zero
            assert j[1] == pytest.approx(1e-15, rel=1e-15)

    def test_next_fast_len_matches_scipy(self):
        # every size up to 4096, then each 11-smooth size up to 2^17 and the
        # size after it, from which the walk runs to the next smooth size
        smooth = {1}
        for prime in (2, 3, 5, 7, 11):
            for k in sorted(smooth):
                while k * prime <= 2**17:
                    k *= prime
                    smooth.add(k)
        sizes = sorted(set(range(1, 4097)) | smooth | {k + 1 for k in smooth})
        assert [oracle._next_fast_len(n) for n in sizes] == [next_fast_len(n) for n in sizes]


class TestReciprocity:
    """The grid ``H`` is real symmetric, so ``exp(-iHT)`` is symmetric: one
    propagated read-out row gives every source's value at its point."""

    @given(
        st.integers(64, 160),
        st.just(FREE)
        | st.lists(
            st.tuples(st.floats(0.1, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 6.28)),
            min_size=1,
            max_size=3,
        ).map(lambda specs: BandLimitedPotential.from_lines([SpectralLine(*ln) for ln in specs]))
        | st.sampled_from(GRID_SPECTRA),
        st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @example(64, FREE, [1.0], 0)
    @example(65, FREE, [0.3, 2.0], 1)
    @example(64, BandLimitedPotential.from_lines([(2.0, 1.5, 0.2), (0.3, -0.7, 1.0)]), [1.0], 2)
    @example(97, GRID_SPECTRA[0], [0.5, 1.0, 2.0], 3)
    @example(128, GRID_SPECTRA[1], [2.0], 4)
    @settings(max_examples=30, deadline=None)
    def test_propagation_is_symmetric(self, n, p, durations, seed):
        # the grid resolves every drawn band: dx = 16/n <= 0.25, R <= 2
        x = make_grid(8.0, n)
        g, w = np.random.default_rng(seed).standard_normal((2, n))
        ug, uw = (
            oracle._propagate_rows(WavefunctionGrid(x=x, psi=r), p, [durations])[0] for r in (g, w)
        )
        tol = 1e-12 * np.linalg.norm(w) * np.linalg.norm(g)
        for d in range(len(durations)):
            assert abs(w @ ug[d] - g @ uw[d]) <= tol

    @pytest.mark.parametrize("n", [64, 65])
    def test_readout_is_the_interpolant(self, n):
        # (1/n) sum over the wavenumbers 2 pi m / (n dx) of exp(i k (z - x_j)),
        # the cosines of m = -(n-1)//2 .. n//2, with the Nyquist m = n/2 once
        x = make_grid(8.0, n)
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        m = np.arange(-((n - 1) // 2), n // 2 + 1)
        for z in (-7.3, 0.0, 0.123, 7.95):
            w = np.cos(TWO_PI * np.outer(z - x, m) / (n * (x[1] - x[0]))).sum(axis=1) / n
            assert np.max(np.abs(rows @ oracle._readout(x, z) - rows @ w)) <= 1e-13
        # at every grid node it returns that node's sample: here of smooth rows,
        # like the oracle's
        smooth = np.array([gaussian_packet(x, c, 1.0, momentum=1.0).psi for c in (-2.0, 0.0, 1.5)])
        for j in range(n):
            assert np.max(np.abs(smooth @ oracle._readout(x, x[j]) - smooth[:, j])) <= 1e-14

    @pytest.mark.parametrize("n", [64, 512, 1029, 3072])
    def test_readout_at_a_node_is_its_unit_vector(self, n):
        # the phases run from the nearest node: from x_0 they carried the rounding of k (z - x_0),
        # up to pi n, and the worst node's l1 distance grew with n (6.6e-14 at 64, 2.6e-9 at 3072)
        x = make_grid(8.0, n)
        eye = np.eye(n)
        worst = max(np.abs(oracle._readout(x, x[j]) - eye[j]).sum() for j in range(n))
        assert worst <= 1e-14


class TestAccuracy:
    """Round-off of the exact route on the inputs of criteria 8 and 6."""

    def test_norm_drift_criterion_8(self):
        x = make_grid(20.0, 2048)
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        w = gaussian_packet(x, 0.0, 1.0, momentum=1.0)
        assert abs(propagate(w, p, 1.0).norm() - w.norm()) <= 5e-13 * w.norm()

    def test_amplitude_composition_criterion_6(self):
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        res = ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode="amplitude")
        assert res.residual <= 1e-13


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
        # the first-order Born value of |K|^2 - |K0|^2 is linear in a; the
        # oracle's distance from it is second order, so it shrinks about four
        # times as a halves (a slip in the coupling would leave it linear)
        q, phi, T, za, zb = 1.0, 0.3, 1.0, -0.3, 0.4
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
        born = 2.0 * np.real(np.conj(A0) * -0.5j * A0 * tot)  # per unit a

        residuals = []
        for a in (0.2, 0.1, 0.05):
            p = BandLimitedPotential.single_line(a=a, q=q, phi=phi)
            measured = kernel_estimate(p, za, zb, T).modulus_squared - abs(A0) ** 2
            assert measured * born > 0  # same sign
            assert measured == pytest.approx(a * born, rel=0.1)
            residuals.append(abs(measured - a * born))
        for ratio in np.divide(residuals[:-1], residuals[1:]):
            assert 3.0 <= ratio <= 5.0

    def test_short_time_approaches_free(self):
        p = BandLimitedPotential.single_line(a=0.05, q=1.0, phi=0.3)
        devs = []
        for T in (0.5, 0.25, 0.125):
            est = kernel_estimate(p, -0.3, 0.4, T)
            free = free_kernel_exact(-0.3, 0.4, T).amplitude
            devs.append(abs(est.amplitude / free - 1.0))
        assert devs[0] > devs[1] > devs[2]

    # Criterion 10's input: weak cosine a = 0.1, q = 1 from 0 to 0.3 over T = 1.
    # Reference: the _source_amplitudes of eight widths np.linspace(0.4, 0.1, 8),
    # propagated together on make_grid(40.0, 4000) (dx = 0.02; the 0.1-wide
    # source's periodic image at z_b stays below 1e-12), and the intercept of
    # the least-squares quartic in sigma^2 through them.  The cubic's intercept
    # lies 9.3e-8 from it, 40 times below the quadratic route's error.
    WEAK_REFERENCE = complex(0.2645482457714375, -0.2942547925625447)

    def test_extrapolation_error_bounds_reference(self):
        p = BandLimitedPotential.single_line(a=0.1, q=1.0)
        za, zb, T = 0.0, 0.3, 1.0
        est = kernel_estimate(p, za, zb, T)
        assert abs(est.amplitude - self.WEAK_REFERENCE) <= est.extrapolation_residual
        # the linear route (the fitted line's intercept, with its largest
        # residual as the error) undercounts its own error on the same rows
        x, _ = oracle._grid(oracle._image_safe_half_width(za, zb, T), None)
        u = propagate(WavefunctionGrid(x=x, psi=oracle._readout(x, zb)), p, T).psi
        amps = oracle._source_amplitudes(u, x, za, zb, T)
        assert est.amplitude == oracle._sigma2_intercept(amps, 2)
        s2 = np.asarray(oracle.SOURCE_SIGMAS) ** 2
        line_r, line_i = np.polyfit(s2, amps.real, 1), np.polyfit(s2, amps.imag, 1)
        linear = complex(line_r[1], line_i[1])
        residual = np.max(np.abs(np.polyval(line_r, s2) + 1j * np.polyval(line_i, s2) - amps))
        assert not abs(linear - self.WEAK_REFERENCE) <= residual

    def test_unresolvable_width_rejected(self):
        with pytest.raises(ValueError, match="resolvable"):
            kernel_estimate(FREE, 0.0, 0.0, 1.0, half_width=20.0, n_points=256)

    def test_default_grid_size(self):
        # the smallest FFT-friendly size >= 1024 with dx <= 0.04, not a power of two
        for half_width, n in ((12.7, 1024), (20.48, 1024), (20.5, 1029), (93.3, 4704)):
            x, dx = oracle._grid(half_width, None)
            assert x.size == n and dx <= 0.04

    def test_grid_size_out_of_range_rejected(self, monkeypatch):
        # checked before _next_fast_len, which would search from about 5e301
        calls = counting(monkeypatch, "_next_fast_len")
        for half_width, n_points in ((1e300, None), (math.inf, None), (20.0, 2**24 + 1)):
            with pytest.raises(ValueError, match="oracle grid too large"):
                oracle._grid(half_width, n_points)
        assert calls == []
        for n_points in (1, 0, -5):
            with pytest.raises(ValueError, match="needs L >= 2"):
                oracle._grid(20.0, n_points)

    def test_one_stacked_propagation(self, monkeypatch):
        # one row, the read-out at z_b, serves every source width
        calls = counting(monkeypatch)
        kernel_estimate(FREE, -0.3, 0.5, 0.2, half_width=12.7, n_points=512)
        assert len(calls) == 1
        assert calls[0][0].psi.shape == (1, 512)


class TestCompositionCheck:
    def test_amplitude_mode_closes(self):
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        res = ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode="amplitude")
        assert res.residual <= 1e-6

    def test_probability_mode_fails(self):
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        res = ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode="probability")
        assert res.residual > 0.05

    def test_one_propagation_pass_per_mode(self, monkeypatch):
        # rows [src_a, src_b], each to its own durations: the amplitude mode
        # takes src_a also to T, the probability mode adds the direct kernel's
        # read-out at z_b, to T
        calls = counting(monkeypatch, "_propagate_rows")
        per_row = {"amplitude": ((0.6, 1.0), (0.4,)), "probability": ((0.6,), (0.4,), (1.0,))}
        for mode, expected in per_row.items():
            calls.clear()
            ck_check(FREE, -0.2, 0.0, 0.6, 0.4, 1.0, mode=mode, half_width=12.7, n_points=512)
            assert len(calls) == 1
            psi0, _, durations = calls[0]
            assert psi0.psi.shape == (len(expected), 512)
            assert [tuple(ts) for ts in durations] == [pytest.approx(ts) for ts in expected]

    def test_unknown_mode_rejected_before_propagating(self, monkeypatch):
        calls = counting(monkeypatch, "_propagate_rows")
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            ck_check(FREE, -0.2, 0.0, 0.6, 0.4, 1.0, mode="bogus")
        assert calls == []

    def test_grid_without_endpoints_rejected_before_propagating(self, monkeypatch):
        # X <= max(|za|, |zb|) + 4 leaves an endpoint outside ck's window
        calls = counting(monkeypatch, "_propagate_rows")
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        for mode in ("probability", "amplitude"):
            with pytest.raises(ValueError, match="does not hold the endpoints"):
                ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode=mode, half_width=4.4)
        with pytest.raises(ValueError, match="does not hold the endpoints"):
            kernel_estimate(p, 0.0, 0.0, 1.0, half_width=0.3)
        assert calls == []

    def test_unresolvable_grid_rejected_before_propagating(self, monkeypatch):
        # dx = 0.2 cannot resolve the direct kernel's 0.2-wide source
        calls = counting(monkeypatch, "_propagate_rows")
        p = BandLimitedPotential.single_line(a=0.5, q=1.0)
        with pytest.raises(ValueError, match="smallest source width 0.2 is not resolvable"):
            ck_check(p, -0.2, 0.0, 0.6, 0.4, 1.0, mode="probability", half_width=12.7, n_points=128)
        assert calls == []

    def test_free_probability_nonconvergent(self):
        res = ck_check(FREE, 0.0, 0.0, 0.5, 0.0, 1.0, mode="probability")
        assert not res.converged

    def test_time_ordering_enforced(self):
        with pytest.raises(ValueError):
            ck_check(FREE, 0.0, 0.0, 1.5, 0.0, 1.0)


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: free_kernel_exact(0.0, 0.5, math.nan), "duration must be finite"),
            (lambda: free_kernel_exact(math.nan, 0.5, 1.0), "z_a must be finite"),
            (lambda: free_kernel_exact(0.0, math.inf, 1.0), "z_b must be finite"),
            (lambda: kernel_estimate(LINE, 0.0, math.nan, 1.0), "z_b must be finite"),
            (lambda: kernel_estimate(LINE, 0.0, 0.3, math.nan), "duration must be finite"),
            (lambda: ck_check(LINE, -0.2, 0.0, 0.6, math.nan, 1.0), "z_b must be finite"),
            (lambda: ck_check(LINE, math.nan, 0.0, 0.6, 0.4, 1.0, mode="amplitude"),
             "z_a must be finite"),
            (lambda: ck_check(LINE, -0.2, 0.0, 0.6, 0.4, math.inf), "need finite t_a < t_c < t_b"),
            (lambda: propagate(gaussian_packet(make_grid(8.0, 128), 0.0, 1.0), LINE, math.nan),
             "duration must be finite"),
            (lambda: propagate(gaussian_packet(make_grid(8.0, 128), 0.0, 1.0), LINE, math.inf),
             "duration must be finite"),
        ],
        ids=[
            "free-duration", "free-za", "free-zb", "kernel-zb", "kernel-duration",
            "ck-zb", "ck-za", "ck-tb", "propagate-nan", "propagate-inf",
        ],
    )
    def test_rejected_by_name_before_any_grid(self, monkeypatch, call, match):
        calls = counting(monkeypatch, "_grid")
        with pytest.raises(ValueError, match=match):
            call()
        assert calls == []

    @pytest.mark.parametrize("estimator", ["kernel_estimate", "ck_check"])
    @pytest.mark.parametrize(
        "half_width, n_points, match",
        [
            (math.inf, 512, "half-width X must be finite, got X = inf"),
            (math.nan, 512, "half-width X must be finite, got X = nan"),
            (20.0, math.nan, "whole number of points L, got L = nan"),
            (20.0, math.inf, "whole number of points L, got L = inf"),
            (20.0, 512.5, "whole number of points L, got L = 512.5"),
        ],
        ids=["X-inf", "X-nan", "L-nan", "L-inf", "L-fraction"],
    )
    def test_grid_arguments_rejected_by_name(self, monkeypatch, estimator, half_width, n_points,
                                             match):
        # an infinite X once built a nan grid, a nan L read as "too large", and
        # L = 512.5 built 513 points spaced 40/512.5 apart, so not periodic
        calls = counting(monkeypatch, "make_grid")
        grid = dict(half_width=half_width, n_points=n_points)
        with pytest.raises(ValueError, match=match):
            if estimator == "kernel_estimate":
                kernel_estimate(LINE, -0.2, 0.4, 1.0, **grid)
            else:
                ck_check(LINE, -0.2, 0.0, 0.6, 0.4, 1.0, mode="amplitude", **grid)
        assert calls == []


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
