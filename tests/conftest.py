"""Evaluations that tests in more than one module share."""

import tracemalloc
from types import SimpleNamespace

import pytest

from pathprob.lattice import LatticeConfig
from pathprob.potentials import BandLimitedPotential
from pathprob.quadrature import amplitude_discrete, probability_product_form


def _traced(f, *args):
    """``f(*args)`` and its peak memory under ``tracemalloc``, in bytes."""
    tracemalloc.start()
    try:
        value = f(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced():
    """``traced(f, *args)``: ``f(*args)`` and its ``tracemalloc`` peak in bytes."""
    return _traced


@pytest.fixture(scope="session")
def criterion_4():
    """Criterion 4's input with its ``amplitude_discrete`` and
    ``probability_product_form``, each evaluated once a session (the product
    form takes seconds) and traced: ``amplitude_peak`` and
    ``product_form_peak`` are their peak memory in bytes."""
    p = BandLimitedPotential.single_line(a=0.2, q=1.0, phi=0.3)
    cfg = LatticeConfig(0.0, 3.0, 3, 1.0, 0.1, -0.2)
    amplitude, amplitude_peak = _traced(amplitude_discrete, p, cfg)
    product_form, product_form_peak = _traced(probability_product_form, p, cfg)
    return SimpleNamespace(
        amplitude=amplitude,
        amplitude_peak=amplitude_peak,
        product_form=product_form,
        product_form_peak=product_form_peak,
    )
