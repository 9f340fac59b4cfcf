"""Result types of the estimators, the oracle and the scans, and their output forms.

Every result is a frozen dataclass over :class:`_Result`, whose ``to_dict``
is its one JSON-ready form; ``_write_csv`` writes rows as a CSV table.  This
module imports nothing from the package, so any module may import it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any

__all__ = [
    "TransitionEstimate",
    "KernelEstimate",
    "CKResult",
    "ScanResult",
    "WeightResult",
    "PositivityResult",
]


def _jsonable(obj):
    """Make a structure JSON-safe: inf/nan become strings, tuples and arrays lists."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    return obj


def _write_csv(fh, rows) -> None:
    """Write ``rows``, dicts keyed like the first, to ``fh`` as a CSV table with a header."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
    writer.writeheader()
    writer.writerows(_jsonable(rows))


@dataclass(frozen=True)
class _Result:
    """Base of the result types: their one JSON-ready form."""

    def to_dict(self) -> dict:
        """The fields in order, without ``None`` and ``()``; a field annotated
        ``complex`` becomes ``<name>_re`` and ``<name>_im`` whatever its value's type."""
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or (isinstance(v, tuple) and not v):
                continue
            if f.type in ("complex", complex):
                d[f"{f.name}_re"], d[f"{f.name}_im"] = v.real, v.imag
            else:
                d[f.name] = v
        return _jsonable(d)


@dataclass(frozen=True)
class TransitionEstimate(_Result):
    """Relative transition probability (per squared length) with uncertainty."""

    value: float
    std_error: float
    method: str
    n: int
    eps: float
    gamma: float
    refinement: tuple = field(default=())
    ess: float | None = None
    negative_mass_fraction: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class KernelEstimate(_Result):
    """Complex transition amplitude and its squared modulus."""

    amplitude: complex
    extrapolation_residual: float | None = None

    @property
    def modulus_squared(self) -> float:
        return float(abs(self.amplitude) ** 2)


@dataclass(frozen=True)
class CKResult(_Result):
    """Both sides of a composition identity plus its relative residual."""

    lhs: complex
    rhs: complex
    residual: float
    mode: str
    converged: bool
    window: float


@dataclass(frozen=True)
class ScanResult(_Result):
    """Rows of a scan plus everything needed to reproduce them."""

    name: str
    rows: list
    provenance: dict
    summary: dict = field(default_factory=dict)

    def write(self, out_prefix: str) -> tuple:
        """Write ``<prefix>.csv`` and ``<prefix>.provenance.json``."""
        csv_path = f"{out_prefix}.csv"
        json_path = f"{out_prefix}.provenance.json"
        with open(csv_path, "w", newline="") as fh:
            _write_csv(fh, self.rows)
        sidecar = self.to_dict()
        sidecar.pop("rows", None)
        with open(json_path, "w") as fh:
            json.dump(sidecar, fh, indent=2)
        return csv_path, json_path


@dataclass(frozen=True)
class WeightResult(_Result):
    """Weight ``W = n prod Q_j`` of one path, its per-step ``s``, ``M`` and ``Q``
    (arrays of length n-1), and the positivity thresholds it was judged against."""

    W: float
    sign: int
    logabsW: float
    lambda_paper: float
    lambda_strict: float
    positive: bool
    s: Any
    M: Any
    Q: Any

    def __post_init__(self):
        if not (len(self.s) == len(self.M) == len(self.Q)):
            raise ValueError("s, M, Q must have equal length")
        if not all(map(math.isfinite, self.Q)):
            raise ValueError("non-finite step factor Q")

    def to_dict(self) -> dict:
        """The fields, with ``s``, ``M`` and ``Q`` as ``per_step`` rows ``{j, s, M, Q}``, ``j``
        from 1."""
        d = super().to_dict()
        steps = zip(d.pop("s"), d.pop("M"), d.pop("Q"))
        d["per_step"] = [{"j": j, "s": s, "M": m, "Q": q} for j, (s, m, q) in enumerate(steps, 1)]
        return d


@dataclass(frozen=True)
class PositivityResult(_Result):
    """The step sizes below which every step factor is nonnegative, for one ``gamma``.

    ``m_sup`` is the certified ``sup |M|``, set where the potential has lines;
    ``witness`` is the CLI's check of the strict threshold at a point near that
    supremum.
    """

    gamma: float
    lambda_paper: float
    lambda_strict: float
    m_sup: float | None = None
    witness: dict | None = None

    def to_dict(self) -> dict:
        """The fields, and ``m_sup_certified: true`` beside a set ``m_sup``."""
        d = super().to_dict()
        if self.m_sup is not None:
            d["m_sup_certified"] = True
        return d
