"""Run reports, and the JSON codec shared by every record written to a file.

A record is a dataclass whose JSON keys are its field names.  Writing copies
each field, an array as a list; reading coerces each value to its field's
annotated type, takes the field default when a key is absent, and raises
ValidationError when a required key is absent, holds a null that its type
does not allow, or holds a value of the wrong kind (a list for a number, a
number for a list or a string, a string or a bool for a number, a
fractional number for an integer).
"""

from __future__ import annotations

import numbers
import time
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .core import new_simplex
from .errors import ValidationError


def to_record(obj, drop=()) -> dict:
    """JSON-ready dict of a dataclass, minus the fields named in ``drop``."""
    out = {}
    for f in fields(obj):
        if f.name not in drop:
            v = getattr(obj, f.name)
            if isinstance(v, np.ndarray):
                v = v.tolist()
            elif isinstance(v, (list, tuple)):
                v = list(v)
            elif isinstance(v, dict):
                v = dict(v)
            out[f.name] = v
    return out


# the JSON values each field type accepts
_JSON_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str, dict: dict}


def _coerce(tp, value):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # "X | None"
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _coerce(tp, value)
    if value is None:
        raise ValidationError("null where a value is required")
    if tp is np.ndarray:  # a JSON list of numbers
        return np.array(_coerce(list[float], value))
    if origin in (list, tuple):
        if isinstance(value, str):  # a bare string is a one-element sequence
            value = [value]
        items = [_coerce(args[0], v) for v in value]
        return items if origin is list else tuple(items)
    if tp in _JSON_KINDS:  # JSON true/false fills a bool field and no other
        if isinstance(value, bool) != (tp is bool) or not isinstance(value, _JSON_KINDS[tp]):
            raise ValidationError(f"expected {tp.__name__}, got {value!r}")
    return tp(value)


def from_record(cls, d: dict):
    """Build ``cls`` from a dict written by ``to_record``."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            try:
                kwargs[f.name] = _coerce(hints[f.name], d[f.name])
            except (TypeError, OverflowError, ValidationError) as exc:
                raise ValidationError(f"{cls.__name__} field {f.name!r}: {exc}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{cls.__name__} missing field {f.name!r}")
    return cls(**kwargs)


@dataclass
class RunReport:
    """Inputs digest, schedule, output distribution, and diagnostics of a run.

    ``p_priv`` of a release is finite, since both releases raise
    DegenerateSchedule rather than return a non-finite distribution, and
    ``from_dict`` validates it as a distribution.  ``population_max_error``
    is present only when the caller supplied the true generating
    distribution (synthetic benchmarks).  ``p_priv`` and
    ``per_query_answers`` are float arrays (8 bytes a value, against about 32
    in a list of Python floats) and JSON lists in files.  ``timings`` holds
    wall-clock seconds and is the one volatile field: file writers drop it by
    default so serialized reports stay byte-reproducible.
    """

    algorithm: str
    k: int
    m: int
    n: int
    epsilon: float
    delta: float
    alpha: float
    seed: int
    schedule: dict
    p_priv: np.ndarray
    empirical_max_error: float
    per_query_answers: np.ndarray
    no_noise: bool = False
    width: dict | None = None
    regime_ok: bool | None = None
    population_max_error: float | None = None
    diagnostics: dict | None = None
    warnings: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @classmethod
    def of_release(
        cls, *, algorithm, data, workload, budget, alpha, rng, schedule, p_priv,
        empirical_max_error, population_max_error, started, solved,
        width=None, regime_ok=None, **schedule_extra,
    ) -> "RunReport":
        """Report of a finished release; ``started``/``solved`` are perf_counter stamps.

        ``schedule`` is the schedule dataclass actually run, and
        ``schedule_extra`` adds entries to its record; ``width`` is the width
        estimate dataclass, if the solver used one.  The caveat notes
        follow from the inputs: a workload not closed under negation, a
        capped iteration count, a failed regime check, and a zero noise
        scale (``lam`` for DPFW, ``sigma`` for DPAM), which also sets
        ``no_noise``.
        """
        notes = []
        if not workload.symmetric:
            notes.append("workload not closed under negation; errors are signed")
        if schedule.capped:
            notes.append(f"iteration count capped at {schedule.T}")
        if regime_ok is False:
            notes.append("sample size below the smoothing-dominance threshold")
        no_noise = (schedule.lam if algorithm == "dpfw" else schedule.sigma) == 0.0
        if no_noise:
            noise = "selection" if algorithm == "dpfw" else "oracle"
            notes.append(f"NON-PRIVATE DEBUG RUN: {noise} noise disabled, budget not honored")
        return cls(
            algorithm=algorithm, k=workload.k, m=workload.m, n=data.n,
            epsilon=budget.epsilon, delta=budget.delta, alpha=alpha, seed=rng.seed,
            schedule={**to_record(schedule), **schedule_extra},
            p_priv=p_priv.values,
            empirical_max_error=empirical_max_error,
            per_query_answers=workload.queries @ p_priv.values,
            no_noise=no_noise, width=None if width is None else to_record(width),
            regime_ok=regime_ok, population_max_error=population_max_error,
            warnings=notes,
            timings={"total_s": time.perf_counter() - started, "solve_s": solved - started},
        )

    def to_dict(self, include_timings: bool = True) -> dict:
        return to_record(self, () if include_timings else ("timings",))

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        report = from_record(cls, d)
        # a report must carry a valid distribution over its own universe
        if len(report.p_priv) != report.k:
            raise ValidationError(
                f"RunReport has k={report.k} but {len(report.p_priv)} p_priv values"
            )
        new_simplex(report.p_priv)
        return report
