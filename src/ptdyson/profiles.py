"""Real scalar coefficient functions of time and their running integrals.

Every closed form downstream is written in terms of one or two driver
coefficients and the integral of one of them from 0 to t, so profiles carry
an exact antiderivative wherever one exists.  Each factory builds its kind's
value, derivative and running integral once.  Supported kinds:

    constant     v
    polynomial   sum_k c_k t^k (a numpy Polynomial)
    sinusoid     offset + amp*sin(omega*t + phase)
    exponential  offset + amp*exp(rate*t)
    tabulated    cubic-spline interpolation of sampled data

For the closed-form kinds the cumulative integral is analytic.  For
tabulated data the spline itself is the profile, so integrating the spline
exactly (polynomial antiderivative per segment) introduces no additional
error beyond the interpolation already accepted.
"""

import math
import numbers

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError

# Slack on the domain check, so staged ODE evaluation at t_end + rounding
# does not trip the guard.
_DOMAIN_SLACK = 1e-9

# Fields of a config record per kind, (required, optional); each is the
# keyword of that kind's factory.
_KIND_FIELDS = {
    "constant": (("value",), ("t_max",)),
    "polynomial": (("coeffs",), ("t_max",)),
    "sinusoid": (("offset", "amp", "omega"), ("phase", "t_max")),
    "exponential": (("offset", "amp", "rate"), ("t_max",)),
    "tabulated": (("times", "values"), ("t_max",)),
}
_LIST_FIELDS = ("coeffs", "times", "values")


def _is_finite_number(value):
    """True for a finite int or float; False for a bool, and for an int too
    large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _kind_fields(record):
    """(required, optional) fields of the record's kind; DomainError if unknown."""
    kind = record.get("kind")
    if not (isinstance(kind, str) and kind in _KIND_FIELDS):
        raise DomainError(
            f"kind must be one of {', '.join(_KIND_FIELDS)}, got {kind!r}"
        )
    return _KIND_FIELDS[kind]


def _check_field(field, value):
    """DomainError, starting with the field, unless value is finite numbers."""
    if field in _LIST_FIELDS:
        if not (
            isinstance(value, (list, tuple))
            and len(value) > 0
            and all(_is_finite_number(v) for v in value)
        ):
            raise DomainError(
                f"{field} must be a non-empty list of finite numbers, got {value!r}"
            )
    elif not _is_finite_number(value):
        raise DomainError(f"{field} must be a finite number, got {value!r}")


class TimeProfile:
    """A deterministic real function on [0, t_max] with exact integrals.

    `value`, `derivative` and `cumulative` (the integral from 0) are
    callables of a float array; the factories (`constant`, `sinusoid`, ...)
    build them for their kind.  Instances are immutable and safe to share.
    """

    def __init__(self, kind, value, derivative, cumulative, t_max=np.inf):
        self.kind = kind
        self._value = value
        self._derivative = derivative
        self._cumulative = cumulative
        self.t_max = float(t_max)
        if self.t_max <= 0:
            raise DomainError(f"t_max must be > 0, got {t_max}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def constant(cls, value, t_max=np.inf):
        value = float(value)
        return cls(
            "constant",
            lambda t: np.full_like(t, value),
            np.zeros_like,
            lambda t: value * t,
            t_max,
        )

    @classmethod
    def polynomial(cls, coeffs, t_max=np.inf):
        """coeffs in increasing order: coeffs[k] multiplies t**k."""
        p = np.polynomial.Polynomial([float(c) for c in coeffs])
        return cls("polynomial", p, p.deriv(), p.integ(), t_max)

    @classmethod
    def sinusoid(cls, offset, amp, omega, phase=0.0, t_max=np.inf):
        offset, amp, omega, phase = map(float, (offset, amp, omega, phase))
        if omega == 0.0:
            cumulative = lambda t: (offset + amp * np.sin(phase)) * t
        else:
            cos0 = np.cos(phase)
            cumulative = lambda t: offset * t - (amp / omega) * (
                np.cos(omega * t + phase) - cos0
            )
        return cls(
            "sinusoid",
            lambda t: offset + amp * np.sin(omega * t + phase),
            lambda t: amp * omega * np.cos(omega * t + phase),
            cumulative,
            t_max,
        )

    @classmethod
    def exponential(cls, offset, amp, rate, t_max=np.inf):
        offset, amp, rate = map(float, (offset, amp, rate))
        if rate == 0.0:
            cumulative = lambda t: (offset + amp) * t
        else:
            cumulative = lambda t: offset * t + (amp / rate) * (np.exp(rate * t) - 1.0)
        return cls(
            "exponential",
            lambda t: offset + amp * np.exp(rate * t),
            lambda t: amp * rate * np.exp(rate * t),
            cumulative,
            t_max,
        )

    @classmethod
    def tabulated(cls, times, values, t_max=np.inf):
        """Cubic spline through (times, values); the domain ends at the last node."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 4:
            raise DomainError("times must hold at least 4 nodes")
        if np.any(np.diff(times) <= 0):
            raise DomainError("times must increase")
        if times[0] != 0.0:
            raise DomainError("times must start at 0")
        if values.shape != times.shape:
            raise DomainError("values must hold one entry per node in times")
        spline = CubicSpline(times, values)
        # the antiderivative is exactly 0 at the first node, t = 0
        return cls(
            "tabulated",
            spline,
            spline.derivative(),
            spline.antiderivative(),
            min(float(t_max), float(times[-1])),
        )

    @classmethod
    def from_config(cls, record):
        """Build a profile from a tagged record, e.g. from the CLI config.

        {"kind": "sinusoid", "offset": 0.5, "amp": 0.3, "omega": 1.0,
         "phase": 0.0} and analogously for the other kinds.  An optional
        "t_max" key restricts the domain.  Each field the kind reads must
        be a finite number ("coeffs", "times", "values": a non-empty list
        of them).  Keys the kind does not read are ignored.  Every
        DomainError raised here starts with the name of the offending field.
        """
        required, optional = _kind_fields(record)
        for field in required:
            if field not in record:
                raise DomainError(
                    f"{field} is required for a {record['kind']} profile"
                )
        args = {
            field: record[field] for field in required + optional if field in record
        }
        for field, value in args.items():
            _check_field(field, value)
        return getattr(cls, record["kind"])(**args)

    # -- evaluation --------------------------------------------------------

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        slack = _DOMAIN_SLACK * max(1.0, self.t_max if np.isfinite(self.t_max) else 1.0)
        if np.any(t < -slack) or np.any(t > self.t_max + slack):
            raise DomainError(
                f"time outside profile domain [0, {self.t_max}]"
            )
        return t

    def evaluate(self, t):
        """Profile value at t: a NumPy scalar for scalar t, an array for array t."""
        return self._value(self._check_domain(t))[()]

    __call__ = evaluate

    def derivative(self, t):
        """d/dt of the profile, analytic for every kind."""
        return self._derivative(self._check_domain(t))[()]

    def cumulative(self, t):
        """Integral of the profile from 0 to t, cumulative(0) = 0."""
        return self._cumulative(self._check_domain(t))[()]
