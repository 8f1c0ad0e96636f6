"""Real scalar coefficient functions of time and their running integrals.

Every closed form downstream is written in terms of one or two driver
coefficients and the integral of one of them from 0 to t, so profiles carry
an exact antiderivative wherever one exists.  Each factory builds its kind's
value, derivative and running integral once.  Supported kinds:

    constant     v
    polynomial   sum_k c_k t^k (a numpy Polynomial)
    sinusoid     offset + amp*sin(omega*t + phase)
    exponential  offset + amp*exp(rate*t)
    tabulated    not-a-knot cubic spline through sampled data

For the closed-form kinds the cumulative integral is analytic.  For
tabulated data the spline itself is the profile, so integrating the spline
exactly (polynomial antiderivative per segment) introduces no additional
error beyond the interpolation already accepted.

The spline is de Boor's not-a-knot cubic: one piecewise cubic with
continuous second derivative, whose third derivative is also continuous at
the second and the last-but-one node.  The node slopes come from one
tridiagonal solve; each segment is then a cubic in t - t_i, evaluated by
Horner's rule for the value, the derivative and the antiderivative, whose
constant terms are the running sums of the exact segment integrals.
"""

import math
import numbers
from functools import partial

import numpy as np

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


def _solve_tridiagonal(lower, diag, upper, rhs):
    """x with diag[i] x[i] + lower[i-1] x[i-1] + upper[i] x[i+1] = rhs[i].

    Elimination without pivoting.  For the spline system below every
    pivot is positive: the interior rows are diagonally dominant, and
    eliminating the first row leaves the second a pivot of h0 + h1.
    """
    n = diag.size
    lower, diag, upper, rhs = (a.tolist() for a in (lower, diag, upper, rhs))
    for i in range(1, n):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    x = [0.0] * n
    x[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - upper[i] * x[i + 1]) / diag[i]
    return np.array(x)


def _horner(coeffs, breaks, interior, t):
    """Piecewise polynomial at t: coeffs[:, i], highest power first, in
    powers of t - breaks[i] on [breaks[i], breaks[i+1]).  The last segment
    also takes its right end, and the outer segments extend beyond the
    breaks; interior is breaks[1:-1]."""
    i = np.searchsorted(interior, t, side="right")
    dt = t - breaks[i]
    c = coeffs.take(i, axis=1)
    out = c[0]
    for ck in c[1:]:
        out = out * dt + ck
    return out


def _not_a_knot_spline(times, values):
    """(value, derivative, cumulative) of the not-a-knot cubic spline.

    times increase and hold at least 4 nodes; cumulative is the exact
    integral from times[0], so it is exactly 0 there.
    """
    h = np.diff(times)
    slope = np.diff(values) / h
    # Node slopes s: the second derivative is continuous at the interior
    # nodes (rows 1..n-2), and the third at the second and last-but-one
    # nodes (rows 0 and n-1, the not-a-knot conditions).
    diag = np.empty(times.size)
    rhs = np.empty(times.size)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    rhs[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    first, last = h[0] + h[1], h[-1] + h[-2]
    lower = np.append(h[1:], last)
    upper = np.insert(h[:-1], 0, first)
    diag[0], diag[-1] = h[1], h[-2]
    rhs[0] = ((h[0] + 2.0 * first) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / first
    rhs[-1] = (
        h[-1] ** 2 * slope[-2] + (2.0 * last + h[-1]) * h[-2] * slope[-1]
    ) / last
    s = _solve_tridiagonal(lower, diag, upper, rhs)
    # the cubic of each segment in powers of t - times[i], from its end values
    # and end slopes (Hermite form)
    excess = (s[:-1] + s[1:] - 2.0 * slope) / h
    cubic = np.array(
        [excess / h, (slope - s[:-1]) / h - excess, s[:-1], values[:-1]]
    )
    rate = cubic[:-1] * np.array([[3.0], [2.0], [1.0]])
    integral = cubic / np.array([[4.0], [3.0], [2.0], [1.0]])
    pieces = (((integral[0] * h + integral[1]) * h + integral[2]) * h + integral[3]) * h
    integral = np.vstack([integral, np.append(0.0, np.cumsum(pieces[:-1]))])
    interior = times[1:-1]
    return (
        partial(_horner, cubic, times, interior),
        partial(_horner, rate, times, interior),
        partial(_horner, integral, times, interior),
    )


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
        slack = _DOMAIN_SLACK * max(1.0, self.t_max if np.isfinite(self.t_max) else 1.0)
        self._lower, self._upper = -slack, self.t_max + slack

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
        """Not-a-knot cubic spline through (times, values); the domain ends at
        the last node."""
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
        return cls(
            "tabulated",
            *_not_a_knot_spline(times, values),
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
        # fmin/fmax skip NaN, so a NaN passes and its neighbours are still
        # checked; an empty array passes
        t = np.asarray(t, dtype=float)
        if (
            np.fmin.reduce(t, axis=None, initial=np.inf) < self._lower
            or np.fmax.reduce(t, axis=None, initial=-np.inf) > self._upper
        ):
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
