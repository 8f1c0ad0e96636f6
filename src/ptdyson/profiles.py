"""Real scalar coefficient functions of time and their running integrals.

Every closed form downstream is written in terms of one or two driver
coefficients and the integral of one of them from 0 to t, so profiles carry
an exact antiderivative wherever one exists.  Supported kinds:

    constant     v
    polynomial   sum_k c_k t^k
    sinusoid     offset + amp*sin(omega*t + phase)
    exponential  offset + amp*exp(rate*t)
    tabulated    cubic-spline interpolation of sampled data

For the closed-form kinds the cumulative integral is analytic.  For
tabulated data the spline itself is the profile, so integrating the spline
exactly (polynomial antiderivative per segment) introduces no additional
error beyond the interpolation already accepted.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError

# Slack on the domain check, so staged ODE evaluation at t_end + rounding
# does not trip the guard.
_DOMAIN_SLACK = 1e-9


class TimeProfile:
    """A deterministic real function on [0, t_max] with exact integrals.

    Use the factory classmethods (`constant`, `sinusoid`, ...) rather than
    the raw constructor.  Instances are immutable after construction and
    safe to share.
    """

    def __init__(self, kind, params, t_max=np.inf):
        self.kind = kind
        self.params = dict(params)
        self.t_max = float(t_max)
        if self.t_max <= 0:
            raise DomainError("profile domain must satisfy t_max > 0")
        if kind == "tabulated":
            times = np.asarray(self.params["times"], dtype=float)
            values = np.asarray(self.params["values"], dtype=float)
            if times.ndim != 1 or times.size < 4:
                raise DomainError("tabulated profile needs at least 4 nodes")
            if np.any(np.diff(times) <= 0):
                raise DomainError("tabulated profile nodes must increase")
            if times[0] != 0.0:
                raise DomainError("tabulated profile must start at t = 0")
            self._spline = CubicSpline(times, values)
            self._spline_int = self._spline.antiderivative()
            self._spline_der = self._spline.derivative()
            self.t_max = min(self.t_max, float(times[-1]))

    # -- factories ---------------------------------------------------------

    @classmethod
    def constant(cls, value, t_max=np.inf):
        return cls("constant", {"value": float(value)}, t_max)

    @classmethod
    def polynomial(cls, coeffs, t_max=np.inf):
        """coeffs in increasing order: coeffs[k] multiplies t**k."""
        return cls("polynomial", {"coeffs": [float(c) for c in coeffs]}, t_max)

    @classmethod
    def sinusoid(cls, offset, amp, omega, phase=0.0, t_max=np.inf):
        return cls(
            "sinusoid",
            {
                "offset": float(offset),
                "amp": float(amp),
                "omega": float(omega),
                "phase": float(phase),
            },
            t_max,
        )

    @classmethod
    def exponential(cls, offset, amp, rate, t_max=np.inf):
        return cls(
            "exponential",
            {"offset": float(offset), "amp": float(amp), "rate": float(rate)},
            t_max,
        )

    @classmethod
    def tabulated(cls, times, values, t_max=np.inf):
        return cls("tabulated", {"times": list(times), "values": list(values)}, t_max)

    @classmethod
    def from_config(cls, record):
        """Build a profile from a tagged record, e.g. from the CLI config.

        {"kind": "sinusoid", "offset": 0.5, "amp": 0.3, "omega": 1.0,
         "phase": 0.0} and analogously for the other kinds.  An optional
        "t_max" key restricts the domain.
        """
        rec = dict(record)
        kind = rec.pop("kind", None)
        t_max = rec.pop("t_max", np.inf)
        if kind == "constant":
            return cls.constant(rec["value"], t_max)
        if kind == "polynomial":
            return cls.polynomial(rec["coeffs"], t_max)
        if kind == "sinusoid":
            return cls.sinusoid(
                rec["offset"], rec["amp"], rec["omega"], rec.get("phase", 0.0), t_max
            )
        if kind == "exponential":
            return cls.exponential(rec["offset"], rec["amp"], rec["rate"], t_max)
        if kind == "tabulated":
            return cls.tabulated(rec["times"], rec["values"], t_max)
        raise DomainError(f"unknown profile kind: {kind!r}")

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
        t = self._check_domain(t)
        p = self.params
        if self.kind == "constant":
            out = np.full_like(t, p["value"])
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(t, p["coeffs"])
        elif self.kind == "sinusoid":
            out = p["offset"] + p["amp"] * np.sin(p["omega"] * t + p["phase"])
        elif self.kind == "exponential":
            out = p["offset"] + p["amp"] * np.exp(p["rate"] * t)
        else:
            out = self._spline(t)
        return out[()]

    __call__ = evaluate

    def derivative(self, t):
        """d/dt of the profile, analytic for every kind."""
        t = self._check_domain(t)
        p = self.params
        if self.kind == "constant":
            out = np.zeros_like(t)
        elif self.kind == "polynomial":
            c = np.polynomial.polynomial.polyder(p["coeffs"])
            out = np.polynomial.polynomial.polyval(t, c)
        elif self.kind == "sinusoid":
            out = p["amp"] * p["omega"] * np.cos(p["omega"] * t + p["phase"])
        elif self.kind == "exponential":
            out = p["amp"] * p["rate"] * np.exp(p["rate"] * t)
        else:
            out = self._spline_der(t)
        return out[()]

    def cumulative(self, t):
        """Integral of the profile from 0 to t, cumulative(0) = 0."""
        t = self._check_domain(t)
        p = self.params
        if self.kind == "constant":
            out = p["value"] * t
        elif self.kind == "polynomial":
            c = np.polynomial.polynomial.polyint(p["coeffs"])
            out = np.polynomial.polynomial.polyval(t, c)
        elif self.kind == "sinusoid":
            w, ph = p["omega"], p["phase"]
            if w == 0.0:
                out = (p["offset"] + p["amp"] * np.sin(ph)) * t
            else:
                out = p["offset"] * t - (p["amp"] / w) * (
                    np.cos(w * t + ph) - np.cos(ph)
                )
        elif self.kind == "exponential":
            r = p["rate"]
            if r == 0.0:
                out = (p["offset"] + p["amp"]) * t
            else:
                out = p["offset"] * t + (p["amp"] / r) * (np.exp(r * t) - 1.0)
        else:
            out = self._spline_int(t) - self._spline_int(0.0)
        return out[()]
