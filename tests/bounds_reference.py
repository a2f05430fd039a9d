"""The continuous Fisher information by adaptive quadrature, and the analytic
Bayesian bound on scipy's Gauss-Hermite nodes, kept as the test oracles of
``bounds.fi_noiseless_continuous`` and
``bounds.bcrb_analytic_gaussian_prior``.

Both are the functions as they ran before the information was evaluated in
closed form, with the same arithmetic: installed as
``bounds.bcrb_analytic_gaussian_prior`` the bound reproduces the outputs
that the pinned digests in ``test_recorded_outputs.py`` were recorded from
bit for bit.  The quadrature integrates to 1e-10 relative over
[0, min(t, ``T2_SPAN`` * T2)]; where it fails, as it can from a phase
omega * min(t, ``T2_SPAN`` * T2) of about 7e3 rad, it raises
ArithmeticError.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import roots_hermite

from spinfid import bounds, model
from spinfid.errors import InvalidParametersError
from spinfid.model import NonNegative, Positive, SpmParams

# beyond 30 T2 the integrand holds below about 1e-20 of the information,
# and a quadrature over the whole of a long t loses the peak near tau = T2
# to roundoff
T2_SPAN = 30.0


@model.checked
def fi_noiseless_continuous(omega: float, t: NonNegative, p: SpmParams):
    if abs(omega) > bounds.OMEGA_MAX:
        raise InvalidParametersError(
            f"fi_noiseless_continuous omega = {omega!r} at t = {t!r} is "
            f"beyond the physical range |omega| <= {bounds.OMEGA_MAX:g} rad/s")
    t2 = model.coherence_time(p)

    def integrand(tau: float) -> float:
        return math.exp(-2.0 * tau / t2) * tau * tau * math.sin(omega * tau) ** 2

    value, _, info, *rest = integrate.quad(integrand, 0.0,
                                           min(t, T2_SPAN * t2), epsabs=0.0,
                                           epsrel=1e-10, limit=20000,
                                           full_output=True)
    if rest:
        reason = rest[0].splitlines()[0]
        raise ArithmeticError(
            f"fi_noiseless_continuous quadrature failed at omega = {omega!r}, "
            f"t = {t!r}: {reason}")
    return bounds._fi_prefactor(p) * value


@model.checked
def bcrb_analytic_gaussian_prior(p: SpmParams, sigma_omega: Positive,
                                 t: NonNegative):
    precision = 1.0 / sigma_omega ** 2
    x, w = roots_hermite(bounds.HERMITE_NODES)
    omegas = (p.omega_bar + math.sqrt(2.0) * sigma_omega * x).tolist()
    values = np.array([fi_noiseless_continuous(om, t, p) for om in omegas])
    expected = float(np.dot(w, values)) / math.sqrt(math.pi)
    return 1.0 / (precision + expected)
