"""Brent's root bracketing and MINPACK's hybrid method for two unknowns.

:func:`brentq` follows scipy's C ``brentq`` and the checks of its Python
wrapper step for step, so its roots are bitwise scipy's. :func:`hybrd2` is
MINPACK's ``hybrd`` (More, Garbow and Hillstrom, ANL-80-74, 1980) with a
forward-difference Jacobian, mode 1 scaling and ``maxfev`` = 600, as
``scipy.optimize.root(method="hybr")`` runs it, written out for n = 2. Its
parts keep MINPACK's comparisons and order of operations: ``enorm``,
``qrfac`` without pivoting and ``qform`` as functions, ``dogleg``,
``r1updt`` and ``r1mpyq`` written out in the step loop, which runs some
thirty times a solve.

Python floats raise where C floats go on to inf or NaN: a division by zero
raises ZeroDivisionError and an overflowing ``**`` raises OverflowError. So
squares here are products, and each division that can meet a zero divisor
(Brent's extrapolation between equal function values, the dogleg's
gradient step and weight, Broyden's update after a zero step) goes through
:func:`_div` or, in the step loop, tests its divisor first. A comparison with a NaN is false in both languages, so each
test keeps the direction MINPACK wrote it in, and MINPACK's max and min are
C's ``fmax`` and ``fmin``, which pass over a NaN. The inf and NaN residuals
of trial steps that leave the liposome family then take scipy's path.
"""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon
_GIANT = sys.float_info.max
_RDWARF = 3.834e-20  # enorm's bounds of the intermediate magnitudes
_AGIANT = 1.304e19 / 2  # (its rgiant over the vector length)
# rounding is monotone, so a*a strictly between these squares puts |a|
# strictly between the bounds; the norms test the squares that they sum
_RDWARF2, _AGIANT2 = _RDWARF * _RDWARF, _AGIANT * _AGIANT
_MAXITER = 100  # brentq's iteration limit, scipy's default
_MAXFEV = 600  # hybrd2's evaluation limit, scipy's 200 (n + 1) for two unknowns
_XTOL = 1e-14  # hybrd2's bound on the trust region relative to the scaled x
_FACTOR = 0.1  # hybrd2's first trust region relative to the scaled x; with
# MINPACK's customary 100, small liposomes run into the evaluation limit


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def brentq(f, a: float, b: float, args=(), *, xtol: float, rtol: float) -> float:
    """Root of f in [a, b] by Brent's method; f(a) and f(b) differ in sign.

    Converged when half the bracket is below (xtol + rtol |x|)/2. Raises
    ValueError for a bad tolerance, for endpoint values of one sign and for
    a NaN value of f, and RuntimeError after _MAXITER iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4.0 * _EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4.0 * _EPS:g})")

    def call(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur}")


def _div(num: float, den: float) -> float:
    """num/den with IEEE semantics when den is zero."""
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.inf if _signbit(num) == _signbit(den) else -math.inf


def _fmin(a: float, b: float) -> float:
    """C's ``fmin``: the smaller, or the other argument where one is NaN."""
    return b if a != a or b < a else a


def _fmax(a: float, b: float) -> float:
    """C's ``fmax``: the larger, or the other argument where one is NaN."""
    return b if a != a or b > a else a


def _enorm(a: float, b: float) -> float:
    """MINPACK's ``enorm`` of (a, b): the Euclidean norm, summed in three
    magnitude classes so that no square overflows or underflows."""
    aa, bb = a * a, b * b
    if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
        return math.sqrt(aa + bb)  # both intermediate: enorm's s2 alone
    s1 = s2 = s3 = x1max = x3max = 0.0
    for xabs in (abs(a), abs(b)):
        if xabs > _RDWARF and xabs < _AGIANT:
            s2 += xabs * xabs
        elif xabs <= _RDWARF:
            if xabs <= x3max:
                if xabs != 0.0:
                    ratio = xabs / x3max
                    s3 += ratio * ratio
            else:
                ratio = x3max / xabs
                s3 = 1.0 + s3 * (ratio * ratio)
                x3max = xabs
        elif xabs <= x1max:
            ratio = xabs / x1max
            s1 += ratio * ratio
        else:
            ratio = x1max / xabs
            s1 = 1.0 + s1 * (ratio * ratio)
            x1max = xabs
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _qr(a11: float, a21: float, a12: float, a22: float):
    """MINPACK's ``qrfac`` without pivoting on the 2x2 matrix [[a11, a12], [a21, a22]].

    Returns the Householder vectors (a11, a21), (a22) in the lower triangle,
    R12 in a12, the diagonal of R and the column norms, as qrfac leaves them.
    """
    acnorm1, acnorm2 = _enorm(a11, a21), _enorm(a12, a22)
    ajnorm = acnorm1  # enorm of the whole first column
    if ajnorm != 0.0:
        if a11 < 0.0:
            ajnorm = -ajnorm
        a11 /= ajnorm
        a21 /= ajnorm
        a11 += 1.0
        temp = (0.0 + a11 * a12 + a21 * a22) / a11
        a12 -= temp * a11
        a22 -= temp * a21
    rdiag1 = -ajnorm
    ajnorm = abs(a22)  # enorm of one element
    if ajnorm != 0.0:
        if a22 < 0.0:
            ajnorm = -ajnorm
        a22 /= ajnorm
        a22 += 1.0
    return (a11, a21, a12, a22), (rdiag1, -ajnorm), (acnorm1, acnorm2)


def _qform(a11: float, a21: float, a22: float):
    """MINPACK's ``qform``: the orthogonal factor Q from the Householder vectors."""
    q12, q22 = 0.0, 1.0
    if a22 != 0.0:
        temp = (0.0 + q22 * a22) / a22
        q22 -= temp * a22
    q11, q21 = 1.0, 0.0
    if a11 != 0.0:
        temp = (0.0 + q11 * a11 + q21 * a21) / a11
        q11 -= temp * a11
        q21 -= temp * a21
        temp = (0.0 + q12 * a11 + q22 * a21) / a11
        q12 -= temp * a11
        q22 -= temp * a21
    return q11, q21, q12, q22


def hybrd2(fcn, x1: float, x2: float) -> tuple[float, float]:
    """Solve fcn(x1, x2) = (0, 0) by MINPACK's hybrid method; returns the last x.

    Stops where MINPACK stops: the trust region below _XTOL times the scaled
    norm of x or a zero residual, _MAXFEV evaluations, a step too small for
    progress, or no progress over five Jacobians or ten steps. The caller
    judges the point it returns. An exception raised by fcn propagates.

    The step loop, some thirty passes a solve, writes out :func:`_enorm`'s
    case of two intermediate magnitudes and C's ``fmin`` and ``fmax``, and
    takes a division through :func:`_div` only where its divisor is zero.
    """
    f1, f2 = fcn(x1, x2)
    nfev = 1
    fnorm = _enorm(f1, f2)
    first = True
    ncsuc = ncfail = nslow1 = nslow2 = 0
    h0 = math.sqrt(_EPS)  # sqrt(max(epsfcn, epsmch)) with scipy's epsfcn = eps
    while True:
        jeval = True
        # forward-difference Jacobian
        h = h0 * abs(x1)
        if h == 0.0:
            h = h0
        g1, g2 = fcn(x1 + h, x2)
        a11, a21 = (g1 - f1) / h, (g2 - f2) / h
        h = h0 * abs(x2)
        if h == 0.0:
            h = h0
        g1, g2 = fcn(x1, x2 + h)
        a12, a22 = (g1 - f1) / h, (g2 - f2) / h
        nfev += 2
        (a11, a21, a12, a22), (r1, r3), (c1, c2) = _qr(a11, a21, a12, a22)
        r2 = a12
        if first:
            d1 = c1 if c1 != 0.0 else 1.0
            d2 = c2 if c2 != 0.0 else 1.0
            xnorm = _enorm(d1 * x1, d2 * x2)
            delta = _FACTOR * xnorm
            if delta == 0.0:
                delta = _FACTOR
        # Q^T f from the Householder vectors
        t1, t2 = f1, f2
        if a11 != 0.0:
            temp = -(0.0 + a11 * t1 + a21 * t2) / a11
            t1 += a11 * temp
            t2 += a21 * temp
        if a22 != 0.0:
            temp = -(0.0 + a22 * t2) / a22
            t2 += a22 * temp
        q11, q21, q12, q22 = _qform(a11, a21, a22)
        d1, d2 = _fmax(d1, c1), _fmax(d2, c2)
        while True:
            # dogleg: the Gauss-Newton direction, with a zero diagonal element
            # of R replaced by eps times the largest magnitude in its column,
            # or by eps
            temp = r3
            if temp == 0.0:
                temp = _EPS * _fmax(0.0, abs(r2))
                if temp == 0.0:
                    temp = _EPS
            p2 = (t2 - 0.0) / temp
            p1 = (t1 - (0.0 + r2 * p2)) / (r1 if r1 != 0.0 else _EPS)
            a, b = d1 * p1, d2 * p2
            aa, bb = a * a, b * b
            if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                qnorm = math.sqrt(aa + bb)
            else:
                qnorm = _enorm(a, b)
            if not qnorm <= delta:
                # the scaled gradient direction
                w1 = (0.0 + r1 * t1) / d1
                w2 = (0.0 + r2 * t1 + r3 * t2) / d2
                aa, bb = w1 * w1, w2 * w2
                if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                    gnorm = math.sqrt(aa + bb)
                else:
                    gnorm = _enorm(w1, w2)
                sgnorm = 0.0
                alpha = delta / qnorm
                if gnorm != 0.0:
                    w1 = (w1 / gnorm) / d1
                    w2 = (w2 / gnorm) / d2
                    a, b = 0.0 + r1 * w1 + r2 * w2, 0.0 + r3 * w2
                    aa, bb = a * a, b * b
                    if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                        temp = math.sqrt(aa + bb)
                        sgnorm = (gnorm / temp) / temp
                    else:
                        temp = _enorm(a, b)
                        sgnorm = _div(_div(gnorm, temp), temp)
                    alpha = 0.0
                    if not sgnorm >= delta:
                        # the point along the dogleg at which the quadratic is minimized
                        aa, bb = t1 * t1, t2 * t2
                        if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                            bnorm = math.sqrt(aa + bb)
                        else:
                            bnorm = _enorm(t1, t2)
                        dq = delta / qnorm
                        sd = sgnorm / delta
                        temp = (bnorm / gnorm) * (bnorm / qnorm) * sd
                        temp = temp - dq * (sd * sd) + math.sqrt(
                            (temp - dq) * (temp - dq) + (1.0 - dq * dq) * (1.0 - sd * sd))
                        if temp != 0.0:
                            alpha = dq * (1.0 - sd * sd) / temp
                        else:  # 0/0 once dq and sd underflow
                            alpha = _div(dq * (1.0 - sd * sd), temp)
                temp = (1.0 - alpha) * (delta if sgnorm != sgnorm or delta < sgnorm else sgnorm)
                p1, p2 = temp * w1 + alpha * p1, temp * w2 + alpha * p2
            p1, p2 = -p1, -p2
            y1, y2 = x1 + p1, x2 + p2
            a, b = d1 * p1, d2 * p2
            aa, bb = a * a, b * b
            if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                pnorm = math.sqrt(aa + bb)
            else:
                pnorm = _enorm(a, b)
            if first:
                delta = _fmin(delta, pnorm)
            g1, g2 = fcn(y1, y2)
            nfev += 1
            aa, bb = g1 * g1, g2 * g2
            if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                fnorm1 = math.sqrt(aa + bb)
            else:
                fnorm1 = _enorm(g1, g2)
            actred = -1.0
            if fnorm1 < fnorm:
                actred = fnorm1 / fnorm
                actred = 1.0 - actred * actred
            # residual of the linear model at the step, and the predicted reduction
            w1 = t1 + (0.0 + r1 * p1 + r2 * p2)
            w2 = t2 + (0.0 + r3 * p2)
            aa, bb = w1 * w1, w2 * w2
            if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                temp = math.sqrt(aa + bb)
            else:
                temp = _enorm(w1, w2)
            prered = 0.0
            if temp < fnorm:
                prered = temp / fnorm
                prered = 1.0 - prered * prered
            ratio = 0.0
            if prered > 0.0:
                ratio = actred / prered
            if ratio >= 0.1:
                ncfail = 0
                ncsuc += 1
                if ratio >= 0.5 or ncsuc > 1:
                    delta = _fmax(delta, pnorm / 0.5)
                if abs(ratio - 1.0) <= 0.1:
                    delta = pnorm / 0.5
            else:
                ncsuc = 0
                ncfail += 1
                delta = 0.5 * delta
            if not ratio < 1e-4:
                x1, x2 = y1, y2
                f1, f2 = g1, g2
                a, b = d1 * x1, d2 * x2
                aa, bb = a * a, b * b
                if _RDWARF2 < aa < _AGIANT2 and _RDWARF2 < bb < _AGIANT2:
                    xnorm = math.sqrt(aa + bb)
                else:
                    xnorm = _enorm(a, b)
                fnorm = fnorm1
                first = False
            nslow1 += 1
            if actred >= 1e-3:
                nslow1 = 0
            if jeval:
                nslow2 += 1
            if actred >= 0.1:
                nslow2 = 0
            if (delta <= _XTOL * xnorm or fnorm == 0.0 or nfev >= _MAXFEV
                    or 0.1 * (pnorm if delta != delta or pnorm > 0.1 * delta else 0.1 * delta) <= _EPS * xnorm
                    or nslow2 == 5 or nslow1 == 10):
                return x1, x2
            if ncfail == 2:
                break  # a fresh forward-difference Jacobian
            # Broyden's rank-one update of Q and R, and of Q^T f
            s1 = 0.0 + q11 * g1 + q21 * g2
            s2 = 0.0 + q12 * g1 + q22 * g2
            if pnorm != 0.0:
                v1, v2 = (s1 - w1) / pnorm, (s2 - w2) / pnorm
                u1, u2 = d1 * ((d1 * p1) / pnorm), d2 * ((d2 * p2) / pnorm)
            else:
                v1, v2 = _div(s1 - w1, pnorm), _div(s2 - w2, pnorm)
                u1, u2 = d1 * _div(d1 * p1, pnorm), d2 * _div(d2 * p2, pnorm)
            if ratio >= 1e-4:
                t1, t2 = s1, s2
            # r1updt: rotate v into the last unit vector (a Givens rotation of
            # (v2, v1), stored as tau), add the spike, eliminate it
            w1, w2 = 0.0, r3
            tau_v = v1
            if v1 != 0.0:
                if abs(v2) >= abs(v1):
                    tan = v1 / v2
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = tau_v = cos * tan
                else:
                    cotan = v2 / v1
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                    tau_v = 1.0 / cos if abs(cos) * _GIANT > 1.0 else 1.0
                v2 = sin * v1 + cos * v2
                r1, w1 = cos * r1 - sin * w1, sin * r1 + cos * w1
                r2, w2 = cos * r2 - sin * w2, sin * r2 + cos * w2
            w1 += v2 * u1
            w2 += v2 * u2
            tau_w = w1
            if w1 != 0.0:
                if abs(r1) >= abs(w1):
                    tan = w1 / r1
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = tau_w = cos * tan
                else:
                    cotan = r1 / w1
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                    tau_w = 1.0 / cos if abs(cos) * _GIANT > 1.0 else 1.0
                r1, w1 = cos * r1 + sin * w1, -sin * r1 + cos * w1
                r2, w2 = cos * r2 + sin * w2, -sin * r2 + cos * w2
            r3 = w2
            # r1mpyq on Q and on Q^T f, each rotation recovered from its tau
            if abs(tau_v) > 1.0:
                cos = 1.0 / tau_v
                sin = math.sqrt(1.0 - cos * cos)
            else:
                cos, sin = math.sqrt(1.0 - tau_v * tau_v), tau_v
            q11, q12 = cos * q11 - sin * q12, sin * q11 + cos * q12
            q21, q22 = cos * q21 - sin * q22, sin * q21 + cos * q22
            t1, t2 = cos * t1 - sin * t2, sin * t1 + cos * t2
            if abs(tau_w) > 1.0:
                cos = 1.0 / tau_w
                sin = math.sqrt(1.0 - cos * cos)
            else:
                cos, sin = math.sqrt(1.0 - tau_w * tau_w), tau_w
            q11, q12 = cos * q11 + sin * q12, -sin * q11 + cos * q12
            q21, q22 = cos * q21 + sin * q22, -sin * q21 + cos * q22
            t1, t2 = cos * t1 + sin * t2, -sin * t1 + cos * t2
            jeval = False
