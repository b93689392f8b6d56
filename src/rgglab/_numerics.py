"""rgglab's numerical routines on numpy alone: four scipy ports and one fixed rule.

Importing scipy costs about half a second of start-up, more than a whole
benchmark experiment, so rgglab runs on numpy alone.  Each port keeps the
branch order and the scalar arithmetic of the code it follows, so it returns
scipy 1.17's bits; ``tests/test_numerics.py`` checks that against the
installed scipy.

* ``quad``: QUADPACK's ``dqagie`` on ``[a, inf)`` (15-point rule
  ``dqk15i``), with the error-ordered interval list ``dqpsrt`` and the
  epsilon-algorithm extrapolation ``dqelg`` (Piessens, de Doncker-Kapenga,
  Ueberhuber and Kahaner, *QUADPACK*, Springer 1983).  QUADPACK is in the
  public domain.
* ``brentq``: scipy's ``brentq.c`` (Brent, *Algorithms for Minimization
  without Derivatives*, 1973, ch. 4).
* ``pchip_coefficients``: the ``c`` array of ``PchipInterpolator`` (Fritsch
  and Carlson's monotone derivatives with Moler's one-sided ends), from
  ``scipy/interpolate/_cubic.py``.
* ``cumulative_simpson``: from ``scipy/integrate/_quadrature.py``, for 1-d
  samples on a strictly increasing grid with ``initial=0``.

``gauss_legendre`` is not a port: it lays numpy's Gauss-Legendre nodes on
the segments between given cuts, the one composite rule that the tail
integral and the exact pair cumulants share.  Nor is ``row_norms``, the one
summation rule of every distance that the sampler, the adjacency and the
classifier compute.

The code is derived from SciPy, which carries this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np

_EPMACH = sys.float_info.epsilon     # d1mach(4)
_UFLOW = sys.float_info.min          # d1mach(1)
_OFLOW = sys.float_info.max          # d1mach(2)


# ---------------------------------------------------------------------------
# quad: QUADPACK dqagie
# ---------------------------------------------------------------------------

# 15-point Kronrod rule on (0, 1] for dqk15i, with the 7-point Gauss
# weights set to 0 at the Kronrod-only nodes, as in QUADPACK
_XGK15 = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245)
_WGK15 = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG7 = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)


def _qk15i(f, boun, a, b):
    """dqk15i with inf = 1: (result, abserr, resabs, resasc) of the 15-point
    rule on [a, b] in (0, 1] for the integral of f over [boun, inf), mapped
    by x = boun + (1 - t) / t."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = [hlgth * x for x in _XGK15]
    t = [centr] + [centr - s for s in absc] + [centr + s for s in absc]
    fv = [(float(f(boun + (1.0 - u) / u)) / u) / u for u in t]
    fc, fv1, fv2 = fv[0], fv[1:8], fv[8:15]
    resg = _WG7[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    for j in range(7):
        fsum = fv1[j] + fv2[j]
        resg = resg + _WG7[j] * fsum
        resk = resk + _WGK15[j] * fsum
        resabs = resabs + _WGK15[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK15[7] * abs(fc - reskh)
    for j in range(7):
        resasc = resasc + _WGK15[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs *= hlgth
    resasc *= hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord (1-based interval numbers) in descending order of
    error and return the new (maxerr, errmax, nrmax).  Lists are 1-based."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        # after a subdivision raised the error, move errmax up the list
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        # insert errmax by traversing the list top-down
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        # insert errmin by traversing the list bottom-up
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                iord[k + 1] = last
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


class _Epsilon:
    """dqelg's state: the epsilon table rlist2 (1-based, 52 long), its
    length numrl2, the last three results res3la and the call count nres."""

    def __init__(self, first):
        self.tab = [0.0] * 53
        self.tab[1] = first
        self.n = 2
        self.res3la = [0.0] * 4
        self.nres = 0

    def extrapolate(self, area):
        """Append ``area`` and return dqelg's (result, abserr).  The table
        then holds at least 3 entries: it starts with 2, and a call that
        cuts it to 1 ends the extrapolation."""
        self.n += 1
        n = self.n
        epstab = self.tab
        epstab[n] = area
        self.nres += 1
        abserr = _OFLOW
        result = epstab[n]
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                return result, max(abserr, 5.0 * _EPMACH * abs(result))
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements, or irregular behaviour: cut the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        # shift the table
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if self.nres < 4:
            self.res3la[self.nres] = result
            abserr = _OFLOW
        else:
            r = self.res3la
            abserr = abs(result - r[3]) + abs(result - r[2]) + abs(result - r[1])
            r[1], r[2], r[3] = r[2], r[3], result
        self.n = n
        return result, max(abserr, 5.0 * _EPMACH * abs(result))


def _qagie(f, bound, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """dqagie with inf = 1, the integral of the scalar f over [bound, inf):
    (result, abserr, ier, last) with QUADPACK's final ier.  The adaptive loop
    bisects [a, b] = [0, 1], the range of dqk15i's mapped variable."""
    a, b = 0.0, 1.0
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        return 0.0, 0.0, 6, 0
    # first approximation to the integral
    result, abserr, defabs, resabs = _qk15i(f, bound, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, 1
    # 1-based lists of the subintervals [alist, blist], their integrals and
    # errors, and iord, their numbers in descending order of error
    alist = [0.0, a] + [0.0] * limit
    blist = [0.0, b] + [0.0] * limit
    rlist = [0.0, result] + [0.0] * limit
    elist = [0.0, abserr] + [0.0] * limit
    iord = [0, 1] + [0] * limit
    table = _Epsilon(result)
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    summed = False                        # leave through QUADPACK's label 115
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk15i(f, bound, a1, b1)
        area2, error2, _, defab2 = _qk15i(f, bound, a2, b2)
        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the subdivision limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            table.tab[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # perform extrapolation
        reseps, abseps = table.extrapolate(area)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if table.n == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    # set the final result and error estimate
    if not summed and abserr != _OFLOW:
        if ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                return result, abserr, (ier - 1 if ier > 2 else ier), last
        if not summed:
            # test on divergence
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                if 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
                    ier = 6
            return result, abserr, (ier - 1 if ier > 2 else ier), last
    # compute the global integral sum
    result = 0.0
    for k in range(1, last + 1):
        result += rlist[k]
    return result, errsum, (ier - 1 if ier > 2 else ier), last


_QUAD_MESSAGES = {
    1: "the maximum number of subdivisions has been reached",
    2: "roundoff error prevents the requested tolerance from being reached",
    3: "extremely bad integrand behaviour occurs at some points",
    4: "roundoff error is detected in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def quad(f, a: float, limit: int = 50):
    """(integral, abserr) of the scalar f over [a, inf), as
    ``scipy.integrate.quad(f, a, np.inf, limit=limit)`` with its default
    tolerances ``epsabs = epsrel = 1.49e-8``.

    QUADPACK's codes 1-5 warn, as scipy's ``IntegrationWarning`` does; an
    invalid tolerance or limit (code 6) raises ``ValueError``.
    """
    result, abserr, ier, _ = _qagie(f, a, limit=limit)
    if ier == 6:
        raise ValueError(f"quad: invalid input (limit = {limit})")
    if ier:
        warnings.warn(f"quad on [{a}, inf): {_QUAD_MESSAGES[ier]}", RuntimeWarning, stacklevel=2)
    return result, abserr


# ---------------------------------------------------------------------------
# composite Gauss-Legendre rule
# ---------------------------------------------------------------------------

@functools.cache
def _legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(m)


def gauss_legendre(cuts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on each segment
    between consecutive cuts, segment by segment."""
    x, w = _legendre(m)
    a, b = cuts[:-1, None], cuts[1:, None]
    return ((a + b) / 2 + (b - a) / 2 * x).ravel(), ((b - a) / 2 * w).ravel()


def row_norms(column, d: int) -> np.ndarray:
    """Euclidean norms of the rows of an (N, d) array given by its columns,
    ``column(c)`` for c < d, with the bits of ``np.linalg.norm(x, axis=1)``.

    numpy adds fewer than 8 terms in order, so below 8 columns the squares
    are summed column by column, which never forms the (N, d) array; from 8
    on, numpy sums each row pairwise, so the columns are stacked first.
    """
    if d >= 8:
        x = np.stack([column(c) for c in range(d)], axis=1)
        return np.sqrt((x * x).sum(axis=1))
    x = column(0)
    sq = x * x
    for c in range(1, d):
        x = column(c)
        sq += x * x
    return np.sqrt(sq, out=sq)


# ---------------------------------------------------------------------------
# brentq: scipy's brentq.c
# ---------------------------------------------------------------------------

def brentq(f, xa: float, xb: float, *, xtol: float, rtol: float, maxiter: int) -> float:
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign, as
    ``scipy.optimize.brentq`` (xtol > 0, rtol >= 4 eps): ValueError for
    equal signs or a NaN value, RuntimeError if ``maxiter`` iterations do
    not converge."""

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)          # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre = scur                                           # good short step
                scur = stry
            else:
                spre = scur = sbis                                    # bisect
        else:
            spre = scur = sbis                                        # bisect
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# PCHIP coefficients and cumulative Simpson
# ---------------------------------------------------------------------------

def _pchip_edge(h0, h1, m0, m1):
    """One-sided three-point end derivative, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``PchipInterpolator(x, y).c``, the (4, m - 1) cubic coefficients of
    the monotone interpolant of 1-d y on strictly increasing x (m >= 2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("PCHIP needs at least 2 points, all finite")
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    if y.size == 2:
        dk = np.array([mk[0], mk[0]])
    else:
        smk = np.sign(mk)
        condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
        w1 = 2 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2 * hk[:-1]
        # entries dividing by a zero slope are dropped by ``condition``
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk = np.zeros_like(y)
        dk[1:-1][~condition] = 1.0 / whmean[~condition]
        dk[0] = _pchip_edge(hk[0], hk[1], mk[0], mk[1])
        dk[-1] = _pchip_edge(hk[-1], hk[-2], mk[-1], mk[-2])
    # CubicHermiteSpline's coefficients from the values and derivatives
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dk[:-1] + dk[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dk[:-1]) / dx - t, dk[:-1], y[:-1]))


def _simpson_h1(y, dx):
    """Simpson's integral over each first subinterval of three points
    (Cartwright's eqn (8)); reversed inputs give the second subintervals."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)`` for 1-d
    float64 y and strictly increasing x of the same length, at least 3."""
    y = np.asarray(y, dtype=np.float64)
    dx = np.diff(np.asarray(x, dtype=np.float64))
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    h1 = _simpson_h1(y, dx)
    h2 = _simpson_h1(y[::-1], dx[::-1])[::-1]
    sub = np.empty(dx.size)
    sub[:-1:2] = h1[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]          # the last subinterval has only the h2 formula
    res = np.cumsum(sub)
    res += 0.0
    return np.concatenate(([0.0], res))
