"""Dormand-Prince 8(5,3) integrator (DOP853) with lazy continuous output.

Geometry-agnostic: integrates dz/dt = f(t, z) with standard step control on
the combined 5th/3rd-order error estimate.  A field that cannot be evaluated
at a trial stage (``f`` raises :class:`ExcludedSetEntered`, or returns a
non-finite value) rejects that step like a failed error test, as in SUNDIALS
ARKODE's recoverable right-hand-side failures; a failure at the start point
or at an accepted step's end point ends the run, so the caller's field is the
one check of its excluded set.  Tolerances default to the tight values the
rest of the package assumes (rtol 1e-10, atol 1e-12), where an 8th-order pair
needs a fraction of the steps of a 5th-order one.

A step evaluates f at 11 new stages; an accepted step adds one evaluation at
its end point, which is the next step's first stage (FSAL), so an accepted
step costs 12 evaluations and a rejected one 11.  Each accepted segment keeps
its 13 stage rows.  The first query of a segment's continuous extension
evaluates the three extra dense-output stages and stores the monomial
coefficients of the degree-7 interpolant (continuous order 7, C^1 at the
nodes), so a run read only at its end point never pays for dense output.

Coefficients: the DOP853 tables of Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I* (2nd ed.), Sec. II.10, after Prince &
Dormand, J. Comput. Appl. Math. 7 (1981).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ExcludedSetEntered,
    FinslerKitError,
    NonFiniteField,
    StepBudgetExceeded,
    StepSizeUnderflow,
)

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
MAX_STEPS = 100_000

# Constants transcribed from SciPy's scipy/integrate/_ivp/dop853_coefficients.py
# (BSD-3-Clause), which holds the published DOP853 values.
#
# Nodes of the 12 stages, the FSAL stage (index 12) and the 3 dense stages.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
])
# Stage matrix by rows: row i weights the stages 0 .. i-1.  Row 12 holds the
# 8th-order weights b, so the FSAL stage is evaluated at the step's end point.
_A = (
    np.array([]),
    np.array([
        5.26001519587677318785587544488e-2,
    ]),
    np.array([
        1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,
    ]),
    np.array([
        2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2,
    ]),
    np.array([
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ]),
    np.array([
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ]),
    np.array([
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ]),
    np.array([
        3.70920001185047927108779319836e-2, 0.0, 0.0,
        1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
    ]),
    np.array([
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ]),
    np.array([
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ]),
    np.array([
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ]),
    np.array([
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ]),
    np.array([
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ]),
    np.array([
        5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
        2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
        -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
        8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
        -8.298e-3,
    ]),
    np.array([
        3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
        2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
        -5.49237485713909884646569340306e-2, 0.0, 0.0,
        -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
        -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
    ]),
    np.array([
        -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
        -4.69762141536116384314449447206, 7.68342119606259904184240953878,
        4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0,
        0.0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
        -9.15095847217987001081870187138,
    ]),
)
# b minus the embedded 5th-order weights
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
# Hairer's weights of stages 0, 8 and 11 in the embedded 3rd-order solution
_BHH = np.array([
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
])
# Weights of all 16 stages in the interpolant's terms F_3 .. F_6 (below)
_D = np.array([
    [
        -0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
        0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
        0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
        -0.44360363875948939664310572000e+1,
    ],
    [
        0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
        0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
        -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
        0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
        -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
        -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
        0.35816841486394083752465898540e+2,
    ],
    [
        0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
        -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
        0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
        0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
        0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
        0.11992291136182789328035130030e+2,
    ],
    [
        -0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
        -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
        0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
        0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
        0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
        -0.14972683625798562581422125276e+3,
    ],
])

# Interpolant basis: z(t0 + s h) = z0 + sum_i F_i phi_i(s) with
# phi = s, s(1-s), s^2(1-s), s^2(1-s)^2, s^3(1-s)^2, s^3(1-s)^3, s^4(1-s)^3;
# row i holds phi_i's coefficients of s^1 .. s^7.
_MONOMIAL = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0],
    [0, 0, 1, -3, 3, -1, 0],
    [0, 0, 0, 1, -3, 3, -1],
], dtype=float)
_POWERS = np.arange(8)


class _Segment:
    """One accepted step from ``t0`` with signed step ``h``.

    ``stages`` holds its 13 stage rows until the first query, which replaces
    them with ``coeffs``: the 8 monomial coefficient rows of the interpolant
    in s = (t - t0) / h.
    """

    __slots__ = ("t0", "h", "stages", "coeffs")

    def __init__(self, t0, h, stages=None, coeffs=None):
        self.t0, self.h, self.stages, self.coeffs = t0, h, stages, coeffs


@dataclass
class OdeSolution:
    """Accepted-step mesh plus a lazily built piecewise degree-7 extension.

    ``nfev`` counts every evaluation of the right-hand side, including the
    dense-output stages that queries make after ``solve_ode`` returned.
    """

    ts: np.ndarray
    states: np.ndarray
    segments: list  # one _Segment per accepted step
    fun: Callable = field(repr=False)  # the right-hand side f(t, z)
    naccepted: int = 0
    nrejected: int = 0
    nfev: int = 0

    @property
    def state_end(self) -> np.ndarray:
        return self.states[-1]

    def _eval(self, t, z) -> np.ndarray:
        """Counted, finiteness-checked evaluation of the right-hand side."""
        self.nfev += 1
        out = np.asarray(self.fun(t, z), dtype=float)
        if not np.isfinite(out).all():
            raise NonFiniteField(f"right-hand side is not finite at t = {float(t)!r}, state {z}")
        return out

    def _segment(self, t: float) -> int:
        """Index of the segment holding t; ``ValueError`` outside the run."""
        if not self.segments:
            raise FinslerKitError("empty solution has no interpolant")
        lo, hi = sorted((float(self.ts[0]), float(self.ts[-1])))
        if not lo <= t <= hi:
            raise ValueError(f"t = {t!r} lies outside the integrated interval [{lo!r}, {hi!r}]")
        nseg = len(self.segments)
        lefts = self.ts[:nseg]  # ts[k] is the left end of segment k
        if self.ts[-1] < self.ts[0]:  # backward-time run
            lefts = -lefts
            t = -t
        k = int(np.searchsorted(lefts, t, side="right")) - 1
        return min(k, nseg - 1)  # the end point: the last segment

    def _coefficients(self, index: int) -> np.ndarray:
        """The segment's monomial rows, made on its first query."""
        seg = self.segments[index]
        if seg.coeffs is None:
            t0, h = seg.t0, seg.h
            z, z_new = self.states[index], self.states[index + 1]
            k = np.empty((16, z.size))
            k[:13] = seg.stages
            for i in range(13, 16):
                k[i] = self._eval(t0 + _C[i] * h, z + h * (_A[i] @ k[:i]))
            dz = z_new - z
            F = np.empty((7, z.size))
            F[0] = dz
            F[1] = h * k[0] - dz
            F[2] = 2.0 * dz - h * (k[12] + k[0])
            F[3:] = h * (_D @ k)
            seg.coeffs = np.vstack([z, _MONOMIAL.T @ F])
            seg.stages = None
        return seg.coeffs

    def __call__(self, t: float) -> np.ndarray:
        t = float(t)
        index = self._segment(t)
        seg = self.segments[index]
        s = (t - seg.t0) / seg.h
        return s**_POWERS @ self._coefficients(index)

    def derivative(self, t: float) -> np.ndarray:
        """Time derivative of the continuous extension."""
        t = float(t)
        index = self._segment(t)
        seg = self.segments[index]
        s = (t - seg.t0) / seg.h
        r = self._coefficients(index)
        return (_POWERS[1:] * s ** _POWERS[:-1]) @ r[1:] / seg.h


def _initial_step(f, t0, z0, f0, direction, rtol, atol):
    sc = atol + rtol * np.abs(z0)
    d0 = np.sqrt(np.mean((z0 / sc) ** 2))
    d1 = np.sqrt(np.mean((f0 / sc) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    z1 = z0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, z1)
    d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1)


def solve_ode(
    f,
    t0: float,
    z0,
    t_end: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    first_step: float | None = None,
) -> OdeSolution:
    """Integrate dz/dt = f(t, z) from t0 to t_end.

    An :class:`ExcludedSetEntered` or :class:`NonFiniteField` at a trial
    stage rejects the step and cuts it by ``MIN_FACTOR``; if the step then
    underflows, that stage's error is raised.  The same errors at t0 or at an
    accepted step's end point are raised at once.  Raises
    :class:`StepSizeUnderflow` when error control pushes the step below the
    round-off floor, and :class:`StepBudgetExceeded` after ``MAX_STEPS`` step
    attempts.
    """
    z0 = np.asarray(z0, dtype=float)
    m = z0.size
    sol = OdeSolution(np.array([t0]), z0[None, :].copy(), [], f)
    span = t_end - t0
    if span == 0.0:
        sol.segments.append(_Segment(t0, 1.0, coeffs=np.vstack([z0, np.zeros((7, m))])))
        return sol
    direction = 1.0 if span > 0 else -1.0
    call = sol._eval

    k = np.empty((13, m))
    k[0] = call(t0, z0)
    h = first_step if first_step is not None else _initial_step(
        call, t0, z0, k[0], direction, rtol, atol
    )
    h = min(abs(h), abs(span))

    ts = [t0]
    states = [z0.copy()]
    t, z = t0, z0.copy()
    naccepted = nrejected = 0
    just_rejected = False
    stage_failure = None  # the last trial stage's error since an accepted step

    for _ in range(MAX_STEPS):
        if (t - t_end) * direction >= 0.0:
            break
        h = min(h, abs(t_end - t))
        if h < 1e-14 * max(1.0, abs(t)):
            if stage_failure is not None:
                raise stage_failure
            raise StepSizeUnderflow(f"step size {h:.3e} underflowed at t = {float(t)!r}")
        hs = h * direction

        try:
            for i in range(1, 12):
                k[i] = call(t + _C[i] * hs, z + hs * (_A[i] @ k[:i]))
        except (ExcludedSetEntered, NonFiniteField) as err:
            stage_failure = err
            nrejected += 1
            just_rejected = True
            h *= MIN_FACTOR
            continue
        dz = _A[12] @ k[:12]  # the 8th-order weights b
        z_new = z + hs * dz
        # DOP853's error norm: the 5th-order estimate scaled by the 3rd-order one
        sc = atol + rtol * np.maximum(np.abs(z), np.abs(z_new))
        err5 = (_E5 @ k[:12]) / sc
        err3 = (dz - _BHH @ k[[0, 8, 11]]) / sc
        e5, e3 = float(err5 @ err5), float(err3 @ err3)
        err = 0.0 if e5 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * m)

        if err <= 1.0:
            t_new = t_end if hs == t_end - t else t + hs  # the last step ends on t_end
            k[12] = call(t_new, z_new)
            sol.segments.append(_Segment(t, hs, k.copy()))
            t, z = t_new, z_new
            ts.append(t)
            states.append(z)
            naccepted += 1
            k[0] = k[12]  # FSAL
            stage_failure = None
            factor = MAX_FACTOR if err == 0.0 else min(
                MAX_FACTOR, max(MIN_FACTOR, SAFETY * err ** -0.125)
            )
            if just_rejected:
                factor = min(1.0, factor)
            h *= factor
            just_rejected = False
        else:
            nrejected += 1
            just_rejected = True
            h *= max(MIN_FACTOR, SAFETY * err ** -0.125)
    else:
        raise StepBudgetExceeded(
            f"integration exceeded {MAX_STEPS} steps at t = {float(t)!r}", t=float(t), h=h
        )

    sol.ts = np.array(ts)
    sol.states = np.array(states)
    sol.naccepted, sol.nrejected = naccepted, nrejected
    return sol
