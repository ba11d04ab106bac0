"""Bound computation and the LP core.

Three layers of machinery live here:

* forward interval propagation through affine+ReLU layers, with phase
  clipping and conflict detection;
* a dense two-phase simplex over box-bounded variables with Bland's
  anti-cycling rule. It starts from any basis: a given one (a parent
  node's final basis), refactorized with one solve, or else a triangular
  crash basis. Phase 1 minimizes the basics' total box violation, with no
  artificial columns; phase 2 re-optimizes the same system under many
  objectives. Its tableau holds only the columns that can enter the
  basis, and it takes exactly the pivots of textbook Bland on the full
  tableau. ``column_bounds`` finds the minimum and maximum of many columns
  at once: one phase 2 per bound, each from the phase-1 basis, all
  pivoting together on a stack of tableaux;
* a node's LPs: ``NodeLP``, one layout per query at every node, so that
  an LP starts from the final basis of a like LP; the SoI LP, and the
  bound-tightening LP (the same layout without SoI rows and columns),
  which bounds the unfixed pre-activations with one phase 1 and one
  ``column_bounds`` call per deduction round. ``build_relaxation``
  assembles the same triangle relaxation from scratch, with fixed ReLUs
  as equalities; the tests compare the layouts against it.

A node's phases are one int8 vector in ``Network.relu_ids()`` order,
holding ``Phase`` codes; its pre- and post-activation bounds are flat
arrays in the same order. Per-neuron work is array operations over the
whole vector, or over one ReLU layer's slice (``Network.relu_slices``)
where a layer needs the one before it.

Conflict (an empty node) is a first-class signal distinct from solver
errors: branch-and-bound prunes on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Sequence

import numpy as np

from .model import Network

TOL_LP = 1e-7
_CONFLICT_EPS = 1e-9
SAT_SOI_TOL = 1e-6     # total SoI at or below this makes a node a SAT candidate
_BOUND_SAFETY = 1e-9   # sound-side inflation of LP-tightened bounds
_PIVOT_EPS = 1e-9
_RATIO_TIE = 1e-10
# phase 1 prices a basic out of its box by more than this, short of TOL_LP,
# so a small violation is removed where it can be rather than carried into
# the solution; below it lies rounding noise that pivots cannot remove.
# Once a phase-1 basis repeats, TOL_LP takes its place
_BOX_EPS = 1e-11


class Phase(IntEnum):
    """A ReLU's phase; the values are the codes of a phase vector.

    Array code compares a vector with ``Phase.X.value``: numpy compares
    with a plain int several times faster than with an IntEnum member.
    """

    ACTIVE = 1
    INACTIVE = -1
    UNFIXED = 0

    @property
    def short(self) -> str:
        return self.name[0]


class Conflict(Exception):
    """The node's constraint set is empty; the node is UNSAT."""


class LPError(RuntimeError):
    pass


class LPIterationError(LPError):
    """Pivot cap exceeded. A solver failure, never an UNSAT signal."""


class LPUnboundedError(LPError):
    pass


# ---------------------------------------------------------------------------
# bounds


@dataclass
class BoundsMap:
    """The input box, every ReLU's pre- and post-activation interval and
    the output box of a node.

    The ReLU bounds are flat arrays in relu_ids() order; a layer's part is
    its ``Network.relu_slices`` slice.
    """

    input_lower: np.ndarray
    input_upper: np.ndarray
    pre_lower: np.ndarray
    pre_upper: np.ndarray
    post_lower: np.ndarray
    post_upper: np.ndarray
    output_lower: np.ndarray
    output_upper: np.ndarray

    def copy(self) -> "BoundsMap":
        return BoundsMap(*(getattr(self, f.name).copy() for f in fields(self)))


def propagate_intervals(net: Network,
                        input_lower: np.ndarray,
                        input_upper: np.ndarray,
                        phases: np.ndarray,
                        clip: BoundsMap | None = None) -> BoundsMap:
    """Forward interval arithmetic with phase clipping.

    ``clip`` intersects previously deduced (e.g. LP-tightened) bounds into
    the pass so repeated propagation never loses tightness. Raises Conflict
    when a phase contradicts the intervals or an intersection empties.
    """
    lo = np.asarray(input_lower, dtype=float).copy()
    hi = np.asarray(input_upper, dtype=float).copy()
    if clip is not None:
        lo = np.maximum(lo, clip.input_lower)
        hi = np.minimum(hi, clip.input_upper)
    if (lo > hi + _CONFLICT_EPS).any():
        raise Conflict("empty input box")
    n = net.num_relus
    bounds = BoundsMap(input_lower=lo, input_upper=hi,
                       pre_lower=np.empty(n), pre_upper=np.empty(n),
                       post_lower=np.empty(n), post_upper=np.empty(n),
                       output_lower=np.empty(0), output_upper=np.empty(0))
    cur_lo, cur_hi = lo, hi
    for k, layer in enumerate(net.layers):
        wp = np.maximum(layer.weight, 0.0)
        wm = np.minimum(layer.weight, 0.0)
        pre_lo = wp @ cur_lo + wm @ cur_hi + layer.bias
        pre_hi = wp @ cur_hi + wm @ cur_lo + layer.bias
        if not layer.has_relu:
            bounds.output_lower = pre_lo
            bounds.output_upper = pre_hi
            cur_lo, cur_hi = pre_lo, pre_hi
            continue
        sl = net.relu_slices[k]
        if clip is not None:
            pre_lo = np.maximum(pre_lo, clip.pre_lower[sl])
            pre_hi = np.minimum(pre_hi, clip.pre_upper[sl])
        ph = phases[sl]
        active = ph == Phase.ACTIVE.value
        inactive = ph == Phase.INACTIVE.value
        bad = np.where(active, pre_hi < -_CONFLICT_EPS,
                       np.where(inactive, pre_lo > _CONFLICT_EPS,
                                pre_lo > pre_hi + _CONFLICT_EPS))
        if bad.any():
            i = int(bad.argmax())
            raise Conflict(f"neuron {k}:{i} has pre interval "
                           f"[{pre_lo[i]:g}, {pre_hi[i]:g}] against its "
                           f"phase")
        # clip to the phase; np.where keeps the bound itself on a tie, so
        # a -0.0 bound stays -0.0
        pre_hi = np.where(inactive & (pre_hi > 0.0), 0.0, pre_hi)
        pre_lo = np.where(inactive & (pre_hi < pre_lo), pre_hi, pre_lo)
        pre_lo = np.where(active & (pre_lo < 0.0), 0.0, pre_lo)
        pre_hi = np.where(active & (pre_lo > pre_hi), pre_lo, pre_hi)
        bounds.pre_lower[sl] = pre_lo
        bounds.pre_upper[sl] = pre_hi
        bounds.post_lower[sl] = np.where(active | (pre_lo > 0.0), pre_lo, 0.0)
        bounds.post_upper[sl] = np.where(active | (pre_hi > 0.0), pre_hi, 0.0)
        cur_lo, cur_hi = bounds.post_lower[sl], bounds.post_upper[sl]
    return bounds


# ---------------------------------------------------------------------------
# triangle relaxation


def triangle_relaxation(a, b) -> tuple[tuple, tuple]:
    """The two rows (c_pre, c_post, rhs), meaning c_pre*pre + c_post*post
    <= rhs, that with the box post >= 0 make the convex hull of the ReLU
    graph over pre-activation interval [a, b]; elementwise on arrays.

    The rows are post >= pre and post <= (b/(b-a)) * (pre - a). Only
    unfixed neurons (a < 0 < b) may be relaxed.
    """
    if not np.logical_and(a < 0.0, 0.0 < b).all():
        raise ValueError(f"triangle relaxation needs a < 0 < b, got [{a}, {b}]")
    slope = b / (b - a)
    return (1.0, -1.0, 0.0), (-slope, 1.0, -slope * a)


# ---------------------------------------------------------------------------
# LP core


@dataclass
class LPProblem:
    lower: np.ndarray
    upper: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    objective: np.ndarray | None = None
    maximize: bool = False


@dataclass(frozen=True)
class Basis:
    """A simplex basis to start from: the column basic in each row, and the
    nonbasic columns at their upper bound (every other nonbasic column sits
    at its lower bound). Columns are numbered as in ``BoundedSimplex``."""

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass
class LPResult:
    status: str  # "feasible" | "infeasible"
    x: np.ndarray | None = None
    objective: float | None = None
    basis: Basis | None = None  # the final basis of a feasible LP

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


class BoundedSimplex:
    """Dense bounded-variable simplex, two phases, Bland's rule.

    Every row gets one logical column: a slack in [0, inf) for a ``<=``
    row, and a column pinned at 0 for an equality row, so the columns are
    the ``n`` structurals followed by the ``m`` logicals, in row order.
    Nonbasic columns sit at one of their bounds. The tableau B^-1 A is
    kept explicitly, which is plenty at desk scale and keeps pivots O(m*n).

    The start basis is ``start`` when given (refactorized with one solve)
    and otherwise a triangular crash basis; a start that is singular, or
    whose tableau has an entry that is not finite or exceeds
    ``_MAX_ENTRY``, gives way to the crash basis. Phase 1 (find_feasible)
    minimizes the basics' total box violation from there, with no
    artificial columns. After it, optimize() may be called repeatedly with
    different objectives; each call restarts phase 2 from the current
    basis. column_bounds() instead bounds many columns, each from the
    phase-1 basis.

    The tableau ``T`` holds only the columns that can ever enter the basis
    (``up > lo``), listed in ascending order by ``cols``. A pinned column
    may still be basic; it never enters again once it leaves. A dropped
    column is never eligible, so the pivots are exactly those of textbook
    Bland on the full tableau. ``lo``, ``up``, ``status`` and ``basis``
    index all columns.
    """

    _LOWER, _UPPER, _BASIC = 0, 1, 2
    _DANTZIG_STEPS = 50  # column_bounds: most negative reduced cost, then Bland
    _MAX_ENTRY = 1e8  # a start basis whose tableau exceeds this is refused

    def __init__(self, problem: LPProblem, start: Basis | None = None):
        lower = np.asarray(problem.lower, dtype=float)
        upper = np.asarray(problem.upper, dtype=float)
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("all variables need finite box bounds")
        self.n = n = lower.shape[0]
        a_eq = np.zeros((0, n)) if problem.a_eq is None else np.atleast_2d(
            np.asarray(problem.a_eq, dtype=float))
        b_eq = np.zeros(0) if problem.b_eq is None else np.atleast_1d(
            np.asarray(problem.b_eq, dtype=float))
        a_ub = np.zeros((0, n)) if problem.a_ub is None else np.atleast_2d(
            np.asarray(problem.a_ub, dtype=float))
        b_ub = np.zeros(0) if problem.b_ub is None else np.atleast_1d(
            np.asarray(problem.b_ub, dtype=float))
        m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
        self.m = m = m_eq + m_ub
        self.m_eq = m_eq
        self.ncols = ncols = n + m
        self.cap = 50 * (ncols + m)

        A = np.zeros((m, ncols))
        A[:m_eq, :n] = a_eq
        A[m_eq:, :n] = a_ub
        A[np.arange(m), np.arange(n, ncols)] = 1.0
        self.A = A
        self.b = np.concatenate([b_eq, b_ub])
        self.lo = np.concatenate([lower, np.zeros(m)])
        self.up = np.concatenate([upper, np.zeros(m_eq),
                                  np.full(m_ub, np.inf)])
        self._feasible: bool | None = None
        self.cols = cols = np.nonzero(self.up > self.lo)[0]
        self._pos = np.full(ncols, -1)
        self._pos[cols] = np.arange(cols.size)
        k = cols.size
        self._outer = np.empty((m, k))
        self._d = np.empty(k)
        self._elig = np.empty(k, dtype=bool)
        self._trow = np.empty(k)
        self._colv = np.empty(m)
        self._rate = np.empty(m)
        self._arate = np.empty(m)
        self._num = np.empty(m)
        self._limits = np.empty(m)
        self._bounded = np.empty(m, dtype=bool)
        self._inc = np.empty(m, dtype=bool)
        self._dec = np.empty(m, dtype=bool)
        if start is None or not self._factor(start.basic, start.at_upper):
            self._factor(self._crash_basis(), np.zeros(0, dtype=int))

    def _crash_basis(self) -> np.ndarray:
        """Each equality row's basic column: the lowest movable structural
        with coefficient 1 in that row and no entry in an earlier equality
        row, or the row's logical where there is none; every ``<=`` row's
        slack. B is then triangular with a unit diagonal."""
        n, m_eq = self.n, self.m_eq
        basis = np.arange(n, self.ncols)
        if not (m_eq and n):
            return basis
        eq = self.A[:m_eq, :n]
        nz = eq != 0.0
        first = np.where(nz.any(axis=0), nz.argmax(axis=0), -1)
        cand = (eq == 1.0) & (first == np.arange(m_eq)[:, None]) \
            & (self.up[:n] > self.lo[:n])
        has = cand.any(axis=1)
        basis[:m_eq][has] = cand.argmax(axis=1)[has]
        return basis

    def _factor(self, basis: np.ndarray, at_upper: np.ndarray) -> bool:
        """Install ``basis``: its tableau and basic values from one solve of
        B against [A_cols | rhs]. Returns False, installing nothing, when B
        is singular or the tableau is not finite or exceeds _MAX_ENTRY."""
        status = np.full(self.ncols, self._LOWER, dtype=np.int8)
        status[at_upper[np.isfinite(self.up[at_upper])]] = self._UPPER
        status[basis] = self._BASIC
        x = np.where(status == self._UPPER, self.up, self.lo)
        x[basis] = 0.0
        cols = self.cols
        try:
            sol = np.linalg.solve(
                self.A[:, basis],
                np.column_stack([self.A[:, cols], self.b - self.A @ x]))
        except np.linalg.LinAlgError:
            return False
        T, beta = sol[:, :-1], sol[:, -1]
        if not (np.isfinite(sol).all()
                and np.abs(T).max(initial=0.0) <= self._MAX_ENTRY):
            return False
        # basic columns read exact unit vectors
        k = self._pos[basis]
        rows = (k >= 0).nonzero()[0]
        T[:, k[rows]] = 0.0
        T[rows, k[rows]] = 1.0
        self.T = np.ascontiguousarray(T)
        self.beta = beta.copy()
        self.basis = np.array(basis, dtype=int)
        self.status = status
        return True

    # -- core pivoting loop ------------------------------------------------

    def _iterate(self, c: np.ndarray | None) -> bool:
        """Pivot by Bland's rule until no column is eligible.

        With ``c``, phase 2: minimize c.x from a feasible basis; returns
        True. With None, phase 1: minimize the total box violation of the
        basics. Its prices, -1 for a basic below its box and +1 for one
        above it by more than a margin, are recomputed at every pivot. The
        margin is _BOX_EPS until a basis (with its nonbasic bounds) comes
        back, as it can when basics violated by less than TOL_LP enter and
        leave the priced set; from then on it is TOL_LP. In its ratio test
        a violating basic moving toward its box stops at the bound it
        violates and leaves the basis there; one moving away never limits
        the step. Phase 1 returns True once no basic is out of its box by
        more than the margin, and when no column is eligible, whether every
        basic lies within TOL_LP of its box.
        """
        T, beta, basis, status = self.T, self.beta, self.basis, self.status
        cols, pos, lo, up = self.cols, self._pos, self.lo, self.up
        d, elig, trow, colv = self._d, self._elig, self._trow, self._colv
        rate, arate, num = self._rate, self._arate, self._num
        limits, bounded = self._limits, self._bounded
        inc, dec = self._inc, self._dec
        m = self.m
        phase1 = c is None
        bl, bu = lo[basis], up[basis]
        # below/above: basics violating their box (phase 1 only)
        below, above = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        if phase1:
            c_cols, cb = np.zeros(cols.size), np.empty(m)
        else:
            c_cols, cb = c[cols], c[basis]
        # direction each column may move in: +1 at lower, -1 at upper, 0 basic
        st = status[cols]
        sgn = (st == self._LOWER).astype(float) - (st == self._UPPER)
        iters, eps, seen = 0, _BOX_EPS, set()
        while True:
            if phase1:
                state = status.tobytes()
                if state in seen:  # a cycle: price only what TOL_LP counts
                    eps = TOL_LP
                seen.add(state)
                np.less(beta, bl - eps, out=below)
                np.greater(beta, bu + eps, out=above)
                if not (below.any() or above.any()):
                    return True
                cb[:] = above
                cb -= below
            if not cols.size:  # nothing can move
                return not phase1 or self._within_tol()
            iters += 1
            if iters > self.cap:
                raise LPIterationError(
                    f"simplex exceeded {self.cap} pivots")
            # reduced costs, signed so that eligible columns read below -TOL
            np.dot(cb, T, out=d)
            np.subtract(c_cols, d, out=d)
            np.multiply(sgn, d, out=d)
            np.less(d, -TOL_LP, out=elig)
            k = int(elig.argmax())  # Bland: lowest index enters
            if not elig[k]:
                return not phase1 or self._within_tol()
            j = int(cols[k])
            delta = sgn[k]
            colv[:] = T[:, k]
            np.multiply(colv, -delta, out=rate)

            # ratio test: each row's room to the bound its basic variable
            # moves toward (the violated one, for a violating basic moving
            # back), over |rate|; rows with |rate| <= _PIVOT_EPS, and
            # violating basics moving away, never bound the step
            np.abs(rate, out=arate)
            np.greater(rate, _PIVOT_EPS, out=inc)
            np.less(rate, -_PIVOT_EPS, out=dec)
            np.subtract(beta, np.where(above, bu, bl), out=num)
            np.subtract(np.where(below, bl, bu), beta, out=num, where=inc)
            np.logical_and(inc, ~above, out=bounded)
            bounded |= dec & ~below
            limits.fill(np.inf)
            np.divide(num, arate, out=limits, where=bounded)
            np.maximum(0.0, limits, out=limits)
            t_rows = limits[limits.argmin()] if m else np.inf
            t_self = up[j] - lo[j]
            if t_self <= t_rows + _RATIO_TIE:
                if not np.isfinite(t_self):
                    raise LPUnboundedError("objective unbounded on column "
                                           f"{j}")
                # bound flip, no basis change
                beta += rate * t_self
                status[j] = self._UPPER if delta > 0 else self._LOWER
                sgn[k] = -delta
                continue
            if not np.isfinite(t_rows):
                raise LPUnboundedError(f"objective unbounded on column {j}")
            tied = (limits <= t_rows + _RATIO_TIE).nonzero()[0]
            r = int(tied[basis[tied].argmin()])  # Bland: lowest leaves
            t = limits[r]

            leave = basis[r]
            at_upper = not below[r] if rate[r] > 0 else bool(above[r])
            status[leave] = self._UPPER if at_upper else self._LOWER
            if pos[leave] >= 0:
                sgn[pos[leave]] = -1.0 if at_upper else 1.0
            enter_val = (lo[j] if delta > 0 else up[j]) + delta * t
            beta += rate * t
            beta[r] = enter_val
            status[j] = self._BASIC
            sgn[k] = 0.0
            basis[r] = j
            bl[r], bu[r] = lo[j], up[j]
            if not phase1:
                cb[r] = c[j]

            piv = T[r, k]
            if abs(piv) < _PIVOT_EPS:
                raise LPError("numerically singular pivot")
            np.divide(T[r], piv, out=trow)
            colv[r] = 0.0  # rank-1 update eliminates column k elsewhere
            np.dot(colv[:, None], trow[None, :], out=self._outer)
            T -= self._outer
            T[r] = trow

    def _within_tol(self) -> bool:
        """Whether every basic lies within TOL_LP of its box."""
        bl, bu = self.lo[self.basis], self.up[self.basis]
        return bool(((self.beta >= bl - TOL_LP)
                     & (self.beta <= bu + TOL_LP)).all())

    # -- phases -------------------------------------------------------------

    def find_feasible(self) -> bool:
        """Phase 1 from the start basis; whether the LP is feasible."""
        self._feasible = self._iterate(None)
        return self._feasible

    def optimize(self, c_struct: np.ndarray, maximize: bool = False) -> float:
        if not self._feasible:
            raise LPError("optimize() before a successful find_feasible()")
        c = np.zeros(self.ncols)
        c[:self.n] = -np.asarray(c_struct, dtype=float) if maximize \
            else np.asarray(c_struct, dtype=float)
        self._iterate(c)
        x = self.solution()
        return float(np.asarray(c_struct, dtype=float) @ x)

    def column_bounds(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """Minimum and maximum of each structural column in ``cols`` over
        the feasible set, every one from the phase-1 basis.

        The ``2 * len(cols)`` objectives ``+-e_col`` run phase 2 together on
        a stack of copies of the phase-1 state, so a step makes one set of
        array calls for the whole stack rather than one per objective. A step
        enters the most negative signed reduced cost, and after
        ``_DANTZIG_STEPS`` steps Bland's lowest eligible index, which cannot
        cycle. A unit objective prices from the one row where its column is
        basic. The ratio test and the leaving row are ``_iterate``'s; a
        leaving row is bounded, so its pivot exceeds ``_PIVOT_EPS``. An
        objective leaves the stack once nothing is eligible, and its value
        is read from its column. Each objective keeps the pivot cap and
        raises as ``_iterate`` does. The basis of ``self`` does not change.
        """
        if not self._feasible:
            raise LPError(
                "column_bounds() before a successful find_feasible()")
        cols = np.asarray(cols, dtype=int)
        lo, up, movable = self.lo, self.up, self.cols
        m, k = self.T.shape
        # nothing to pivot, or nothing to bound: each column spans its box
        if not (m and k and cols.size):
            return lo[cols].copy(), up[cols].copy()
        # every column's tableau index, or the spare slot k for one that
        # cannot move: a leaving pinned basic writes its direction there,
        # and a pinned column reads one that does not matter (lo == up)
        slot = np.where(self._pos >= 0, self._pos, k)
        lo_m, up_m, width = lo[movable], up[movable], (up - lo)[movable]
        st = self.status[movable]
        sgn0 = np.zeros(k + 1)
        sgn0[:k] = (st == self._LOWER).astype(float) - (st == self._UPPER)
        # objective i minimizes s[i] * x[obj[i]]; the first ``na`` stack
        # entries are the objectives still running, ids their places
        obj = np.concatenate([cols, cols])
        s = np.repeat([1.0, -1.0], cols.size)
        ids = np.arange(obj.size)
        T, beta, basis, sgn = (np.repeat(a[None], obj.size, axis=0)
                               for a in (self.T, self.beta, self.basis, sgn0))
        state = (T, beta, basis, sgn, obj, s, ids)
        values = np.empty(obj.size)
        big = np.iinfo(basis.dtype).max
        na, step, ar = obj.size, 0, np.arange(obj.size)
        while True:
            step += 1
            if step > self.cap:
                raise LPIterationError(f"simplex exceeded {self.cap} pivots")
            # signed reduced costs: -s * sgn * T[rb] where the objective's
            # column is basic in row rb, else s * sgn at that column alone
            bas, Ta = basis[:na], T[:na]
            hit = bas == obj[:na, None]
            rb = hit.argmax(axis=1)
            basic = hit[ar, rb]
            d = Ta[ar, rb]
            d *= np.where(basic, -s[:na], 0.0)[:, None]
            d *= sgn[:na, :k]
            if not basic.all():
                off = (~basic & (slot[obj[:na]] < k)).nonzero()[0]
                e = slot[obj[off]]
                d[off, e] = s[off] * sgn[off, e]
            if step <= self._DANTZIG_STEPS:
                kk = d.argmin(axis=1)
            else:
                kk = (d < -TOL_LP).argmax(axis=1)
            done = ~(d[ar, kk] < -TOL_LP)
            if done.any():
                fin = done.nonzero()[0]
                col = obj[fin]
                x = np.where(sgn[fin, slot[col]] > 0, lo[col], up[col])
                values[ids[fin]] = np.where(basic[fin], beta[fin, rb[fin]], x)
                na -= fin.size
                if not na:
                    break
                # move running objectives from the tail into the holes
                holes = fin[fin < na]
                if holes.size:
                    fill = na + (~done[na:]).nonzero()[0]
                    for a in state:
                        a[holes] = a[fill]
                    kk[holes] = kk[fill]
                ar, kk, bas, Ta = ar[:na], kk[:na], basis[:na], T[:na]
            # ratio test, as in _iterate
            delta = sgn[ar, kk]
            colv = Ta[ar, :, kk]
            rate = colv * -delta[:, None]
            arate = np.abs(rate)
            num = np.where(rate > _PIVOT_EPS, up[bas] - beta[:na],
                           beta[:na] - lo[bas])
            limits = np.full((na, m), np.inf)
            np.divide(num, arate, out=limits, where=arate > _PIVOT_EPS)
            np.maximum(0.0, limits, out=limits)
            tie = limits.min(axis=1) + _RATIO_TIE
            t_self = width[kk]
            flip = t_self <= tie
            r = np.where(limits <= tie[:, None], bas, big).argmin(axis=1)
            p = ar
            if flip.any():  # bound flips: no basis change
                f = flip.nonzero()[0]
                if np.isinf(t_self[f]).any():
                    j = movable[kk[f][np.isinf(t_self[f])][0]]
                    raise LPUnboundedError(
                        f"objective unbounded on column {j}")
                sgn[f, kk[f]] = -delta[f]
                p = (~flip).nonzero()[0]
            t = np.where(flip, t_self, limits[ar, r])
            beta[:na] += rate * t[:, None]
            rp, kp, dp = r[p], kk[p], delta[p]
            sgn[p, slot[bas[p, rp]]] = np.where(rate[p, rp] < 0, 1.0, -1.0)
            beta[p, rp] = np.where(dp > 0, lo_m[kp], up_m[kp]) + dp * t[p]
            sgn[p, kp] = 0.0
            basis[p, rp] = movable[kp]
            trow = np.zeros((na, k))
            trow[p] = Ta[p, rp] / colv[p, rp][:, None]
            colv[p, rp] = 0.0  # rank-1 update eliminates column kp elsewhere
            Ta -= np.einsum("ij,ik->ijk", colv, trow)
            Ta[p, rp] = trow[p]
        q = cols.size
        return values[:q], values[q:]

    def _full_solution(self) -> np.ndarray:
        x = np.where(self.status == self._UPPER, self.up, self.lo)
        x[self.basis] = self.beta
        return x

    def solution(self) -> np.ndarray:
        return self._full_solution()[:self.n]

    def final_basis(self) -> Basis:
        """The current basis, to start a like LP from."""
        return Basis(basic=self.basis.copy(),
                     at_upper=(self.status == self._UPPER).nonzero()[0])


def solve_lp(problem: LPProblem, start: Basis | None = None) -> LPResult:
    """Solve one LP: Feasible with an assignment (optimal within TOL_LP when
    an objective is given) and its final basis, or Infeasible. ``start``
    is a basis of an LP with the same rows and columns to begin from.
    Deterministic for fixed input."""
    lower = np.asarray(problem.lower, dtype=float)
    upper = np.asarray(problem.upper, dtype=float)
    if np.any(lower > upper):
        return LPResult(status="infeasible")
    sx = BoundedSimplex(problem, start)
    if not sx.find_feasible():
        return LPResult(status="infeasible")
    objective = None
    if problem.objective is not None:
        objective = sx.optimize(np.asarray(problem.objective, dtype=float),
                                problem.maximize)
    return LPResult(status="feasible", x=sx.solution(), objective=objective,
                    basis=sx.final_basis())


# ---------------------------------------------------------------------------
# node relaxation


@dataclass(frozen=True)
class VarMap:
    """Column layout of a node relaxation LP: the inputs, each ReLU layer's
    pre- then post-activations, then the outputs. ``pre`` and ``post`` hold
    every ReLU's two columns in relu_ids() order."""

    x: slice
    pre: np.ndarray
    post: np.ndarray
    y: slice
    n_vars: int


def build_relaxation(net: Network, bounds: BoundsMap, phases: np.ndarray,
                     output_constraints: Sequence = ()) -> tuple[LPProblem, VarMap]:
    """Assemble the node's LP: exact affine rows, fixed ReLUs as equalities
    or pinned zeros, unfixed ReLUs triangle-relaxed, plus the output rows.

    The equality rows run layer by layer: a layer's affine rows, then its
    ReLU equalities. The triangle rows follow relu_ids() order, then come
    the output rows. Bland's rule pivots by index, so the order is part of
    the result.
    """
    lo, up = bounds.pre_lower, bounds.pre_upper
    unfixed = phases == Phase.UNFIXED.value
    # active (or unfixed but nonnegative): post = pre; inactive (or unfixed
    # but nonpositive): post pinned to [0, 0] by its box
    tied = (phases == Phase.ACTIVE.value) | (unfixed & (lo >= 0.0))
    tri = (unfixed & (lo < 0.0) & (up > 0.0)).nonzero()[0]

    n_vars = net.input_dim + 2 * net.num_relus + net.output_dim
    n_eq = sum(layer.out_dim for layer in net.layers) + np.count_nonzero(tied)
    a_eq, b_eq = np.zeros((n_eq, n_vars)), np.zeros(n_eq)
    pre = np.empty(net.num_relus, dtype=int)
    post = np.empty(net.num_relus, dtype=int)
    lows, ups = [bounds.input_lower], [bounds.input_upper]
    prev, col, row = slice(0, net.input_dim), net.input_dim, 0
    for k, layer in enumerate(net.layers):
        width = layer.out_dim
        block = a_eq[row:row + width]
        np.fill_diagonal(block[:, col:col + width], 1.0)
        block[:, prev] = -layer.weight
        b_eq[row:row + width] = layer.bias
        row += width
        if not layer.has_relu:
            y = slice(col, col + width)
            lows.append(bounds.output_lower)
            ups.append(bounds.output_upper)
            continue
        sl = net.relu_slices[k]
        pre[sl] = np.arange(col, col + width)
        post[sl] = pre[sl] + width
        lows += [bounds.pre_lower[sl], bounds.post_lower[sl]]
        ups += [bounds.pre_upper[sl], bounds.post_upper[sl]]
        eq = tied[sl].nonzero()[0]
        a_eq[row + np.arange(eq.size), post[sl][eq]] = 1.0
        a_eq[row + np.arange(eq.size), pre[sl][eq]] = -1.0
        row += eq.size
        prev = slice(col + width, col + 2 * width)
        col += 2 * width
    vmap = VarMap(x=slice(0, net.input_dim), pre=pre, post=post, y=y,
                  n_vars=n_vars)

    n_tri = 2 * tri.size
    a_ub = np.zeros((n_tri + len(output_constraints), n_vars))
    b_ub = np.empty(a_ub.shape[0])
    # two rows per neuron; post >= 0 is the box
    for j, (c_pre, c_post, c_rhs) in enumerate(
            triangle_relaxation(lo[tri], up[tri])):
        rows = a_ub[j:n_tri:2]
        rows[np.arange(tri.size), pre[tri]] = c_pre
        rows[np.arange(tri.size), post[tri]] = c_post
        b_ub[j:n_tri:2] = c_rhs
    for i, con in enumerate(output_constraints):
        a_ub[n_tri + i, y] = con.coeffs
        b_ub[n_tri + i] = con.bound

    problem = LPProblem(lower=np.concatenate(lows), upper=np.concatenate(ups),
                        a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
    return problem, vmap


class NodeLP:
    """An LP of one query, with one layout at every node.

    Columns: ``vmap``'s inputs, each ReLU layer's pre- then
    post-activations and the outputs; the SoI layout (``soi=True``) then
    has one SoI auxiliary per ReLU (columns ``t``, in relu_ids() order).
    Rows: the affine equalities layer by layer, then each ReLU's rows in
    relu_ids() order (its two triangle rows, then, in the SoI layout, its
    two SoI rows), then the output rows. The matrix is built here once;
    ``problem`` writes a node's boxes, triangle slopes and right-hand sides
    into it, so a node's final basis is a valid start for its children.
    The SoI layout is the node's SoI LP; the one without SoI rows and
    columns, ``tightening``, is its bound-tightening LP.

    A neuron that is active, or unfixed with pre lower bound >= 0, gets
    triangle slope 1 and intercept 0: its two triangle rows give post =
    pre. One that is inactive, or unfixed with pre upper bound <= 0, gets
    slope 0, and its box pins post to 0. A fixed neuron's ``t`` is pinned to
    [0, 0]. The SoI rows ``t <= post - pre`` and ``t <= post`` hold every
    point of a fixed neuron, so the feasible set is that of
    ``build_relaxation`` (which drops what this keeps as redundant rows).
    """

    def __init__(self, net: Network, output_constraints: Sequence = (),
                 soi: bool = True):
        self.net, self.output_constraints, self.soi = \
            net, output_constraints, soi
        r = net.num_relus
        n_in, n_out = net.input_dim, net.output_dim
        n = n_in + (3 if soi else 2) * r + n_out
        n_eq = sum(layer.out_dim for layer in net.layers)
        a_eq, b_eq = np.zeros((n_eq, n)), np.zeros(n_eq)
        pre = np.empty(r, dtype=int)
        post = np.empty(r, dtype=int)
        prev, col, row = slice(0, n_in), n_in, 0
        for k, layer in enumerate(net.layers):
            width = layer.out_dim
            block = a_eq[row:row + width]
            np.fill_diagonal(block[:, col:col + width], 1.0)
            block[:, prev] = -layer.weight
            b_eq[row:row + width] = layer.bias
            row += width
            if not layer.has_relu:
                y = slice(col, col + width)
                continue
            sl = net.relu_slices[k]
            pre[sl] = np.arange(col, col + width)
            post[sl] = pre[sl] + width
            prev = slice(col + width, col + 2 * width)
            col += 2 * width
        self.vmap = VarMap(x=slice(0, n_in), pre=pre, post=post, y=y,
                           n_vars=col + n_out)
        self.t = t = np.arange(col + n_out, n)
        # ReLU j's rows start at w * j: two triangle rows, then SoI rows
        self._w = w = 4 if soi else 2
        j = w * np.arange(r)
        a_ub = np.zeros((w * r + len(output_constraints), n))
        b_ub = np.zeros(a_ub.shape[0])
        a_ub[j, pre] = 1.0          # post >= pre
        a_ub[j, post] = -1.0
        a_ub[j + 1, post] = 1.0     # post <= slope * (pre - a)
        if soi:
            a_ub[j + 2, t] = 1.0    # t <= post - pre
            a_ub[j + 2, post] = -1.0
            a_ub[j + 2, pre] = 1.0
            a_ub[j + 3, t] = 1.0    # t <= post
            a_ub[j + 3, post] = -1.0
        for i, con in enumerate(output_constraints):
            a_ub[w * r + i, y] = con.coeffs
            b_ub[w * r + i] = con.bound
        self.a_eq, self.b_eq, self.a_ub, self.b_ub = a_eq, b_eq, a_ub, b_ub

    @functools.cached_property
    def tightening(self) -> "NodeLP":
        """The query's bound-tightening LP: this layout without SoI rows
        and ``t`` columns, built on first use."""
        return NodeLP(self.net, self.output_constraints, soi=False)

    def problem(self, bounds: BoundsMap, phases: np.ndarray) -> LPProblem:
        """The node's LP; in the SoI layout, maximizing the total SoI of
        its unfixed neurons."""
        vmap, r, w = self.vmap, self.net.num_relus, self._w
        lo, up = bounds.pre_lower, bounds.pre_upper
        unfixed = phases == Phase.UNFIXED.value
        tied = (phases == Phase.ACTIVE.value) | (unfixed & (lo >= 0.0))
        tri = (unfixed & (lo < 0.0) & (up > 0.0)).nonzero()[0]
        c_pre, c_rhs = -tied.astype(float), np.zeros(r)
        _, (c_pre[tri], _, c_rhs[tri]) = triangle_relaxation(lo[tri], up[tri])
        a_ub, b_ub = self.a_ub.copy(), self.b_ub.copy()
        a_ub[w * np.arange(r) + 1, vmap.pre] = c_pre
        b_ub[1:w * r:w] = c_rhs
        n = self.a_ub.shape[1]
        lower, upper = np.zeros(n), np.zeros(n)
        for box, pre_b, post_b, in_b, out_b in (
                (lower, lo, bounds.post_lower, bounds.input_lower,
                 bounds.output_lower),
                (upper, up, bounds.post_upper, bounds.input_upper,
                 bounds.output_upper)):
            box[vmap.x], box[vmap.y] = in_b, out_b
            box[vmap.pre], box[vmap.post] = pre_b, post_b
        problem = LPProblem(lower=lower, upper=upper, a_eq=self.a_eq,
                            b_eq=self.b_eq, a_ub=a_ub, b_ub=b_ub)
        if not self.soi:
            return problem
        # an unfixed neuron's t spans min(post - pre, post) over its boxes
        a_lo, a_hi = bounds.post_lower[unfixed], bounds.post_upper[unfixed]
        z_lo, z_hi = lo[unfixed], up[unfixed]
        t = self.t[unfixed]
        lower[t] = np.where(a_lo < a_lo - z_hi, a_lo, a_lo - z_hi)
        upper[t] = np.where(a_hi < a_hi - z_lo, a_hi, a_hi - z_lo)
        problem.objective = np.zeros(n)
        problem.objective[t] = 1.0
        problem.maximize = True
        return problem


def solve_relaxation(lp: NodeLP, bounds: BoundsMap, phases: np.ndarray,
                     start: Basis | None = None) -> LPResult:
    """Solve the node relaxation for its most-violating point, starting
    from ``start`` (the parent node's final basis) when given.

    The assignment maximizes the total ReLU error (sum over unfixed neurons
    of min(post - pre, post), each linearized with one auxiliary variable),
    so a zero objective certifies that every point of the relaxation
    satisfies all ReLU constraints exactly. That makes the SoI-based SAT
    test independent of which vertex the simplex happens to visit. The
    result's ``x`` covers every column of ``lp``; ``lp.vmap`` reads it.
    """
    problem = lp.problem(bounds, phases)
    if (phases == Phase.UNFIXED.value).any():
        return solve_lp(problem, start)
    problem.objective = None  # every t is pinned at 0: phase 1 decides
    result = solve_lp(problem, start)
    if result.feasible:
        result.objective = 0.0
    return result


def tighten_bounds_lp(lp: NodeLP, bounds: BoundsMap, phases: np.ndarray,
                      start: Basis | None = None
                      ) -> tuple[BoundsMap, Basis]:
    """Min/max every unfixed pre-activation over the node's LP relaxation
    in the layout of ``lp`` (the query's ``NodeLP.tightening``),
    intersecting with the incoming bounds (never widens). The input box and
    every other bound come back unchanged.

    Phase 1 starts from ``start`` (the phase-1 basis of an earlier
    tightening LP of the query) when given, else from the crash basis; then
    one ``column_bounds`` call, so every bound is an optimum reached from
    the phase-1 basis and none depends on which bounds were computed before
    it. Returns the bounds and that phase-1 basis, for the next tightening
    LP to start from. Raises Conflict when the relaxation is infeasible.
    Tightened values are inflated by a tiny safety margin so later exact
    comparisons stay sound.
    """
    sx = BoundedSimplex(lp.problem(bounds, phases), start)
    if not sx.find_feasible():
        raise Conflict("node relaxation infeasible")
    unfixed = (phases == Phase.UNFIXED.value).nonzero()[0]
    lo, hi = sx.column_bounds(lp.vmap.pre[unfixed])
    lo -= _BOUND_SAFETY
    hi += _BOUND_SAFETY
    # intersect; np.where keeps the old bound on a tie, as max()/min() do
    old_lo, old_hi = bounds.pre_lower[unfixed], bounds.pre_upper[unfixed]
    out = bounds.copy()
    out.pre_lower[unfixed] = np.where(lo > old_lo, lo, old_lo)
    out.pre_upper[unfixed] = np.where(hi < old_hi, hi, old_hi)
    return out, sx.final_basis()
