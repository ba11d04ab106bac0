"""Bound computation and the LP core.

Three layers of machinery live here:

* forward interval propagation through affine+ReLU layers, with phase
  clipping and conflict detection;
* a dense two-phase simplex over box-bounded variables with Bland's
  anti-cycling rule, supporting warm-started re-optimization of the same
  system under many objectives;
* construction of a node's triangle LP relaxation and LP-based bound
  tightening on top of it.

Conflict (an empty node) is a first-class signal distinct from solver
errors: branch-and-bound prunes on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import Network, NeuronId

TOL_LP = 1e-7
_CONFLICT_EPS = 1e-9
SAT_SOI_TOL = 1e-6     # total SoI at or below this makes a node a SAT candidate
_BOUND_SAFETY = 1e-9   # sound-side inflation of LP-tightened bounds
_PIVOT_EPS = 1e-9
_RATIO_TIE = 1e-10


class Phase(Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    UNFIXED = "unfixed"

    @property
    def short(self) -> str:
        return {"active": "A", "inactive": "I", "unfixed": "U"}[self.value]


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
    """Pre/post-activation bounds for every neuron plus the input/output box.

    Dict keys are affine-layer indices of ReLU layers; values are arrays over
    that layer's neurons.
    """

    input_lower: np.ndarray
    input_upper: np.ndarray
    pre_lower: dict[int, np.ndarray]
    pre_upper: dict[int, np.ndarray]
    post_lower: dict[int, np.ndarray]
    post_upper: dict[int, np.ndarray]
    output_lower: np.ndarray
    output_upper: np.ndarray

    def pre(self, nid: NeuronId) -> tuple[float, float]:
        return (float(self.pre_lower[nid.layer][nid.index]),
                float(self.pre_upper[nid.layer][nid.index]))

    def post(self, nid: NeuronId) -> tuple[float, float]:
        return (float(self.post_lower[nid.layer][nid.index]),
                float(self.post_upper[nid.layer][nid.index]))

    def copy(self) -> "BoundsMap":
        return BoundsMap(
            input_lower=self.input_lower.copy(),
            input_upper=self.input_upper.copy(),
            pre_lower={k: v.copy() for k, v in self.pre_lower.items()},
            pre_upper={k: v.copy() for k, v in self.pre_upper.items()},
            post_lower={k: v.copy() for k, v in self.post_lower.items()},
            post_upper={k: v.copy() for k, v in self.post_upper.items()},
            output_lower=self.output_lower.copy(),
            output_upper=self.output_upper.copy(),
        )


def _layer_phases(phases: dict[NeuronId, Phase], layer: int, width: int) -> list[Phase]:
    out = [Phase.UNFIXED] * width
    for nid, ph in phases.items():
        if nid.layer == layer:
            out[nid.index] = ph
    return out


def propagate_intervals(net: Network,
                        input_lower: np.ndarray,
                        input_upper: np.ndarray,
                        phases: dict[NeuronId, Phase],
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
    if np.any(lo > hi + _CONFLICT_EPS):
        raise Conflict("empty input box")
    bounds = BoundsMap(input_lower=lo, input_upper=hi,
                       pre_lower={}, pre_upper={},
                       post_lower={}, post_upper={},
                       output_lower=np.empty(0), output_upper=np.empty(0))
    cur_lo, cur_hi = lo, hi
    for k, layer in enumerate(net.layers):
        wp = np.clip(layer.weight, 0.0, None)
        wm = np.clip(layer.weight, None, 0.0)
        pre_lo = wp @ cur_lo + wm @ cur_hi + layer.bias
        pre_hi = wp @ cur_hi + wm @ cur_lo + layer.bias
        if not layer.has_relu:
            bounds.output_lower = pre_lo
            bounds.output_upper = pre_hi
            cur_lo, cur_hi = pre_lo, pre_hi
            continue
        if clip is not None and k in clip.pre_lower:
            pre_lo = np.maximum(pre_lo, clip.pre_lower[k])
            pre_hi = np.minimum(pre_hi, clip.pre_upper[k])
        post_lo = np.empty_like(pre_lo)
        post_hi = np.empty_like(pre_hi)
        for i, ph in enumerate(_layer_phases(phases, k, layer.out_dim)):
            if ph is Phase.INACTIVE:
                if pre_lo[i] > _CONFLICT_EPS:
                    raise Conflict(f"neuron {k}:{i} inactive but pre >= "
                                   f"{pre_lo[i]:g}")
                pre_hi[i] = min(pre_hi[i], 0.0)
                pre_lo[i] = min(pre_lo[i], pre_hi[i])
                post_lo[i] = post_hi[i] = 0.0
            elif ph is Phase.ACTIVE:
                if pre_hi[i] < -_CONFLICT_EPS:
                    raise Conflict(f"neuron {k}:{i} active but pre <= "
                                   f"{pre_hi[i]:g}")
                pre_lo[i] = max(pre_lo[i], 0.0)
                pre_hi[i] = max(pre_hi[i], pre_lo[i])
                post_lo[i] = pre_lo[i]
                post_hi[i] = pre_hi[i]
            else:
                if pre_lo[i] > pre_hi[i] + _CONFLICT_EPS:
                    raise Conflict(f"neuron {k}:{i} has empty pre interval")
                post_lo[i] = max(0.0, pre_lo[i])
                post_hi[i] = max(0.0, pre_hi[i])
        bounds.pre_lower[k] = pre_lo
        bounds.pre_upper[k] = pre_hi
        bounds.post_lower[k] = post_lo
        bounds.post_upper[k] = post_hi
        cur_lo, cur_hi = post_lo, post_hi
    return bounds


# ---------------------------------------------------------------------------
# triangle relaxation


@dataclass(frozen=True)
class TriangleRelaxation:
    """Rows (c_pre, c_post, rhs) meaning c_pre*pre + c_post*post <= rhs."""

    rows: tuple[tuple[float, float, float], ...]
    slope: float

    def satisfied(self, pre: float, post: float, tol: float = 1e-12) -> bool:
        return all(cp * pre + ca * post <= rhs + tol
                   for cp, ca, rhs in self.rows)


def triangle_relaxation(a: float, b: float) -> TriangleRelaxation:
    """Convex hull of the ReLU graph over pre-activation interval [a, b].

    post >= 0, post >= pre, post <= (b/(b-a)) * (pre - a). Only unfixed
    neurons (a < 0 < b) may be relaxed.
    """
    if not (a < 0.0 < b):
        raise ValueError(f"triangle relaxation needs a < 0 < b, got [{a}, {b}]")
    slope = b / (b - a)
    rows = (
        (0.0, -1.0, 0.0),
        (1.0, -1.0, 0.0),
        (-slope, 1.0, -slope * a),
    )
    return TriangleRelaxation(rows=rows, slope=slope)


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


@dataclass
class LPResult:
    status: str  # "feasible" | "infeasible"
    x: np.ndarray | None = None
    objective: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


class BoundedSimplex:
    """Dense bounded-variable simplex, two phases, Bland's rule.

    Nonbasic variables sit at one of their bounds. The tableau B^-1 A is
    maintained explicitly, which is plenty at desk scale and keeps pivots
    O(m*n). After find_feasible(), optimize() may be called repeatedly with
    different objectives; each call restarts phase 2 from the current basis.
    """

    _LOWER, _UPPER, _BASIC = 0, 1, 2

    def __init__(self, problem: LPProblem):
        lower = np.asarray(problem.lower, dtype=float)
        upper = np.asarray(problem.upper, dtype=float)
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("all variables need finite box bounds")
        self.n = lower.shape[0]
        a_eq = np.zeros((0, self.n)) if problem.a_eq is None else np.atleast_2d(
            np.asarray(problem.a_eq, dtype=float))
        b_eq = np.zeros(0) if problem.b_eq is None else np.atleast_1d(
            np.asarray(problem.b_eq, dtype=float))
        a_ub = np.zeros((0, self.n)) if problem.a_ub is None else np.atleast_2d(
            np.asarray(problem.a_ub, dtype=float))
        b_ub = np.zeros(0) if problem.b_ub is None else np.atleast_1d(
            np.asarray(problem.b_ub, dtype=float))
        m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
        m = m_eq + m_ub
        n = self.n
        ncols = n + m_ub + m
        self.m = m
        self.m_eq = m_eq
        self.slack0 = n
        self.art0 = n + m_ub
        self.ncols = ncols
        self.cap = 50 * (ncols + m)

        A = np.zeros((m, ncols))
        if m_eq:
            A[:m_eq, :n] = a_eq
        if m_ub:
            A[m_eq:, :n] = a_ub
            A[np.arange(m_eq, m), np.arange(n, n + m_ub)] = 1.0
        b = np.concatenate([b_eq, b_ub])

        self.lo = np.concatenate([lower, np.zeros(m_ub), np.zeros(m)])
        self.up = np.concatenate([upper, np.full(m_ub, np.inf), np.full(m, np.inf)])
        self.status = np.full(ncols, self._LOWER, dtype=np.int8)
        self.basis = np.empty(m, dtype=int)

        resid = b - A[:, :n] @ lower
        dvec = np.ones(m)
        for i in range(m):
            slack_ok = i >= m_eq and resid[i] >= 0.0
            if slack_ok:
                j = n + (i - m_eq)
                self.up[self.art0 + i] = 0.0  # artificial unused, lock it
            else:
                j = self.art0 + i
                sigma = 1.0 if resid[i] >= 0.0 else -1.0
                A[i, j] = sigma
                dvec[i] = sigma
            self.basis[i] = j
            self.status[j] = self._BASIC
        self.T = A * dvec[:, None]
        self.beta = dvec * resid
        self._feasible: bool | None = None

    # -- core pivoting loop ------------------------------------------------

    def _iterate(self, c: np.ndarray) -> None:
        iters = 0
        while True:
            iters += 1
            if iters > self.cap:
                raise LPIterationError(
                    f"simplex exceeded {self.cap} pivots")
            d = c - c[self.basis] @ self.T
            movable = self.up - self.lo > 0.0
            elig = movable & (
                ((self.status == self._LOWER) & (d < -TOL_LP))
                | ((self.status == self._UPPER) & (d > TOL_LP)))
            js = np.nonzero(elig)[0]
            if js.size == 0:
                return
            j = int(js[0])  # Bland: lowest index enters
            delta = 1.0 if self.status[j] == self._LOWER else -1.0
            rate = -delta * self.T[:, j]

            bl = self.lo[self.basis]
            bu = self.up[self.basis]
            limits = np.full(self.m, np.inf)
            dec = rate < -_PIVOT_EPS
            inc = rate > _PIVOT_EPS
            limits[dec] = np.maximum(0.0, (self.beta[dec] - bl[dec]) / -rate[dec])
            limits[inc] = np.maximum(0.0, (bu[inc] - self.beta[inc]) / rate[inc])
            t_rows = limits.min() if self.m else np.inf
            t_self = self.up[j] - self.lo[j]
            if t_self <= t_rows + _RATIO_TIE:
                if not np.isfinite(t_self):
                    raise LPUnboundedError("objective unbounded on column "
                                           f"{j}")
                # bound flip, no basis change
                self.beta = self.beta + rate * t_self
                self.status[j] = self._UPPER if delta > 0 else self._LOWER
                continue
            if not np.isfinite(t_rows):
                raise LPUnboundedError(f"objective unbounded on column {j}")
            tied = np.nonzero(limits <= t_rows + _RATIO_TIE)[0]
            r = int(tied[np.argmin(self.basis[tied])])  # Bland: lowest leaves
            t = limits[r]

            leave = self.basis[r]
            self.status[leave] = self._LOWER if rate[r] < 0 else self._UPPER
            enter_val = (self.lo[j] if delta > 0 else self.up[j]) + delta * t
            self.beta = self.beta + rate * t
            self.beta[r] = enter_val
            self.status[j] = self._BASIC
            self.basis[r] = j

            piv = self.T[r, j]
            if abs(piv) < _PIVOT_EPS:
                raise LPError("numerically singular pivot")
            trow = self.T[r] / piv
            colv = self.T[:, j].copy()
            colv[r] = 0.0
            self.T -= np.outer(colv, trow)
            self.T[r] = trow

    # -- phases -------------------------------------------------------------

    def find_feasible(self) -> bool:
        c = np.zeros(self.ncols)
        c[self.art0:] = 1.0
        self._iterate(c)
        infeas = float(c @ self._full_solution())
        if infeas > TOL_LP:
            self._feasible = False
            return False
        # lock artificials at zero; basic ones stay as degenerate zeros
        self.up[self.art0:] = 0.0
        art_rows = np.nonzero(self.basis >= self.art0)[0]
        self.beta[art_rows] = 0.0
        self._feasible = True
        return True

    def optimize(self, c_struct: np.ndarray, maximize: bool = False) -> float:
        if not self._feasible:
            raise LPError("optimize() before a successful find_feasible()")
        c = np.zeros(self.ncols)
        c[:self.n] = -np.asarray(c_struct, dtype=float) if maximize \
            else np.asarray(c_struct, dtype=float)
        self._iterate(c)
        x = self.solution()
        return float(np.asarray(c_struct, dtype=float) @ x)

    def _full_solution(self) -> np.ndarray:
        x = np.where(self.status == self._UPPER, self.up, self.lo)
        x[self.basis] = self.beta
        return x

    def solution(self) -> np.ndarray:
        return self._full_solution()[:self.n]


def solve_lp(problem: LPProblem) -> LPResult:
    """Solve one LP: Feasible with an assignment (optimal within TOL_LP when
    an objective is given), or Infeasible. Deterministic for fixed input."""
    lower = np.asarray(problem.lower, dtype=float)
    upper = np.asarray(problem.upper, dtype=float)
    if np.any(lower > upper):
        return LPResult(status="infeasible")
    sx = BoundedSimplex(problem)
    if not sx.find_feasible():
        return LPResult(status="infeasible")
    objective = None
    if problem.objective is not None:
        objective = sx.optimize(np.asarray(problem.objective, dtype=float),
                                problem.maximize)
    return LPResult(status="feasible", x=sx.solution(), objective=objective)


# ---------------------------------------------------------------------------
# node relaxation


@dataclass(frozen=True)
class VarMap:
    """Column layout of a node relaxation LP."""

    x: slice
    pre: dict[int, slice]
    post: dict[int, slice]
    y: slice
    n_vars: int

    def pre_of(self, sol: np.ndarray, nid: NeuronId) -> float:
        return float(sol[self.pre[nid.layer]][nid.index])

    def post_of(self, sol: np.ndarray, nid: NeuronId) -> float:
        return float(sol[self.post[nid.layer]][nid.index])


def build_relaxation(net: Network, bounds: BoundsMap,
                     phases: dict[NeuronId, Phase],
                     output_constraints: Sequence = ()) -> tuple[LPProblem, VarMap]:
    """Assemble the node's LP: exact affine rows, fixed ReLUs as equalities
    or pinned zeros, unfixed ReLUs triangle-relaxed, plus the output rows."""
    lows = [bounds.input_lower]
    ups = [bounds.input_upper]
    pre_slices: dict[int, slice] = {}
    post_slices: dict[int, slice] = {}
    pos = net.input_dim
    for k, layer in enumerate(net.layers):
        if layer.has_relu:
            pre_slices[k] = slice(pos, pos + layer.out_dim)
            pos += layer.out_dim
            lows.append(bounds.pre_lower[k])
            ups.append(bounds.pre_upper[k])
            post_slices[k] = slice(pos, pos + layer.out_dim)
            pos += layer.out_dim
            lows.append(bounds.post_lower[k])
            ups.append(bounds.post_upper[k])
        else:
            y_slice = slice(pos, pos + layer.out_dim)
            pos += layer.out_dim
            lows.append(bounds.output_lower)
            ups.append(bounds.output_upper)
    vmap = VarMap(x=slice(0, net.input_dim), pre=pre_slices,
                  post=post_slices, y=y_slice, n_vars=pos)

    eq_rows: list[np.ndarray] = []
    eq_rhs: list[float] = []
    ub_rows: list[np.ndarray] = []
    ub_rhs: list[float] = []

    prev = vmap.x
    for k, layer in enumerate(net.layers):
        out_slice = pre_slices[k] if layer.has_relu else vmap.y
        block = np.zeros((layer.out_dim, pos))
        block[:, out_slice] = np.eye(layer.out_dim)
        block[:, prev] = -layer.weight
        eq_rows.extend(block)
        eq_rhs.extend(layer.bias)
        if not layer.has_relu:
            continue
        zs, as_ = pre_slices[k], post_slices[k]
        lphases = _layer_phases(phases, k, layer.out_dim)
        for i, ph in enumerate(lphases):
            a, b = bounds.pre_lower[k][i], bounds.pre_upper[k][i]
            if ph is Phase.ACTIVE or (ph is Phase.UNFIXED and a >= 0.0):
                row = np.zeros(pos)
                row[as_.start + i] = 1.0
                row[zs.start + i] = -1.0
                eq_rows.append(row)
                eq_rhs.append(0.0)
            elif ph is Phase.INACTIVE or (ph is Phase.UNFIXED and b <= 0.0):
                pass  # post pinned to [0, 0] by its box
            else:
                tri = triangle_relaxation(a, b)
                for c_pre, c_post, rhs in tri.rows[1:]:  # post>=0 is the box
                    row = np.zeros(pos)
                    row[zs.start + i] = c_pre
                    row[as_.start + i] = c_post
                    ub_rows.append(row)
                    ub_rhs.append(rhs)
        prev = as_
    for con in output_constraints:
        row = np.zeros(pos)
        row[vmap.y] = con.coeffs
        ub_rows.append(row)
        ub_rhs.append(con.bound)

    problem = LPProblem(
        lower=np.concatenate(lows), upper=np.concatenate(ups),
        a_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        a_ub=np.array(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
    )
    return problem, vmap


def solve_relaxation(net: Network, bounds: BoundsMap,
                     phases: dict[NeuronId, Phase],
                     output_constraints: Sequence = ()) -> tuple[LPResult, VarMap]:
    """Solve the node relaxation for its most-violating point.

    The assignment maximizes the total ReLU error (sum over unfixed neurons
    of min(post - pre, post), each linearized with one auxiliary variable),
    so a zero objective certifies that every point of the relaxation
    satisfies all ReLU constraints exactly. That makes the SoI-based SAT
    test independent of which vertex the simplex happens to visit.
    """
    problem, vmap = build_relaxation(net, bounds, phases, output_constraints)
    aux: list[tuple[int, int]] = []  # (pre column, post column) per unfixed
    for k in vmap.pre:
        width = vmap.pre[k].stop - vmap.pre[k].start
        for i in range(width):
            if phases.get(NeuronId(k, i), Phase.UNFIXED) is Phase.UNFIXED:
                aux.append((vmap.pre[k].start + i, vmap.post[k].start + i))
    if not aux:
        result = solve_lp(problem)
        if result.feasible:
            result = LPResult(status="feasible", x=result.x, objective=0.0)
        return result, vmap

    n = vmap.n_vars
    n_aux = len(aux)
    t_lo = np.empty(n_aux)
    t_hi = np.empty(n_aux)
    rows = []
    rhs = []
    for j, (zc, ac) in enumerate(aux):
        a_lo, a_hi = problem.lower[ac], problem.upper[ac]
        z_lo, z_hi = problem.lower[zc], problem.upper[zc]
        t_lo[j] = min(a_lo - z_hi, a_lo)
        t_hi[j] = min(a_hi - z_lo, a_hi)
        row = np.zeros(n + n_aux)
        row[n + j] = 1.0
        row[ac] = -1.0
        row[zc] = 1.0
        rows.append(row)          # t <= post - pre
        rhs.append(0.0)
        row = np.zeros(n + n_aux)
        row[n + j] = 1.0
        row[ac] = -1.0
        rows.append(row)          # t <= post
        rhs.append(0.0)
    a_ub = np.vstack([
        np.hstack([problem.a_ub, np.zeros((problem.a_ub.shape[0], n_aux))])
        if problem.a_ub is not None else np.zeros((0, n + n_aux)),
        np.array(rows)])
    b_ub = np.concatenate([
        problem.b_ub if problem.b_ub is not None else np.zeros(0),
        np.array(rhs)])
    objective = np.zeros(n + n_aux)
    objective[n:] = 1.0
    widened = LPProblem(
        lower=np.concatenate([problem.lower, t_lo]),
        upper=np.concatenate([problem.upper, t_hi]),
        a_eq=np.hstack([problem.a_eq, np.zeros((problem.a_eq.shape[0], n_aux))])
        if problem.a_eq is not None else None,
        b_eq=problem.b_eq,
        a_ub=a_ub, b_ub=b_ub,
        objective=objective, maximize=True)
    result = solve_lp(widened)
    if result.feasible:
        result = LPResult(status="feasible", x=result.x[:n],
                          objective=result.objective)
    return result, vmap


def tighten_bounds_lp(net: Network, bounds: BoundsMap,
                      phases: dict[NeuronId, Phase],
                      output_constraints: Sequence = ()) -> BoundsMap:
    """Min/max every input and every unfixed pre-activation over the node's
    LP relaxation, intersecting with the incoming bounds (never widens).

    Raises Conflict when the relaxation is infeasible. Tightened values are
    inflated by a tiny safety margin so later exact comparisons stay sound.
    """
    problem, vmap = build_relaxation(net, bounds, phases, output_constraints)
    sx = BoundedSimplex(problem)
    if not sx.find_feasible():
        raise Conflict("node relaxation infeasible")
    new = bounds.copy()

    def minmax(col: int) -> tuple[float, float]:
        c = np.zeros(vmap.n_vars)
        c[col] = 1.0
        lo = sx.optimize(c) - _BOUND_SAFETY
        hi = sx.optimize(c, maximize=True) + _BOUND_SAFETY
        return lo, hi

    for i in range(net.input_dim):
        lo, hi = minmax(i)
        new.input_lower[i] = max(new.input_lower[i], lo)
        new.input_upper[i] = min(new.input_upper[i], hi)
    for k, layer in enumerate(net.layers):
        if not layer.has_relu:
            continue
        lphases = _layer_phases(phases, k, layer.out_dim)
        for i, ph in enumerate(lphases):
            if ph is not Phase.UNFIXED:
                continue
            lo, hi = minmax(vmap.pre[k].start + i)
            new.pre_lower[k][i] = max(new.pre_lower[k][i], lo)
            new.pre_upper[k][i] = min(new.pre_upper[k][i], hi)
    return new
