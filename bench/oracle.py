"""Independent verdict oracle for the benchmark.

It shares no code with ``relubab`` beyond reading weights out of a
``Network`` object: its own forward pass, its own interval bounds, and the
exact minimum of ``c . y`` over the input box from SciPy's HiGHS MILP
(``scipy.optimize.milp``) under a big-M ReLU encoding. A single-constraint
query ``c . y <= bound`` is SAT iff that minimum is at most ``bound``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Big-M bounds are widened by this much so round-off in the interval pass
# cannot cut off a real activation.
_BOUND_PAD = 1e-9
# The MILP optimum is re-evaluated with the forward pass; the two must agree
# to this tolerance or the encoding is wrong.
_SELF_CHECK_TOL = 1e-6


def forward(weights, biases, x) -> np.ndarray:
    """ReLU after every layer except the last."""
    a = np.asarray(x, dtype=float)
    for k, (w, b) in enumerate(zip(weights, biases)):
        a = w @ a + b
        if k < len(weights) - 1:
            a = np.maximum(a, 0.0)
    return a


def interval_bounds(weights, biases, lower, upper):
    """Pre-activation (lo, hi) per hidden layer, by interval arithmetic."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    pre = []
    for w, b in zip(weights[:-1], biases[:-1]):
        wp, wm = np.maximum(w, 0.0), np.minimum(w, 0.0)
        p_lo = wp @ lo + wm @ hi + b - _BOUND_PAD
        p_hi = wp @ hi + wm @ lo + b + _BOUND_PAD
        pre.append((p_lo, p_hi))
        lo, hi = np.maximum(p_lo, 0.0), np.maximum(p_hi, 0.0)
    return pre


@dataclass(frozen=True)
class OracleResult:
    minimum: float      # value of c . y at the MILP's best point
    dual_bound: float   # proven lower bound on the true minimum
    argmin: np.ndarray
    bound: float

    @property
    def verdict(self) -> str:
        """SAT / UNSAT, or UNDECIDED when the MILP gap straddles the bound."""
        if self.minimum <= self.bound:
            return "SAT"
        if self.dual_bound > self.bound:
            return "UNSAT"
        return "UNDECIDED"

    @property
    def gap(self) -> float:
        """Distance between the minimum and the query's threshold."""
        return abs(self.minimum - self.bound)


def milp_minimum(weights, biases, lower, upper, coeffs, bound) -> OracleResult:
    """Exact min of ``coeffs . y`` over the box ``[lower, upper]``.

    Columns are the inputs, then per hidden layer its post-activations and
    one binary per neuron. For an unstable neuron with pre-activation
    interval [l, u] (l < 0 < u) and pre = w . h + b:
        a >= pre,  a <= pre - l (1 - d),  a <= u d,  0 <= a <= u.
    A stably active neuron is the equality a = pre; a stably inactive one
    is pinned to 0.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    weights = [np.asarray(w, dtype=float) for w in weights]
    biases = [np.asarray(b, dtype=float) for b in biases]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    pre = interval_bounds(weights, biases, lower, upper)
    n_in = lower.shape[0]
    widths = [w.shape[0] for w in weights[:-1]]
    n_cols = n_in + 2 * sum(widths)

    col_lo = np.zeros(n_cols)
    col_hi = np.zeros(n_cols)
    integral = np.zeros(n_cols)
    col_lo[:n_in], col_hi[:n_in] = lower, upper
    rows, row_lo, row_hi = [], [], []

    prev = slice(0, n_in)
    pos = n_in
    for (w, b), (l, u) in zip(zip(weights[:-1], biases[:-1]), pre):
        width = w.shape[0]
        post = slice(pos, pos + width)
        bins = slice(pos + width, pos + 2 * width)
        pos += 2 * width
        integral[bins] = 1.0
        col_hi[bins] = 1.0
        for i in range(width):
            a, d = post.start + i, bins.start + i
            if u[i] <= 0.0:            # stably inactive: a = 0, d = 0
                col_hi[d] = 0.0
                continue
            col_hi[a] = u[i]
            if l[i] >= 0.0:            # stably active: a = w . h + b
                col_lo[a] = l[i]
                col_lo[d] = 1.0
                row = np.zeros(n_cols)
                row[a] = 1.0
                row[prev] = -w[i]
                rows.append(row)
                row_lo.append(b[i])
                row_hi.append(b[i])
                continue
            row = np.zeros(n_cols)     # w . h - a <= -b
            row[prev] = w[i]
            row[a] = -1.0
            rows.append(row)
            row_lo.append(-np.inf)
            row_hi.append(-b[i])
            row = np.zeros(n_cols)     # a - w . h - l d <= b - l
            row[a] = 1.0
            row[prev] = -w[i]
            row[d] = -l[i]
            rows.append(row)
            row_lo.append(-np.inf)
            row_hi.append(b[i] - l[i])
            row = np.zeros(n_cols)     # a - u d <= 0
            row[a] = 1.0
            row[d] = -u[i]
            rows.append(row)
            row_lo.append(-np.inf)
            row_hi.append(0.0)
        prev = post

    coeffs = np.asarray(coeffs, dtype=float)
    objective = np.zeros(n_cols)
    objective[prev] = coeffs @ weights[-1]
    offset = float(coeffs @ biases[-1])
    constraints = [LinearConstraint(np.array(rows), row_lo, row_hi)] \
        if rows else []
    res = milp(objective, integrality=integral,
               bounds=Bounds(col_lo, col_hi), constraints=constraints,
               options={"mip_rel_gap": 1e-9, "time_limit": 60.0})
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"MILP oracle failed: {res.message}")
    x = res.x[:n_in]
    minimum = float(res.fun) + offset
    direct = float(coeffs @ forward(weights, biases, x))
    if abs(direct - minimum) > _SELF_CHECK_TOL * max(1.0, abs(minimum)):
        raise RuntimeError(f"MILP optimum {minimum!r} disagrees with the "
                           f"forward pass at its argmin ({direct!r})")
    dual = getattr(res, "mip_dual_bound", None)
    dual_bound = minimum if dual is None else float(dual) + offset
    return OracleResult(minimum=minimum, dual_bound=dual_bound,
                        argmin=x, bound=float(bound))


def solve_instance(inst) -> OracleResult:
    """Oracle for a generated single-constraint threshold instance."""
    net, query = inst.net, inst.query
    if len(query.constraints) != 1:
        raise ValueError("the oracle handles single-constraint queries")
    con = query.constraints[0]
    return milp_minimum([layer.weight for layer in net.layers],
                        [layer.bias for layer in net.layers],
                        query.input_lower, query.input_upper,
                        con.coeffs, con.bound)


def check_verdict(inst, oracle: OracleResult, outcome: str, witness,
                  tol_box: float, tol_out: float) -> list[str]:
    """Disagreements between one verdict and the oracle; empty when none.

    A SAT witness must lie in the box and satisfy the constraint under this
    module's forward pass, within ``tol_box`` / ``tol_out``.
    """
    label = inst.query_id
    expected = oracle.verdict
    if expected == "UNDECIDED":
        return [f"{label}: MILP minimum {oracle.minimum:.9g} too close to "
                f"the bound {oracle.bound:.9g} to decide"]
    errors = []
    if outcome != expected:
        errors.append(f"{label}: verdict {outcome}, oracle {expected} "
                      f"(minimum {oracle.minimum:.9g}, bound "
                      f"{oracle.bound:.9g})")
    if outcome == "SAT":
        q = inst.query
        x = np.asarray(witness, dtype=float)
        if x.shape != q.input_lower.shape:
            errors.append(f"{label}: witness has shape {x.shape}")
        elif np.any(x < q.input_lower - tol_box) or \
                np.any(x > q.input_upper + tol_box):
            errors.append(f"{label}: witness outside the input box")
        else:
            con = q.constraints[0]
            y = forward([layer.weight for layer in inst.net.layers],
                        [layer.bias for layer in inst.net.layers], x)
            if float(con.coeffs @ y) > con.bound + tol_out:
                errors.append(f"{label}: witness gives {con.coeffs @ y:.9g}"
                              f" > bound {con.bound:.9g}")
    return errors
