"""Verification queries: input box plus undesirable output property.

A query is SAT when some input in the box makes every output constraint
hold; SAT therefore means the undesirable behavior exists and the witness
is a counterexample to safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Network, evaluate

TOL_BOX = 1e-6
TOL_OUT = 1e-6


class PropertyFormatError(ValueError):
    pass


class TieError(ValueError):
    """Two output labels tie under the comparator at the reference point."""


@dataclass(frozen=True)
class OutputConstraint:
    """Linear inequality coeffs . y <= bound over the network outputs."""

    coeffs: np.ndarray
    bound: float

    def satisfied(self, y: np.ndarray) -> bool:
        return float(self.coeffs @ y) <= self.bound + TOL_OUT

    def __str__(self) -> str:
        lhs = " ".join(f"{c:g}" for c in self.coeffs)
        return f"out {lhs} <= {self.bound:g}"


@dataclass(frozen=True)
class Query:
    input_lower: np.ndarray
    input_upper: np.ndarray
    constraints: tuple[OutputConstraint, ...]
    label: str = "query"

    def __post_init__(self):
        if np.any(self.input_lower > self.input_upper):
            raise PropertyFormatError(f"{self.label}: empty input box")
        if not self.constraints:
            raise PropertyFormatError(f"{self.label}: no output constraints")

    @property
    def input_dim(self) -> int:
        return self.input_lower.shape[0]


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "SAT" | "UNSAT" | "TIMEOUT"
    witness: Optional[np.ndarray] = None
    iterations: int = 0
    splits: int = 0
    wall_time_ms: float = 0.0

    def __post_init__(self):
        if self.outcome == "SAT" and self.witness is None:
            raise ValueError("SAT verdict requires a witness")
        if self.iterations < self.splits:
            raise ValueError("iterations cannot be below splits")


def parse_property(text: str, net: Network, label: str = "query") -> Query:
    """Parse the line-based property format against a network.

    ``in i >= v`` / ``in i <= v`` shrink the input box (defaulting to the
    network's input bounds); ``out c0 c1 ... ck <= d`` adds the constraint
    c . y <= d. Lines starting with '#' are comments.
    """
    lower = net.input_lower.copy()
    upper = net.input_upper.copy()
    cons: list[OutputConstraint] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "in":
            if len(toks) != 4 or toks[2] not in (">=", "<="):
                raise PropertyFormatError(f"line {no}: malformed 'in' line")
            idx = int(toks[1])
            if not 0 <= idx < net.input_dim:
                raise PropertyFormatError(f"line {no}: input index {idx} out of range")
            val = float(toks[3])
            if toks[2] == ">=":
                lower[idx] = max(lower[idx], val)
            else:
                upper[idx] = min(upper[idx], val)
        elif toks[0] == "out":
            if "<=" not in toks:
                raise PropertyFormatError(f"line {no}: 'out' line needs '<='")
            sep = toks.index("<=")
            coeffs = [float(t) for t in toks[1:sep]]
            rhs = toks[sep + 1:]
            if len(coeffs) == 0 or len(rhs) != 1:
                raise PropertyFormatError(f"line {no}: malformed 'out' line")
            if len(coeffs) > net.output_dim:
                raise PropertyFormatError(
                    f"line {no}: {len(coeffs)} coefficients for "
                    f"{net.output_dim} outputs")
            full = np.zeros(net.output_dim)
            full[:len(coeffs)] = coeffs
            cons.append(OutputConstraint(coeffs=full, bound=float(rhs[0])))
        else:
            raise PropertyFormatError(f"line {no}: unknown keyword {toks[0]!r}")
    if np.any(lower > upper):
        raise PropertyFormatError("property produces an empty input box")
    if not cons:
        raise PropertyFormatError("property has no output constraints")
    return Query(input_lower=lower, input_upper=upper,
                 constraints=tuple(cons), label=label)


def example_property(net: Network) -> Query:
    """The demonstration property y <= -0.5 on the first output."""
    coeffs = np.zeros(net.output_dim)
    coeffs[0] = 1.0
    return Query(input_lower=net.input_lower.copy(),
                 input_upper=net.input_upper.copy(),
                 constraints=(OutputConstraint(coeffs=coeffs, bound=-0.5),),
                 label="toy-example")


def make_robustness_queries(net: Network, x0: Sequence[float], delta: float,
                            comparator: str = "argmax",
                            label: str = "robust") -> list[Query]:
    """One adversarial query per non-predicted label.

    The predicted label t is the comparator (argmax or argmin) of the
    network at x0. Query j asks whether label j can beat t anywhere in the
    l-inf ball of radius delta around x0 (intersected with the network's
    input bounds); SAT on any member means x0 is not robust at that radius.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if comparator not in ("argmax", "argmin"):
        raise ValueError(f"unknown comparator {comparator!r}")
    if net.output_dim < 2:
        raise ValueError(f"robustness queries need at least two outputs; "
                         f"the network has {net.output_dim}")
    x0 = np.asarray(x0, dtype=float)
    y0 = evaluate(net, x0)
    order = np.argsort(y0)
    if comparator == "argmax":
        target, runner = int(order[-1]), int(order[-2])
    else:
        target, runner = int(order[0]), int(order[1])
    if y0[target] == y0[runner]:
        raise TieError(
            f"outputs {target} and {runner} tie at the reference point")
    lower = np.maximum(net.input_lower, x0 - delta)
    upper = np.minimum(net.input_upper, x0 + delta)
    queries = []
    for j in range(net.output_dim):
        if j == target:
            continue
        coeffs = np.zeros(net.output_dim)
        if comparator == "argmax":
            # adversarial: y_j >= y_t, i.e. y_t - y_j <= 0
            coeffs[target] = 1.0
            coeffs[j] = -1.0
        else:
            # advisory is the minimum: adversarial when y_j <= y_t
            coeffs[j] = 1.0
            coeffs[target] = -1.0
        queries.append(Query(
            input_lower=lower.copy(), input_upper=upper.copy(),
            constraints=(OutputConstraint(coeffs=coeffs, bound=0.0),),
            label=f"{label}:d{delta:g}:t{target}v{j}"))
    return queries


def check_witness(net: Network, q: Query,
                  x: Sequence[float] | np.ndarray) -> bool:
    """True iff x lies in the query box and satisfies every constraint."""
    x = np.asarray(x, dtype=float)
    if x.shape != (q.input_dim,):
        return False
    if np.any(x < q.input_lower - TOL_BOX) or np.any(x > q.input_upper + TOL_BOX):
        return False
    y = evaluate(net, x)
    return all(c.satisfied(y) for c in q.constraints)


def load_robustness_manifest(text: str) -> list[tuple[np.ndarray, float]]:
    """Rows of ``x0... ; delta`` (one instance per line)."""
    instances = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ";" not in line:
            raise PropertyFormatError(f"line {no}: missing ';' separator")
        left, right = line.split(";", 1)
        x0 = np.array([float(t) for t in left.split()])
        instances.append((x0, float(right.strip())))
    return instances
