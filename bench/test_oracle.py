"""The benchmark's MILP oracle against relubab's brute-force enumerator.

    python3 -m pytest bench/test_oracle.py

(run from the repository root; ``src`` and ``bench`` are put on the path
here, as bench/run.py does).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

pytest.importorskip("scipy.optimize")

import oracle  # noqa: E402
from relubab.harness import brute_force_verify, gen_random_suite  # noqa: E402
from relubab.query import TOL_BOX, TOL_OUT  # noqa: E402

SUITES = [gen_random_suite(seed=seed, count=12, n_relus=(3, 9))
          for seed in (31, 32)]
INSTANCES = [inst for suite in SUITES for inst in suite]


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: i.query_id)
def test_agrees_with_brute_force(inst):
    expected = brute_force_verify(inst.net, inst.query)
    result = oracle.solve_instance(inst)
    assert result.verdict == expected.outcome
    witness = expected.witness if expected.outcome == "SAT" else None
    assert oracle.check_verdict(inst, result, expected.outcome, witness,
                                TOL_BOX, TOL_OUT) == []


def test_both_verdicts_covered():
    outcomes = {oracle.solve_instance(inst).verdict for inst in INSTANCES}
    assert outcomes == {"SAT", "UNSAT"}


def test_forward_matches_relubab():
    from relubab.model import evaluate
    inst = INSTANCES[0]
    x = np.linspace(-1.0, 1.0, inst.net.input_dim)
    ws = [layer.weight for layer in inst.net.layers]
    bs = [layer.bias for layer in inst.net.layers]
    np.testing.assert_allclose(oracle.forward(ws, bs, x),
                               evaluate(inst.net, x), rtol=0, atol=1e-12)


def test_rejects_flipped_verdict():
    for inst in INSTANCES:
        result = oracle.solve_instance(inst)
        if result.verdict == "UNSAT":
            flipped = oracle.check_verdict(inst, result, "SAT",
                                           inst.query.input_lower,
                                           TOL_BOX, TOL_OUT)
        else:
            flipped = oracle.check_verdict(inst, result, "UNSAT", None,
                                           TOL_BOX, TOL_OUT)
        assert any("oracle" in err for err in flipped), inst.query_id


def _sat_instance():
    for inst in INSTANCES:
        result = oracle.solve_instance(inst)
        if result.verdict == "SAT":
            return inst, result
    raise AssertionError("no SAT instance in the suites")


def test_rejects_witness_outside_box():
    inst, result = _sat_instance()
    moved = result.argmin.copy()
    moved[0] = inst.query.input_upper[0] + 10 * TOL_BOX
    errors = oracle.check_verdict(inst, result, "SAT", moved, TOL_BOX,
                                  TOL_OUT)
    assert any("outside the input box" in err for err in errors)


def test_rejects_witness_violating_the_constraint():
    inst, result = _sat_instance()
    con = inst.query.constraints[0]
    ws = [layer.weight for layer in inst.net.layers]
    bs = [layer.bias for layer in inst.net.layers]
    rng = np.random.default_rng(0)
    points = rng.uniform(inst.query.input_lower, inst.query.input_upper,
                         size=(400, inst.net.input_dim))
    worst = max(points, key=lambda x: float(con.coeffs @ oracle.forward(
        ws, bs, x)))
    assert float(con.coeffs @ oracle.forward(ws, bs, worst)) > con.bound
    errors = oracle.check_verdict(inst, result, "SAT", worst, TOL_BOX,
                                  TOL_OUT)
    assert any("witness gives" in err for err in errors)
    assert oracle.check_verdict(inst, result, "SAT", result.argmin, TOL_BOX,
                                TOL_OUT) == []
