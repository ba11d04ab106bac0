import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_random_net, phase_vector
from relubab.model import NeuronId, evaluate_batch
from relubab.numeric import (Basis, BoundedSimplex, Conflict, LPError,
                             LPIterationError, LPProblem, NodeLP, Phase,
                             build_relaxation, propagate_intervals, solve_lp,
                             solve_relaxation, tighten_bounds_lp,
                             triangle_relaxation)
from relubab.query import OutputConstraint

N1 = NeuronId(0, 0)
N2 = NeuronId(0, 1)


class TestPropagateIntervals:
    def test_toy_full_box(self, toy):
        # hand interval arithmetic: 2*x1 in [-2,2]; x1-x2 in [-2,1];
        # y = -relu(n1) + relu(n2) in [-2,1]
        b = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                phase_vector(toy))
        assert b.pre_lower.tolist() == [-2.0, -2.0]
        assert b.pre_upper.tolist() == [2.0, 1.0]
        assert (b.output_lower[0], b.output_upper[0]) == (-2.0, 1.0)

    def test_toy_both_inactive(self, toy):
        b = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                phase_vector(toy, {N1: Phase.INACTIVE,
                                                   N2: Phase.INACTIVE}))
        assert b.post_lower.tolist() == [0.0, 0.0]
        assert b.post_upper.tolist() == [0.0, 0.0]
        assert (b.output_lower[0], b.output_upper[0]) == (0.0, 0.0)

    def test_contradictory_phase_conflicts(self, toy):
        # shrink the box so n1's pre-activation is at least 0.5
        with pytest.raises(Conflict):
            propagate_intervals(toy, np.array([0.25, 0.0]),
                                np.array([1.0, 1.0]),
                                phase_vector(toy, {N1: Phase.INACTIVE}))

    def test_active_clips_pre_lower(self, toy):
        b = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                phase_vector(toy, {N1: Phase.ACTIVE}))
        assert (b.pre_lower[0], b.pre_upper[0]) == (0.0, 2.0)
        assert (b.post_lower[0], b.post_upper[0]) == (0.0, 2.0)

    def test_soundness_random(self):
        # sampled points consistent with the imposed phases stay inside
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1000):
            net = make_random_net(rng)
            phases = phase_vector(net)
            for j in range(net.num_relus):
                if rng.random() < 0.25:
                    phases[j] = rng.choice([Phase.ACTIVE, Phase.INACTIVE])
            try:
                bounds = propagate_intervals(net, net.input_lower,
                                             net.input_upper, phases)
            except Conflict:
                continue
            xs = rng.uniform(-1, 1, size=(100, net.input_dim))
            a = xs.T
            ok = np.ones(xs.shape[0], dtype=bool)
            for k, layer in enumerate(net.layers):
                pre = layer.weight @ a + layer.bias[:, None]
                if not layer.has_relu:
                    continue
                sl = net.relu_slices[k]
                active = phases[sl] == Phase.ACTIVE
                inactive = phases[sl] == Phase.INACTIVE
                ok &= (pre[active] >= 0).all(axis=0)
                ok &= (pre[inactive] <= 0).all(axis=0)
                inside = (pre[:, ok] >= bounds.pre_lower[sl][:, None] - 1e-9) \
                    & (pre[:, ok] <= bounds.pre_upper[sl][:, None] + 1e-9)
                assert inside.all()
                checked += int(ok.sum())
                a = np.maximum(pre, 0.0)
                a[inactive] = 0.0
        assert checked > 10_000


def _within(rows, pre, post, tol: float = 1e-12) -> bool:
    """Whether (pre, post) satisfies every row (c_pre, c_post, rhs)."""
    return all(np.all(cp * pre + ca * post <= rhs + tol)
               for cp, ca, rhs in rows)


class TestTriangleRelaxation:
    def test_symmetric_interval(self):
        # post >= pre, and post <= 0.5 * (pre + 1)
        assert triangle_relaxation(-1.0, 1.0) == ((1.0, -1.0, 0.0),
                                                  (-0.5, 1.0, 0.5))

    def test_point_inside(self):
        assert _within(triangle_relaxation(-1, 1), 0.0, 0.5)

    def test_point_violates_upper(self):
        assert not _within(triangle_relaxation(-1, 1), -1.0, 0.1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            triangle_relaxation(0.0, 1.0)
        with pytest.raises(ValueError):
            triangle_relaxation(-1.0, -0.5)

    def test_contains_relu_graph(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = -float(rng.uniform(0.1, 5))
            b = float(rng.uniform(0.1, 5))
            rows = triangle_relaxation(a, b)
            for pre in rng.uniform(a, b, size=100):
                assert _within(rows, float(pre), max(0.0, float(pre)),
                               tol=1e-9)

    def test_elementwise(self):
        a, b = np.array([-1.0, -3.0]), np.array([1.0, 0.5])
        rows = triangle_relaxation(a, b)
        for i in range(2):
            one = triangle_relaxation(a[i], b[i])
            assert [tuple(np.broadcast_to(v, 2)[i] for v in row)
                    for row in rows] == list(one)
        assert _within(rows, np.array([0.0, 0.0]), np.array([0.5, 0.4]))
        assert not _within(rows, np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            triangle_relaxation(a, np.array([1.0, -0.5]))


class TestSolveLP:
    def test_maximize_box(self):
        res = solve_lp(LPProblem(lower=np.array([0.0]), upper=np.array([1.0]),
                                 objective=np.array([1.0]), maximize=True))
        assert res.feasible
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_pair(self):
        res = solve_lp(LPProblem(
            lower=np.array([-10.0]), upper=np.array([10.0]),
            a_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([0.0, -1.0])))
        assert res.status == "infeasible"

    def test_equality_and_objective(self):
        # min x + y s.t. x + y = 1 on [0,1]^2
        res = solve_lp(LPProblem(
            lower=np.zeros(2), upper=np.ones(2),
            a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
            objective=np.array([1.0, 1.0])))
        assert res.feasible
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_toy_root_relaxation_min_y(self, toy, toy_query):
        # relaxed minimum of y over the root: post1 can reach 2 while post2
        # sits at 0, so min y = -2 (does not prune the root at -0.5)
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        problem, vmap = build_relaxation(toy, bounds, phases,
                                         toy_query.constraints)
        c = np.zeros(vmap.n_vars)
        c[vmap.y] = 1.0
        res = solve_lp(LPProblem(lower=problem.lower, upper=problem.upper,
                                 a_eq=problem.a_eq, b_eq=problem.b_eq,
                                 a_ub=problem.a_ub, b_ub=problem.b_ub,
                                 objective=c))
        assert res.feasible
        assert res.objective == pytest.approx(-2.0, abs=1e-7)
        assert res.objective <= -0.5

    def test_duality_spot_check(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            problem = LPProblem(
                lower=-rng.uniform(0.5, 2, n), upper=rng.uniform(0.5, 2, n),
                a_ub=rng.uniform(-1, 1, (m, n)), b_ub=rng.uniform(0.2, 2, m),
                objective=rng.uniform(-1, 1, n), maximize=True)
            res = solve_lp(problem)
            assert res.feasible  # origin is interior
            negated = LPProblem(lower=problem.lower, upper=problem.upper,
                                a_ub=problem.a_ub, b_ub=problem.b_ub,
                                objective=-problem.objective, maximize=False)
            res2 = solve_lp(negated)
            assert res2.objective == pytest.approx(-res.objective, abs=2e-7)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        problem = LPProblem(
            lower=-np.ones(4), upper=np.ones(4),
            a_ub=rng.uniform(-1, 1, (3, 4)), b_ub=rng.uniform(0.5, 1, 3),
            objective=rng.uniform(-1, 1, 4))
        res1 = solve_lp(problem)
        res2 = solve_lp(problem)
        np.testing.assert_array_equal(res1.x, res2.x)
        assert res1.objective == res2.objective

    def test_degenerate_ties_use_blands_rule(self):
        # many redundant rows force degenerate pivots; Bland must terminate
        res = solve_lp(LPProblem(
            lower=np.zeros(3), upper=np.full(3, 10.0),
            a_ub=np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                           [1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                           [1.0, 1.0, 1.0]]),
            b_ub=np.zeros(5),
            objective=np.array([-1.0, -1.0, -1.0])))
        assert res.feasible
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_infinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(LPProblem(lower=np.array([0.0]),
                               upper=np.array([np.inf])))

    def test_empty_box_infeasible(self):
        res = solve_lp(LPProblem(lower=np.array([1.0]), upper=np.array([0.0])))
        assert res.status == "infeasible"


def _tighten(net, bounds, phases, constraints=()):
    """tighten_bounds_lp's bounds in the query's tightening layout, from a
    crash start."""
    return tighten_bounds_lp(NodeLP(net, constraints).tightening, bounds,
                             phases)[0]


class TestTightenBounds:
    def test_n1_inactive_deduces_inputs(self, toy):
        # without the output rows the LP deduces x1 <= 0, and hence n2 pre
        # <= 0; the LP bounds no input, so the box comes back as it was
        phases = phase_vector(toy, {N1: Phase.INACTIVE})
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        tightened = _tighten(toy, bounds, phases)
        assert tightened.pre_upper[1] == pytest.approx(0.0, abs=1e-6)
        assert tightened.input_lower.tolist() == bounds.input_lower.tolist()
        assert tightened.input_upper.tolist() == bounds.input_upper.tolist()

    def test_n1_inactive_with_property_conflicts(self, toy, toy_query):
        # post1 pinned to 0 makes y >= 0, contradicting y <= -0.5
        phases = phase_vector(toy, {N1: Phase.INACTIVE})
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        with pytest.raises(Conflict):
            _tighten(toy, bounds, phases, toy_query.constraints)

    def test_n2_active_tightens_x1(self, toy):
        # n2 active: x1 >= x2 >= 0, which shows as n1 = 2 x1 >= 0; the LP
        # bounds no input, so the box comes back as it was
        phases = phase_vector(toy, {N2: Phase.ACTIVE})
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        tightened = _tighten(toy, bounds, phases)
        assert bounds.pre_lower[0] == -2.0
        assert tightened.pre_lower[0] == pytest.approx(0.0, abs=1e-6)
        assert tightened.input_lower.tolist() == bounds.input_lower.tolist()
        assert tightened.input_upper.tolist() == bounds.input_upper.tolist()

    def test_only_unfixed_pre_bounds_move(self):
        # the LP bounds only the unfixed pre-activations; with none unfixed
        # every bound comes back as it was
        rng = np.random.default_rng(14)
        for _ in range(25):
            net = make_random_net(rng)
            phases = np.where(rng.random(net.num_relus) < 0.5,
                              Phase.UNFIXED.value,
                              Phase.ACTIVE.value).astype(np.int8)
            for ph in (phases, np.full_like(phases, Phase.ACTIVE.value)):
                try:
                    bounds = propagate_intervals(
                        net, net.input_lower, net.input_upper, ph)
                    tightened = _tighten(net, bounds, ph)
                except Conflict:
                    continue
                fixed = ph != Phase.UNFIXED.value
                for name in ("input_lower", "input_upper", "post_lower",
                             "post_upper", "output_lower", "output_upper"):
                    assert getattr(tightened, name).tobytes() == \
                        getattr(bounds, name).tobytes()
                for name in ("pre_lower", "pre_upper"):
                    assert getattr(tightened, name)[fixed].tobytes() == \
                        getattr(bounds, name)[fixed].tobytes()

    def test_fixpoint_stable(self, toy):
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        once = _tighten(toy, bounds, phases)
        twice = _tighten(toy, once, phases)
        np.testing.assert_allclose(twice.pre_lower, once.pre_lower,
                                   atol=1e-7)
        np.testing.assert_allclose(twice.pre_upper, once.pre_upper,
                                   atol=1e-7)

    def test_never_widens(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            net = make_random_net(rng)
            phases = phase_vector(net)
            bounds = propagate_intervals(net, net.input_lower,
                                         net.input_upper, phases)
            tightened = _tighten(net, bounds, phases)
            assert (tightened.input_lower >= bounds.input_lower - 1e-12).all()
            assert (tightened.input_upper <= bounds.input_upper + 1e-12).all()
            assert (tightened.pre_lower >= bounds.pre_lower - 1e-12).all()
            assert (tightened.pre_upper <= bounds.pre_upper + 1e-12).all()

    def test_warm_start_matches_crash_start(self):
        # a child's tightening LP started from its parent's phase-1 basis
        # reaches the bounds of a crash start, or the same conflict
        rng = np.random.default_rng(15)
        compared = 0
        for _ in range(40):
            net = make_random_net(rng)
            lp = NodeLP(net).tightening
            phases = phase_vector(net)
            root, basis = tighten_bounds_lp(lp, propagate_intervals(
                net, net.input_lower, net.input_upper, phases), phases)
            child = phases.copy()
            child[rng.integers(net.num_relus)] = rng.choice(
                [Phase.ACTIVE.value, Phase.INACTIVE.value])
            try:
                bounds = propagate_intervals(net, net.input_lower,
                                             net.input_upper, child,
                                             clip=root)
            except Conflict:
                continue
            results = []
            for start in (basis, None):
                try:
                    results.append(tighten_bounds_lp(lp, bounds, child,
                                                     start)[0])
                except Conflict:
                    results.append(None)
            warm, cold = results
            assert (warm is None) == (cold is None)
            if warm is not None:
                np.testing.assert_allclose(warm.pre_lower, cold.pre_lower,
                                           rtol=0, atol=1e-8)
                np.testing.assert_allclose(warm.pre_upper, cold.pre_upper,
                                           rtol=0, atol=1e-8)
                compared += 1
        assert compared >= 20

    def test_column_order_changes_no_bit(self, monkeypatch):
        # every bound starts from the phase-1 basis, so solving the
        # objectives in another order gives the same bits
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(25):
            net = make_random_net(rng)
            phases = phase_vector(net)
            cases.append((net, phases, propagate_intervals(
                net, net.input_lower, net.input_upper, phases)))
        before = [_tighten(net, bounds, phases)
                  for net, phases, bounds in cases]
        column_bounds = BoundedSimplex.column_bounds

        def shuffled(sx, cols):
            order = rng.permutation(len(cols))
            lo, hi = np.empty(len(cols)), np.empty(len(cols))
            lo[order], hi[order] = column_bounds(sx, cols[order])
            return lo, hi

        monkeypatch.setattr(BoundedSimplex, "column_bounds", shuffled)
        for (net, phases, bounds), want in zip(cases, before):
            got = _tighten(net, bounds, phases)
            for name in ("pre_lower", "pre_upper"):
                assert getattr(got, name).tobytes() == \
                    getattr(want, name).tobytes()


class TestSolveRelaxation:
    def test_objective_is_worst_total_error(self, toy, toy_query):
        # apex of each triangle: n1 reaches 1 at (0,1); n2 reaches 2/3 at
        # (0,2/3); with y <= -0.5 the joint optimum is 1.5 at (post1, post2)
        # = (1, 2/3 limited by y row...) -- frozen from the hand-checkable
        # unconstrained value: without the output row the max is 1 + 2/3
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        res = solve_relaxation(NodeLP(toy), bounds, phases)
        assert res.feasible
        assert res.objective == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-7)

    def test_infeasible_relaxation(self, toy):
        phases = phase_vector(toy, {N1: Phase.INACTIVE, N2: Phase.INACTIVE})
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        lp = NodeLP(toy, (OutputConstraint(coeffs=np.array([1.0]),
                                           bound=-0.5),))
        res = solve_relaxation(lp, bounds, phases)
        assert res.status == "infeasible"


class TestSimplexKernel:
    # max x0 + x1 + x2 on [0, 10]^3 with x_i <= 1 as rows: the origin is
    # feasible (phase 1 pivots nothing) and phase 2 needs three pivots
    STAIRS = LPProblem(lower=np.zeros(3), upper=np.full(3, 10.0),
                       a_ub=np.eye(3), b_ub=np.ones(3))

    def test_pivot_cap_raises(self):
        sx = BoundedSimplex(self.STAIRS)
        assert sx.find_feasible()
        sx.cap = 2
        with pytest.raises(LPIterationError):
            sx.optimize(np.ones(3), maximize=True)
        sx = BoundedSimplex(self.STAIRS)
        assert sx.find_feasible()
        assert sx.optimize(np.ones(3), maximize=True) == 3.0

    def test_optimize_needs_feasible_basis(self):
        with pytest.raises(LPError):
            BoundedSimplex(self.STAIRS).optimize(np.ones(3))
        infeasible = BoundedSimplex(LPProblem(
            lower=np.zeros(1), upper=np.ones(1),
            a_ub=np.array([[-1.0]]), b_ub=np.array([-2.0])))
        assert not infeasible.find_feasible()
        with pytest.raises(LPError):
            infeasible.optimize(np.ones(1))

    def test_dropped_columns_keep_cap(self):
        # x0 pinned, one equality row (its logical pinned at 0), one <= row
        # (its slack in [0, inf))
        problem = LPProblem(lower=np.array([0.5, 0.0, 0.0]),
                            upper=np.array([0.5, 2.0, 2.0]),
                            a_eq=np.array([[1.0, 1.0, -1.0]]),
                            b_eq=np.array([1.0]),
                            a_ub=np.array([[0.0, 1.0, 1.0]]),
                            b_ub=np.array([3.0]))
        sx = BoundedSimplex(problem)
        assert sx.ncols == 3 + 2
        assert sx.cap == 50 * (sx.ncols + sx.m)
        # pinned x0 and row 0's logical never enter
        assert sx.cols.tolist() == [1, 2, 4]
        assert sx.T.shape == (2, 3)
        assert sx.find_feasible()
        assert sx.cols.tolist() == [1, 2, 4]
        assert sx.cap == 50 * (sx.ncols + sx.m)
        assert sx.optimize(np.array([0.0, 1.0, 0.0])) == pytest.approx(0.5)

    def test_pinned_column_stays_nonbasic(self):
        # x0 pinned at 0.7 is the cheapest way to satisfy both rows, but it
        # cannot move: x1 makes up the rest
        problem = LPProblem(lower=np.array([0.7, 0.0]),
                            upper=np.array([0.7, 5.0]),
                            a_eq=np.array([[1.0, 1.0]]),
                            b_eq=np.array([1.2]),
                            a_ub=np.array([[-1.0, -2.0]]),
                            b_ub=np.array([-1.0]))
        sx = BoundedSimplex(problem)
        assert sx.find_feasible()
        for maximize in (False, True):
            sx.optimize(np.array([-1.0, 0.0]), maximize=maximize)
            assert 0 not in sx.basis
            x = sx.solution()
            assert x[0] == 0.7
            assert x[1] == pytest.approx(0.5, abs=1e-12)


class TestStartBasis:
    # x0 + x1 = 1 and x1 + x2 = 1 on [0, 2]^3; x1 has an entry in row 0,
    # so the crash basis is x0, x2
    CHAIN = LPProblem(lower=np.zeros(3), upper=np.full(3, 2.0),
                      a_eq=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
                      b_eq=np.ones(2), objective=np.array([1.0, 0.0, 2.0]))

    def test_crash_basis_is_triangular(self):
        assert BoundedSimplex(self.CHAIN).basis.tolist() == [0, 2]

    def test_singular_start_falls_back_to_crash(self):
        sx = BoundedSimplex(self.CHAIN, Basis(np.array([1, 1]),
                                              np.zeros(0, dtype=int)))
        assert sx.basis.tolist() == [0, 2]
        assert sx.find_feasible()
        assert sx.optimize(self.CHAIN.objective) == pytest.approx(0.0)

    def test_ill_conditioned_start_falls_back_to_crash(self):
        # x0 and x2 as a basis: B^-1, the slacks' tableau columns, has
        # entries near 1e12
        problem = LPProblem(lower=np.zeros(3), upper=np.full(3, 2.0),
                            a_ub=np.array([[1.0, 1.0, 0.0],
                                           [1.0, 1.0, 1e-12]]),
                            b_ub=np.ones(2))
        sx = BoundedSimplex(problem, Basis(np.array([0, 2]),
                                           np.zeros(0, dtype=int)))
        assert sx.basis.tolist() == [3, 4]  # the slacks
        assert np.abs(sx.T).max() <= BoundedSimplex._MAX_ENTRY

    def test_warm_start_takes_the_given_basis(self):
        # x2 basic in row 1 and x1 at its upper bound: x0 = -1, x2 = -1,
        # both below their boxes, so phase 1 pivots from there
        start = Basis(np.array([0, 2]), np.array([1]))
        sx = BoundedSimplex(self.CHAIN, start)
        assert sx.basis.tolist() == [0, 2]
        assert sx.beta.tolist() == [-1.0, -1.0]
        assert sx.find_feasible()
        assert sx.optimize(self.CHAIN.objective) == pytest.approx(0.0)
        assert start.basic.tolist() == [0, 2]  # the start is not changed

    def test_infeasible_from_a_warm_basis(self):
        res = solve_lp(self.CHAIN)
        assert res.feasible
        # x0 + x1 = 1 and x1 + x2 = 5 cannot both hold on [0, 2]^3
        moved = copy.copy(self.CHAIN)
        moved.b_eq = np.array([1.0, 5.0])
        assert not solve_lp(moved, res.basis).feasible
        assert not solve_lp(moved).feasible

    def test_pinned_logical_stays_basic(self):
        # the second row doubles the first: no column is a crash choice for
        # it, so its logical (column 3, pinned at 0) starts and stays basic
        problem = LPProblem(lower=np.zeros(2), upper=np.full(2, 2.0),
                            a_eq=np.array([[1.0, 1.0], [2.0, 2.0]]),
                            b_eq=np.array([1.0, 2.0]))
        sx = BoundedSimplex(problem)
        assert sx.basis.tolist() == [0, 3]
        assert sx.find_feasible()
        assert sx.optimize(np.array([1.0, -1.0])) == pytest.approx(-1.0)
        assert 3 in sx.basis.tolist()
        assert sx.solution().tolist() == pytest.approx([0.0, 1.0])

    def test_phase1_cycle_ends(self):
        # a tightening LP (build_relaxation's layout, crash start) of
        # gen_random_suite(seed=11, count=12, n_inputs=(3, 5),
        # n_relus=(10, 14))[4] at the node root -> 0:3 inactive -> 0:6
        # active, as reached when tightening also bounded the inputs. HiGHS
        # finds it infeasible. Phase 1 came back to the basis of two pivots
        # before, again and again, as basics violated by about 1e-10 (above
        # _BOX_EPS, below TOL_LP) entered and left the priced set; it now
        # prices only violations beyond TOL_LP once a basis repeats
        data = json.loads((Path(__file__).parent / "data"
                           / "phase1_cycle_lp.json").read_text())

        def dense(entries, rows):
            a = np.zeros((rows, data["n"]))
            for i, j, v in entries:
                a[i, j] = v
            return a

        problem = LPProblem(lower=np.array(data["lower"]),
                            upper=np.array(data["upper"]),
                            a_eq=dense(data["a_eq"], data["m_eq"]),
                            b_eq=np.array(data["b_eq"]),
                            a_ub=dense(data["a_ub"], data["m_ub"]),
                            b_ub=np.array(data["b_ub"]))
        sx = BoundedSimplex(problem)
        assert not sx.find_feasible()

    def test_phase1_pivot_cap_raises(self):
        # x_i >= 1 as rows: each slack starts at -1 and takes one pivot
        problem = LPProblem(lower=np.zeros(3), upper=np.full(3, 10.0),
                            a_ub=-np.eye(3), b_ub=-np.ones(3))
        sx = BoundedSimplex(problem)
        sx.cap = 2
        with pytest.raises(LPIterationError):
            sx.find_feasible()
        sx = BoundedSimplex(problem)
        assert sx.find_feasible()
        assert sx.solution().tolist() == [1.0, 1.0, 1.0]


class TestColumnBounds:
    def test_pivot_cap_raises(self):
        # max x0 pivots once, then one more step finds nothing eligible
        sx = BoundedSimplex(TestSimplexKernel.STAIRS)
        assert sx.find_feasible()
        sx.cap = 1
        with pytest.raises(LPIterationError):
            sx.column_bounds([0])
        sx.cap = 2
        lo, hi = sx.column_bounds([0])
        assert (lo.tolist(), hi.tolist()) == ([0.0], [1.0])

    def test_pinned_column_gives_its_value(self):
        # x0 is pinned at 0.7, so x0 + x1 = 1.2 pins x1 at 0.5
        problem = LPProblem(lower=np.array([0.7, 0.0]),
                            upper=np.array([0.7, 5.0]),
                            a_eq=np.array([[1.0, 1.0]]),
                            b_eq=np.array([1.2]))
        sx = BoundedSimplex(problem)
        assert sx.find_feasible()
        lo, hi = sx.column_bounds([0, 1])
        assert (lo[0], hi[0]) == (0.7, 0.7)
        assert lo[1] == pytest.approx(0.5, abs=1e-12)
        assert hi[1] == pytest.approx(0.5, abs=1e-12)

    def test_no_movable_column(self):
        sx = BoundedSimplex(LPProblem(lower=np.array([1.0, 2.0]),
                                      upper=np.array([1.0, 2.0]),
                                      a_eq=np.array([[1.0, 1.0]]),
                                      b_eq=np.array([3.0])))
        assert sx.find_feasible()
        assert sx.cols.size == 0
        lo, hi = sx.column_bounds([1, 0])
        assert lo.tolist() == hi.tolist() == [2.0, 1.0]

    def test_objective_column_basic_at_start(self):
        # phase 1 makes x0 basic in x0 + x1 = 1; x1 in [0, 2] leaves
        # x0 in [-1, 1], cut to [0, 1] by its box
        sx = BoundedSimplex(LPProblem(lower=np.zeros(2),
                                      upper=np.full(2, 2.0),
                                      a_eq=np.array([[1.0, 1.0]]),
                                      b_eq=np.array([1.0])))
        assert sx.find_feasible()
        assert sx.basis.tolist() == [0]
        lo, hi = sx.column_bounds([0, 1])
        assert lo.tolist() == [0.0, 0.0]
        assert hi.tolist() == [1.0, 1.0]
        assert sx.basis.tolist() == [0]  # the phase-1 basis is kept

    def test_no_columns(self):
        sx = BoundedSimplex(TestSimplexKernel.STAIRS)
        assert sx.find_feasible()
        lo, hi = sx.column_bounds([])
        assert lo.shape == hi.shape == (0,)

    def test_needs_feasible_basis(self):
        with pytest.raises(LPError):
            BoundedSimplex(TestSimplexKernel.STAIRS).column_bounds([0])
        infeasible = BoundedSimplex(LPProblem(
            lower=np.zeros(1), upper=np.ones(1),
            a_ub=np.array([[-1.0]]), b_ub=np.array([-2.0])))
        assert not infeasible.find_feasible()
        with pytest.raises(LPError):
            infeasible.column_bounds([0])


# ---------------------------------------------------------------------------
# differential tests against SciPy's HiGHS

def _highs(problem: LPProblem, objective: np.ndarray):
    """(feasible, minimum of ``objective``) as HiGHS finds them."""
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.linprog(objective, A_ub=problem.a_ub, b_ub=problem.b_ub,
                           A_eq=problem.a_eq, b_eq=problem.b_eq,
                           bounds=list(zip(problem.lower, problem.upper)),
                           method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0, res.fun


def _rows(draw, n: int, count: int, small):
    coeffs = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                           min_size=count, max_size=count))
    rhs = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
    return coeffs, rhs


@st.composite
def small_lps(draw):
    """Small integer LPs: degenerate vertices, ties and infeasible systems
    are common at these magnitudes. Some columns are pinned (lo == up) and
    some rows repeat (redundant equalities, duplicate <= rows)."""
    n = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    lower = np.array(draw(st.lists(st.integers(-3, 1), min_size=n,
                                   max_size=n)), dtype=float)
    width = np.array(draw(st.lists(st.integers(0, 4), min_size=n,
                                   max_size=n)), dtype=float)
    upper = lower + width  # width 0 pins the column
    eq, eq_rhs = _rows(draw, n, draw(st.integers(0, 3)), small)
    ub, ub_rhs = _rows(draw, n, draw(st.integers(0, 4)), small)
    if eq and draw(st.booleans()):
        eq.append([2 * v for v in eq[0]])
        eq_rhs.append(2 * eq_rhs[0])
    if ub and draw(st.booleans()):
        ub.append(list(ub[-1]))
        ub_rhs.append(ub_rhs[-1])
    objective = np.array(draw(st.lists(small, min_size=n, max_size=n)),
                         dtype=float)
    return LPProblem(
        lower=lower, upper=upper,
        a_eq=np.array(eq, dtype=float) if eq else None,
        b_eq=np.array(eq_rhs, dtype=float) if eq else None,
        a_ub=np.array(ub, dtype=float) if ub else None,
        b_ub=np.array(ub_rhs, dtype=float) if ub else None,
        objective=objective)


@st.composite
def relaxation_nodes(draw):
    """Random networks under random phases, their interval bounds, and a
    random output row that sometimes empties the relaxation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = make_random_net(rng)
    phases = np.array([draw(st.sampled_from(list(Phase)))
                       for _ in range(net.num_relus)], dtype=np.int8)
    try:
        bounds = propagate_intervals(net, net.input_lower, net.input_upper,
                                     phases)
    except Conflict:
        phases = phase_vector(net)
        bounds = propagate_intervals(net, net.input_lower, net.input_upper,
                                     phases)
    threshold = draw(st.floats(-2.0, 2.0))
    return net, phases, bounds, OutputConstraint(coeffs=np.array([1.0]),
                                                 bound=threshold)


@st.composite
def relaxation_lps(draw):
    """build_relaxation LPs of relaxation_nodes."""
    net, phases, bounds, con = draw(relaxation_nodes())
    problem, vmap = build_relaxation(net, bounds, phases, (con,))
    return net, problem, vmap


@st.composite
def perturbed_lps(draw):
    """A solved small LP and a perturbed copy: boxes shrunk (some to a
    point), coefficients ("slopes") and right-hand sides moved."""
    problem = draw(small_lps())
    width = problem.upper - problem.lower
    n = width.size
    cut = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                 max_size=n)))
    pin = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lower = problem.lower + np.floor(cut * width) / 2
    upper = np.where(pin, lower, np.maximum(lower, problem.upper
                                             - np.floor(cut * width) / 2))
    moved = copy.copy(problem)
    moved.lower, moved.upper = lower, upper
    for a, b in (("a_eq", "b_eq"), ("a_ub", "b_ub")):
        mat = getattr(problem, a)
        if mat is None:
            continue
        step = np.array(draw(st.lists(st.integers(-1, 1), min_size=mat.size,
                                      max_size=mat.size))).reshape(mat.shape)
        shift = np.array(draw(st.lists(st.integers(-1, 1),
                                       min_size=mat.shape[0],
                                       max_size=mat.shape[0])))
        setattr(moved, a, mat + 0.5 * step)
        setattr(moved, b, getattr(problem, b) + shift)
    return problem, moved


class TestSimplexAgainstHighs:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_lps())
    def test_small_lps(self, problem):
        feasible, best = _highs(problem, problem.objective)
        res = solve_lp(problem)
        assert res.feasible == feasible
        if feasible:
            assert res.objective == pytest.approx(best, abs=1e-6)
            x = res.x
            assert (x >= problem.lower - 1e-9).all()
            assert (x <= problem.upper + 1e-9).all()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(relaxation_lps())
    def test_min_max_sequence_on_one_basis(self, case):
        # optimize restarts phase 2 from the basis the last call left: min
        # then max of every input and every pre-activation in turn
        net, problem, vmap = case
        feasible, _ = _highs(problem, np.zeros(vmap.n_vars))
        sx = BoundedSimplex(problem)
        assert sx.find_feasible() == feasible
        if not feasible:
            return
        cols = [*range(net.input_dim), *vmap.pre]
        for col in cols:
            c = np.zeros(vmap.n_vars)
            c[col] = 1.0
            _, lo = _highs(problem, c)
            _, neg_hi = _highs(problem, -c)
            assert sx.optimize(c) == pytest.approx(lo, abs=1e-6)
            assert sx.optimize(c, maximize=True) == pytest.approx(
                -neg_hi, abs=1e-6)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(relaxation_lps())
    def test_column_bounds(self, case):
        # every input and pre-activation: HiGHS's min and max, and the
        # values optimize() reaches from its own copy of the phase-1 basis
        net, problem, vmap = case
        sx = BoundedSimplex(problem)
        if not sx.find_feasible():
            return
        cols = np.array([*range(net.input_dim), *vmap.pre])
        lo, hi = sx.column_bounds(cols)
        for col, col_lo, col_hi in zip(cols, lo, hi):
            c = np.zeros(vmap.n_vars)
            c[col] = 1.0
            _, best = _highs(problem, c)
            _, neg_best = _highs(problem, -c)
            assert col_lo == pytest.approx(best, abs=1e-6)
            assert col_hi == pytest.approx(-neg_best, abs=1e-6)
            assert col_lo == pytest.approx(
                copy.deepcopy(sx).optimize(c), abs=1e-9)
            assert col_hi == pytest.approx(
                copy.deepcopy(sx).optimize(c, maximize=True), abs=1e-9)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(relaxation_nodes())
    def test_warm_tightening(self, case):
        # the node's tightening LP started from the phase-1 basis of its
        # network's root: HiGHS's status, and its min and max of every
        # unfixed pre-activation (intersected with the incoming bounds),
        # over build_relaxation's LP of the node
        net, phases, bounds, con = case
        lp = NodeLP(net, (con,)).tightening
        unfixed = np.zeros(net.num_relus, dtype=np.int8)
        try:
            _, start = tighten_bounds_lp(lp, propagate_intervals(
                net, net.input_lower, net.input_upper, unfixed), unfixed)
        except Conflict:
            start = None
        problem, vmap = build_relaxation(net, bounds, phases, (con,))
        feasible, _ = _highs(problem, np.zeros(vmap.n_vars))
        try:
            got, _ = tighten_bounds_lp(lp, bounds, phases, start)
        except Conflict:
            assert not feasible
            return
        assert feasible
        for u in (phases == Phase.UNFIXED.value).nonzero()[0]:
            c = np.zeros(vmap.n_vars)
            c[vmap.pre[u]] = 1.0
            lo, neg_hi = _highs(problem, c)[1], _highs(problem, -c)[1]
            assert got.pre_lower[u] == pytest.approx(
                max(lo, bounds.pre_lower[u]), abs=1e-8)
            assert got.pre_upper[u] == pytest.approx(
                min(-neg_hi, bounds.pre_upper[u]), abs=1e-8)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(perturbed_lps())
    def test_warm_start(self, case):
        # a perturbed LP started from the first one's final basis: HiGHS's
        # status and optimum, and those of a crash start
        problem, moved = case
        first = solve_lp(problem)
        if not first.feasible:
            return
        feasible, best = _highs(moved, moved.objective)
        warm = solve_lp(moved, first.basis)
        cold = solve_lp(moved)
        assert warm.feasible == cold.feasible == feasible
        if feasible:
            assert warm.objective == pytest.approx(best, abs=1e-6)
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            assert (warm.x >= moved.lower - 1e-9).all()
            assert (warm.x <= moved.upper + 1e-9).all()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(relaxation_nodes())
    def test_node_lp(self, case):
        # NodeLP has build_relaxation's feasible set (the same range of y),
        # and its SoI optimum is HiGHS's, from a crash start and from the
        # final basis of the same network's root node
        net, phases, bounds, con = case
        lp = NodeLP(net, (con,))
        unfixed = np.zeros(net.num_relus, dtype=np.int8)
        root = solve_relaxation(lp, propagate_intervals(
            net, net.input_lower, net.input_upper, unfixed), unfixed)
        old, old_vmap = build_relaxation(net, bounds, phases, (con,))
        node = lp.problem(bounds, phases)
        for sign in (1.0, -1.0):
            c_old = np.zeros(old_vmap.n_vars)
            c_old[old_vmap.y] = sign
            c_new = np.zeros(node.lower.size)
            c_new[lp.vmap.y] = sign
            feasible, best = _highs(old, c_old)
            assert _highs(node, c_new)[0] == feasible
            if feasible:
                assert _highs(node, c_new)[1] == pytest.approx(best,
                                                                abs=1e-6)
        feasible, best = _highs(node, -node.objective)
        for start in (None, root.basis):
            res = solve_relaxation(lp, bounds, phases, start)
            assert res.feasible == feasible
            if feasible and (phases == Phase.UNFIXED.value).any():
                assert res.objective == pytest.approx(-best, abs=1e-6)
