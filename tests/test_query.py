import numpy as np
import pytest

from conftest import make_random_net
from relubab.model import Layer, Network, evaluate
from relubab.query import (OutputConstraint, PropertyFormatError, Query,
                           TieError, Verdict, check_witness, example_property,
                           load_robustness_manifest, make_robustness_queries,
                           parse_property)


def five_output_net() -> Network:
    """2-in / 5-out net with well-separated outputs at the origin."""
    hidden = Layer(weight=np.array([[1.0, 0.5], [-0.5, 1.0], [0.3, -0.7]]),
                   bias=np.array([0.2, 0.1, -0.1]), has_relu=True)
    out = Layer(weight=np.arange(15, dtype=float).reshape(5, 3) / 10.0 - 0.4,
                bias=np.array([0.0, 0.5, -0.5, 1.5, -1.0]), has_relu=False)
    return Network(layers=(hidden, out), input_lower=-np.ones(2),
                   input_upper=np.ones(2))


class TestParseProperty:
    def test_example_query(self, toy):
        q = parse_property("out 1 <= -0.5", toy)
        assert len(q.constraints) == 1
        con = q.constraints[0]
        np.testing.assert_array_equal(con.coeffs, [1.0])
        assert con.bound == -0.5
        np.testing.assert_array_equal(q.input_lower, toy.input_lower)
        np.testing.assert_array_equal(q.input_upper, toy.input_upper)
        # matches the built-in running-example fixture
        fixture = example_property(toy)
        np.testing.assert_array_equal(fixture.constraints[0].coeffs,
                                      con.coeffs)
        assert fixture.constraints[0].bound == con.bound

    def test_coefficient_semantics(self, toy):
        # "out c <= d" means c . y <= d; with c = -1 it encodes -y <= -0.5
        q = parse_property("out -1 <= -0.5", toy)
        assert q.constraints[0].satisfied(np.array([0.7]))
        assert not q.constraints[0].satisfied(np.array([0.3]))

    def test_in_lines_shrink_box(self, toy):
        q = parse_property("in 0 >= -0.5\nin 1 <= 0.25\nout 1 <= 0", toy)
        np.testing.assert_array_equal(q.input_lower, [-0.5, 0.0])
        np.testing.assert_array_equal(q.input_upper, [1.0, 0.25])

    def test_empty_box_rejected(self, toy):
        with pytest.raises(PropertyFormatError):
            parse_property("in 0 >= 2\nout 1 <= 0", toy)

    def test_two_out_lines_conjoin(self, toy):
        q = parse_property("out 1 <= 0\nout -1 <= 1", toy)
        assert len(q.constraints) == 2

    def test_unknown_keyword(self, toy):
        with pytest.raises(PropertyFormatError):
            parse_property("frob 1 <= 0", toy)

    def test_index_out_of_range(self, toy):
        with pytest.raises(PropertyFormatError):
            parse_property("in 5 >= 0\nout 1 <= 0", toy)

    def test_no_constraints_rejected(self, toy):
        with pytest.raises(PropertyFormatError):
            parse_property("in 0 >= 0", toy)


class TestRobustnessQueries:
    def test_one_query_per_adversarial_label(self):
        net = five_output_net()
        queries = make_robustness_queries(net, [0.1, -0.2], 0.05)
        assert len(queries) == net.output_dim - 1

    def test_three_deltas_three_groups(self):
        net = five_output_net()
        groups = [make_robustness_queries(net, [0.1, -0.2], d)
                  for d in (0.08, 0.09, 0.1)]
        assert len(groups) == 3
        assert all(len(g) == 4 for g in groups)

    def test_argmax_constraints(self):
        net = five_output_net()
        y0 = evaluate(net, [0.1, -0.2])
        target = int(np.argmax(y0))
        queries = make_robustness_queries(net, [0.1, -0.2], 0.05, "argmax")
        got = set()
        for q in queries:
            (j,) = np.nonzero(q.constraints[0].coeffs == -1.0)[0]
            assert q.constraints[0].coeffs[target] == 1.0
            assert q.constraints[0].bound == 0.0
            got.add(int(j))
        assert got == set(range(net.output_dim)) - {target}

    def test_argmin_constraints(self):
        net = five_output_net()
        y0 = evaluate(net, [0.1, -0.2])
        target = int(np.argmin(y0))
        queries = make_robustness_queries(net, [0.1, -0.2], 0.05, "argmin")
        for q in queries:
            assert q.constraints[0].coeffs[target] == -1.0

    def test_ball_intersects_input_bounds(self):
        net = five_output_net()
        q = make_robustness_queries(net, [0.98, 0.0], 0.1)[0]
        np.testing.assert_allclose(q.input_upper, [1.0, 0.1])
        np.testing.assert_allclose(q.input_lower, [0.88, -0.1])

    def test_tie_reported(self):
        # identical rows force a tie between two outputs everywhere
        net = Network(layers=(Layer(np.array([[1.0], [1.0]]),
                                    np.zeros(2), False),),
                      input_lower=-np.ones(1), input_upper=np.ones(1))
        with pytest.raises(TieError):
            make_robustness_queries(net, [0.3], 0.05)

    def test_one_output_rejected(self, toy):
        with pytest.raises(ValueError, match="the network has 1"):
            make_robustness_queries(toy, [0.1, -0.2], 0.05)

    def test_delta_positive(self):
        net = five_output_net()
        with pytest.raises(ValueError):
            make_robustness_queries(net, [0.1, -0.2], 0.0)


class TestCheckWitness:
    def test_paper_witness(self, toy, toy_query):
        assert check_witness(toy, toy_query, [0.3, 0.7])

    def test_origin_fails_constraint(self, toy, toy_query):
        assert not check_witness(toy, toy_query, [0.0, 0.0])

    def test_outside_box(self, toy, toy_query):
        assert not check_witness(toy, toy_query, [2.0, 0.0])

    def test_box_tolerance(self, toy, toy_query):
        assert check_witness(toy, toy_query, [1.0 + 1e-8, 1.0])


class TestVerdict:
    def test_sat_needs_witness(self):
        with pytest.raises(ValueError):
            Verdict(outcome="SAT")

    def test_iterations_at_least_splits(self):
        with pytest.raises(ValueError):
            Verdict(outcome="UNSAT", iterations=1, splits=2)


class TestManifest:
    def test_rows(self):
        rows = load_robustness_manifest(
            "0.1 0.2 ; 0.08\n# comment\n-0.5 0.25 ; 0.1\n")
        assert len(rows) == 2
        np.testing.assert_array_equal(rows[0][0], [0.1, 0.2])
        assert rows[1][1] == 0.1

    def test_missing_separator(self):
        with pytest.raises(PropertyFormatError):
            load_robustness_manifest("0.1 0.2 0.08\n")
