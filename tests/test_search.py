import numpy as np
import pytest

from conftest import make_random_net, phase_vector
from relubab.harness import brute_force_verify, gen_random_suite
from relubab.model import Layer, Network, NeuronId, evaluate
from relubab.numeric import Phase, propagate_intervals
from relubab.query import (OutputConstraint, Query, check_witness,
                           example_property)
from relubab.search import (Budget, NodeEvent, SplitAction, SplitEvent,
                            VerdictEvent, deduce_phases, events_to_text,
                            expand, parse_event_log, verify)

N1 = NeuronId(0, 0)
N2 = NeuronId(0, 1)
STRATEGIES = ("soi", "polarity", "pseudo-impact", "babsr")


def unsat_query(toy):
    return Query(input_lower=toy.input_lower.copy(),
                 input_upper=toy.input_upper.copy(),
                 constraints=(OutputConstraint(np.array([1.0]), -2.5),),
                 label="toy-unsat")


class TestVerifyToy:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_example_sat_with_witness(self, toy, toy_query, strategy):
        verdict = verify(toy, toy_query, strategy, Budget(seed=0))
        assert verdict.outcome == "SAT"
        assert check_witness(toy, toy_query, verdict.witness)
        assert verdict.iterations >= verdict.splits

    def test_unsat_bound(self, toy):
        # y = -relu(2 x1) + relu(x1 - x2) >= -2 on the box
        verdict = verify(toy, unsat_query(toy), "babsr", Budget(seed=0))
        assert verdict.outcome == "UNSAT"
        assert verdict.iterations == 1  # the root relaxation already closes
        assert brute_force_verify(toy, unsat_query(toy)).outcome == "UNSAT"

    def test_forced_inactive_branch_closes_immediately(self, toy, toy_query):
        log = []
        verdict = verify(toy, toy_query, "babsr", Budget(seed=0),
                         force_first=[SplitAction(N1, Phase.INACTIVE)],
                         event_log=log)
        assert verdict.outcome == "SAT"
        nodes = [e for e in log if isinstance(e, NodeEvent)]
        branch = next(e for e in nodes
                      if e.action == SplitAction(N1, Phase.INACTIVE))
        assert branch.result == "conflict"
        # zero further splits below that branch
        assert not any(isinstance(e, SplitEvent)
                       and e.node_id == branch.node_id for e in log)

    def test_n2_first_without_tightening_visits_both_subtrees(self, toy,
                                                              toy_query):
        log = []
        verdict = verify(toy, toy_query, "babsr", Budget(seed=0),
                         tighten=False,
                         force_first=[SplitAction(N2, Phase.INACTIVE)],
                         event_log=log)
        assert verdict.outcome == "SAT"
        nodes = [e for e in log if isinstance(e, NodeEvent)]
        assert len(nodes) == 5  # root + both n2 children + both n1 children
        splits = [e for e in log if isinstance(e, SplitEvent)]
        assert [s.neuron for s in splits] == [N2, N1]

    def test_n1_first_beats_n2_first_without_tightening(self, toy, toy_query):
        run = {}
        for name, neuron in (("n1", N1), ("n2", N2)):
            verdict = verify(toy, toy_query, "babsr", Budget(seed=0),
                             tighten=False,
                             force_first=[SplitAction(neuron, Phase.INACTIVE)])
            run[name] = verdict.iterations
        assert run["n1"] < run["n2"]

    @pytest.mark.parametrize("strategy", ["sio", "agent", object()],
                             ids=["misspelt", "agent-name", "no-choose"])
    def test_unknown_strategy_rejected_before_search(self, toy, toy_query,
                                                     strategy):
        log = []
        with pytest.raises(ValueError, match="unknown strategy"):
            verify(toy, toy_query, strategy, event_log=log)
        assert log == []

    def test_splits_so_far_counts_the_run(self):
        # a node records the run's split count when it is visited; after
        # backtracking that exceeds its depth (the splits on its own path)
        inst = gen_random_suite(seed=7, count=4, n_relus=(6, 10))[3]
        split_nodes = []

        class Recorder:
            def on_split(self, net, node, scores, action, fctx):
                split_nodes.append(node)

        log = []
        verify(inst.net, inst.query, "babsr", Budget(seed=0), tighten=False,
               event_log=log, collector=Recorder())
        splits_before, count = {}, 0
        for ev in log:
            if isinstance(ev, SplitEvent):
                count += 1
            elif isinstance(ev, NodeEvent):
                splits_before[ev.node_id] = count
        assert all(n.splits_so_far == splits_before[n.node_id]
                   for n in split_nodes)
        assert any(n.splits_so_far > n.depth for n in split_nodes)


class TestDeducePhases:
    def test_negative_interval_fixes_inactive(self, toy):
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, np.array([-1.0, 0.0]),
                                     np.array([0.0, 1.0]), phases)
        assert deduce_phases(bounds, phases) >= 1
        assert phases[1] == Phase.INACTIVE

    def test_positive_interval_fixes_active(self, toy):
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, np.array([0.05, 0.0]),
                                     np.array([1.0, 1.0]), phases)
        assert deduce_phases(bounds, phases) >= 1
        assert phases[0] == Phase.ACTIVE

    def test_straddling_interval_stays_unfixed(self, toy):
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        assert deduce_phases(bounds, phases) == 0
        assert phases.tolist() == [Phase.UNFIXED] * 2

    def test_fixpoint(self, toy):
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, np.array([-1.0, 0.0]),
                                     np.array([0.0, 1.0]), phases)
        deduce_phases(bounds, phases)
        bounds2 = propagate_intervals(toy, np.array([-1.0, 0.0]),
                                      np.array([0.0, 1.0]), phases)
        assert deduce_phases(bounds2, phases) == 0


class TestApplySplit:
    def test_active_split_tightens_input(self, toy_query, toy_lp):
        # phase fixing alone gives 2 x1 >= 0; the node LP also carries
        # y <= -0.5, i.e. -2 x1 + post2 <= -0.5 with post2 >= 0, so x1 >=
        # 0.25. The LP bounds no input (the box stays the query's), so the
        # deduction shows in n2 = x1 - x2: its pre lower bound is 0.25 - 1
        root = expand(toy_lp, toy_query, None, None, tighten=True)
        child = expand(toy_lp, toy_query, root,
                       SplitAction(N1, Phase.ACTIVE), tighten=True)
        assert child.status == "open"
        assert child.depth == 1
        assert child.action == SplitAction(N1, Phase.ACTIVE)
        assert child.bounds.pre_lower[1] == pytest.approx(-0.75, abs=1e-6)
        assert child.bounds.input_lower.tolist() == \
            toy_query.input_lower.tolist()
        assert child.tighten_basis is not None

    def test_inactive_split_is_closed_child(self, toy_query, toy_lp):
        root = expand(toy_lp, toy_query, None, None, tighten=True)
        child = expand(toy_lp, toy_query, root,
                       SplitAction(N1, Phase.INACTIVE), tighten=True)
        assert child.status == "conflict"
        assert child.bounds is None and child.soi is None

    def test_split_on_fixed_neuron_rejected(self, toy_query, toy_lp):
        root = expand(toy_lp, toy_query, None, None, tighten=True)
        child = expand(toy_lp, toy_query, root,
                       SplitAction(N1, Phase.ACTIVE), tighten=True)
        with pytest.raises(ValueError):
            expand(toy_lp, toy_query, child, SplitAction(N1, Phase.ACTIVE),
                   tighten=True)

    @pytest.mark.parametrize("neuron", [NeuronId(0, 2), NeuronId(1, 0),
                                        NeuronId(0, -1)],
                             ids=["past-layer-end", "output-layer",
                                  "negative-index"])
    def test_split_outside_network_rejected(self, toy_query, toy_lp, neuron):
        root = expand(toy_lp, toy_query, None, None, tighten=True)
        with pytest.raises(ValueError):
            expand(toy_lp, toy_query, root,
                   SplitAction(neuron, Phase.INACTIVE), tighten=True)

    def test_children_partition_parent(self, toy, toy_query):
        # sampled points of the parent region land in exactly one strict
        # child region (the pre = 0 boundary belongs to both)
        rng = np.random.default_rng(0)
        xs = rng.uniform([-1, 0], [1, 1], size=(500, 2))
        pre = 2.0 * xs[:, 0]
        strict = np.abs(pre) > 1e-12
        in_active = pre >= 0
        in_inactive = pre <= 0
        assert np.all((in_active ^ in_inactive)[strict])
        assert np.all(in_active | in_inactive)


class TestPhaseOneCycle:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_seed_11_query_is_unsat(self, strategy):
        # when LP tightening also bounded the inputs, phase 1 of the
        # tightening LP at root -> 0:3 inactive -> 0:6 active cycled to the
        # pivot cap (tests/data/phase1_cycle_lp.json holds that LP)
        inst = gen_random_suite(seed=11, count=12, n_inputs=(3, 5),
                                n_relus=(10, 14))[4]
        verdict = verify(inst.net, inst.query, strategy,
                         Budget(max_iterations=2000), tighten=True)
        assert verdict.outcome == "UNSAT"


class TestEdgeNetworks:
    def test_relu_free_network(self):
        # no phases to split on: the root relaxation is exact either way
        net = Network(layers=(Layer(np.array([[1.0, -1.0]]),
                                    np.array([0.25]), False),),
                      input_lower=-np.ones(2), input_upper=np.ones(2))
        sat = Query(input_lower=net.input_lower.copy(),
                    input_upper=net.input_upper.copy(),
                    constraints=(OutputConstraint(np.array([1.0]), 0.0),),
                    label="affine-sat")
        verdict = verify(net, sat, "babsr", Budget(seed=0))
        assert verdict.outcome == "SAT" and verdict.splits == 0
        assert check_witness(net, sat, verdict.witness)
        unsat = Query(input_lower=net.input_lower.copy(),
                      input_upper=net.input_upper.copy(),
                      constraints=(OutputConstraint(np.array([1.0]), -3.0),),
                      label="affine-unsat")
        assert verify(net, unsat, "babsr", Budget(seed=0)).outcome == "UNSAT"

    def test_point_box(self, toy):
        query = Query(input_lower=np.array([0.3, 0.7]),
                      input_upper=np.array([0.3, 0.7]),
                      constraints=(OutputConstraint(np.array([1.0]), -0.5),),
                      label="point")
        verdict = verify(toy, query, "babsr", Budget(seed=0))
        assert verdict.outcome == "SAT"
        np.testing.assert_allclose(verdict.witness, [0.3, 0.7])


class TestBudget:
    def test_iteration_cap_times_out(self, toy, toy_query):
        verdict = verify(toy, toy_query, "babsr",
                         Budget(max_iterations=1, seed=0))
        assert verdict.outcome == "TIMEOUT"
        assert verdict.iterations <= 1

    def test_wall_clock_times_out(self, toy, toy_query):
        verdict = verify(toy, toy_query, "babsr",
                         Budget(timeout_s=1e-9, seed=0))
        assert verdict.outcome == "TIMEOUT"

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget(timeout_s=0)


class TestDeterminism:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_identical_reruns(self, strategy):
        rng = np.random.default_rng(17)
        net = make_random_net(rng, n_in=3, widths=[4, 3])
        query = Query(input_lower=net.input_lower.copy(),
                      input_upper=net.input_upper.copy(),
                      constraints=(OutputConstraint(np.array([1.0]), -0.3),),
                      label="det")
        logs = []
        verdicts = []
        for _ in range(2):
            log = []
            verdicts.append(verify(net, query, strategy, Budget(seed=5),
                                   event_log=log))
            logs.append(events_to_text(log))
        assert verdicts[0].outcome == verdicts[1].outcome
        assert verdicts[0].iterations == verdicts[1].iterations
        assert verdicts[0].splits == verdicts[1].splits
        assert logs[0] == logs[1]
        if verdicts[0].witness is not None:
            np.testing.assert_array_equal(verdicts[0].witness,
                                          verdicts[1].witness)


class TestTreeAccounting:
    def test_splits_and_recount(self):
        rng = np.random.default_rng(23)
        total_checked = 0
        for _ in range(10):
            net = make_random_net(rng, n_in=3, widths=[5])
            query = Query(input_lower=net.input_lower.copy(),
                          input_upper=net.input_upper.copy(),
                          constraints=(OutputConstraint(
                              np.array([1.0]),
                              float(rng.uniform(-1.5, 0.0))),),
                          label="acct")
            log = []
            verdict = verify(net, query, "polarity", Budget(seed=1),
                             event_log=log)
            assert verdict.splits <= verdict.iterations
            nodes = [e for e in log if isinstance(e, NodeEvent)]
            splits = [e for e in log if isinstance(e, SplitEvent)]
            assert len(nodes) == verdict.iterations
            assert len(splits) == verdict.splits
            # each split produces exactly two visited children
            for s in splits:
                children = [n for n in nodes if n.parent_id == s.node_id]
                if verdict.outcome == "UNSAT":
                    assert len(children) == 2
                else:
                    assert len(children) in (1, 2)
            total_checked += len(splits)
        assert total_checked > 0


class TestEventLog:
    def test_round_trip(self, toy, toy_query):
        log = []
        verify(toy, toy_query, "babsr", Budget(seed=0), event_log=log)
        text = events_to_text(log)
        parsed = parse_event_log(text)
        assert parsed == log
        verdicts = [e for e in parsed if isinstance(e, VerdictEvent)]
        assert len(verdicts) == 1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_event_log("wibble id=0\n")


class TestOracleAgreementSmall:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_agreement_on_random_instances(self, strategy):
        rng = np.random.default_rng(31)
        for _ in range(8):
            net = make_random_net(rng, n_in=3, widths=[4])
            threshold = float(rng.uniform(-1.0, 0.5))
            query = Query(input_lower=net.input_lower.copy(),
                          input_upper=net.input_upper.copy(),
                          constraints=(OutputConstraint(np.array([1.0]),
                                                        threshold),),
                          label="agree")
            expected = brute_force_verify(net, query)
            got = verify(net, query, strategy, Budget(seed=2))
            assert got.outcome == expected.outcome
            if got.outcome == "SAT":
                assert check_witness(net, query, got.witness)
