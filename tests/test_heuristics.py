from types import SimpleNamespace

import numpy as np
import pytest

from relubab.heuristics import (HeuristicScores, SplitAction, babsr_scores,
                                compute_scores, polarity, pseudo_impact_update,
                                relu_soi, select_split, soi_error, soi_total)
from relubab.model import NeuronId
from relubab.numeric import Phase, propagate_intervals

N1 = NeuronId(0, 0)
N2 = NeuronId(0, 1)


class TestSoiError:
    def test_exact_active_point(self):
        assert soi_error(0.6, 0.6) == 0.0

    def test_exact_inactive_point(self):
        assert soi_error(-0.4, 0.0) == 0.0

    def test_violated(self):
        assert soi_error(2.0, 3.0) == 1.0


class TestSoiTotal:
    # one layer of two neurons: solution = (pre N1, pre N2, post N1, post N2)
    VMAP = SimpleNamespace(pre={0: slice(0, 2)}, post={0: slice(2, 4)})

    def _total(self, pre, post):
        return soi_total(np.array([*pre, *post]), self.VMAP)

    def test_all_exact(self):
        assert self._total((0.5, -1.0), (0.5, 0.0)) == 0.0

    def test_single_violation(self):
        assert self._total((2.0, 0.1), (3.0, 0.1)) == 1.0

    def test_toy_root_relaxed_apex(self):
        # both neurons at (pre, post) = (0, 0.5): each error is 0.5
        assert self._total((0.0, 0.0), (0.5, 0.5)) == 1.0
        per_neuron = relu_soi(np.array([0.0, 0.0, 0.5, 0.5]), self.VMAP)
        np.testing.assert_array_equal(per_neuron[0], [0.5, 0.5])

    def test_missing_solution(self):
        with pytest.raises(ValueError):
            soi_total(None, None)


class TestPolarity:
    def test_symmetric(self):
        assert polarity(-1.0, 1.0) == 0.0

    def test_skewed_positive(self):
        assert polarity(-1.0, 3.0) == 0.5

    def test_skewed_negative(self):
        assert polarity(-2.0, 0.5) == -0.6

    def test_requires_straddling_zero(self):
        with pytest.raises(ValueError):
            polarity(0.5, 1.0)
        with pytest.raises(ValueError):
            polarity(-1.0, -0.2)

    def test_scale_free(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = -rng.uniform(0.1, 4), rng.uniform(0.1, 4)
            k = rng.uniform(0.01, 100)
            assert polarity(k * a, k * b) == pytest.approx(polarity(a, b),
                                                           abs=1e-12)


class TestBabsrScores:
    def test_toy_root_hand_backward_pass(self, toy, toy_query):
        # output direction c = 1: lam = W_out^T c = (-1, 1). Zero biases
        # kill the first term; slopes are 2/4 and 1/3, so the scores are
        # n1: -0.5 * max(-1, 0) = 0 and n2: -(1/3) * max(1, 0) = -1/3.
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper, {})
        scores = babsr_scores(toy, bounds, {}, np.array([1.0]))
        assert scores[N1] == pytest.approx(0.0, abs=1e-12)
        assert scores[N2] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_negative_nu_hat_drops_second_term(self, toy):
        # direction -1 flips lam to (1, -1); n2 has nu_hat <= 0 and zero
        # bias, so its score is exactly 0
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper, {})
        scores = babsr_scores(toy, bounds, {}, np.array([-1.0]))
        assert scores[N2] == 0.0
        assert scores[N1] == pytest.approx(-0.5, abs=1e-12)

    def test_all_fixed_empty(self, toy):
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     {N1: Phase.ACTIVE, N2: Phase.INACTIVE})
        scores = babsr_scores(toy, bounds,
                              {N1: Phase.ACTIVE, N2: Phase.INACTIVE},
                              np.array([1.0]))
        assert scores == {}

    def test_degenerate_interval_rejected(self, toy):
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper, {})
        bounds.pre_lower[0][0] = bounds.pre_upper[0][0] = 0.0
        with pytest.raises(ValueError):
            babsr_scores(toy, bounds, {}, np.array([1.0]))


class TestPseudoImpact:
    def test_basic_update(self):
        assert pseudo_impact_update(0.0, 1.0, 0.5) == 0.5

    def test_fixpoint(self):
        assert pseudo_impact_update(0.7, 0.7, 0.5) == pytest.approx(0.7)

    def test_decay(self):
        assert pseudo_impact_update(0.5, 0.0, 0.5) == 0.25

    def test_beta_range(self):
        with pytest.raises(ValueError):
            pseudo_impact_update(0.0, 1.0, 1.0)

    def test_stays_nonnegative(self):
        rng = np.random.default_rng(3)
        pi = 0.3
        for _ in range(200):
            pi = pseudo_impact_update(pi, abs(rng.normal()), 0.5)
            assert pi >= 0.0


def scores_of(unfixed, soi=None, pol=None, babsr=None, pi=None):
    return HeuristicScores(unfixed=unfixed, soi=soi or {}, polarity=pol or {},
                           babsr=babsr or {}, pi=pi or {})


def node_at(depth):
    return SimpleNamespace(depth=depth)


class TestSelectSplit:
    def test_polarity_picks_most_balanced(self):
        scores = scores_of([N1, N2], pol={N1: 0.5, N2: -0.1})
        action = select_split(node_at(4), "polarity", None, scores)
        assert action == SplitAction(N2, Phase.INACTIVE)

    def test_initial_splits_use_pseudo_impact(self):
        # depth 2 <= 3: the PI table decides even under the babsr strategy
        scores = scores_of([N1, N2], babsr={N1: 10.0, N2: 0.0},
                           pi={N1: 0.1, N2: 0.9})
        action = select_split(node_at(2), "babsr", None, scores)
        assert action.neuron == N2

    def test_depth_four_uses_strategy(self):
        scores = scores_of([N1, N2], babsr={N1: 10.0, N2: 0.0},
                           pi={N1: 0.1, N2: 0.9})
        action = select_split(node_at(4), "babsr", None, scores)
        assert action.neuron == N1

    def test_tie_breaks_to_lowest_id(self):
        scores = scores_of([N1, N2], soi={N1: 0.5, N2: 0.5})
        action = select_split(node_at(4), "soi", None, scores)
        assert action.neuron == N1

    def test_soi_picks_largest_error(self):
        scores = scores_of([N1, N2], soi={N1: 0.1, N2: 0.7})
        assert select_split(node_at(4), "soi", None, scores).neuron == N2

    def test_babsr_argmax_scale_invariant(self):
        base = {N1: -0.2, N2: -0.9}
        for k in (1.0, 3.5, 100.0):
            scores = scores_of([N1, N2],
                               babsr={n: k * v for n, v in base.items()})
            assert select_split(node_at(4), "babsr", None,
                                scores).neuron == N1

    def test_no_unfixed_rejected(self):
        with pytest.raises(ValueError):
            select_split(node_at(4), "soi", None, scores_of([]))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_split(node_at(4), "magic", None, scores_of([N1]))

    def test_policy_object_chooses_beyond_initial_depth(self):
        class FakePolicy:
            def choose(self, net, node, scores, fctx, rng):
                return SplitAction(N2, Phase.ACTIVE)

        scores = scores_of([N1, N2], pi={N1: 1.0, N2: 0.0})
        action = select_split(node_at(5), FakePolicy(), None, scores)
        assert action == SplitAction(N2, Phase.ACTIVE)
        # but the shared initial policy still rules shallow nodes
        action = select_split(node_at(1), FakePolicy(), None, scores)
        assert action == SplitAction(N1, Phase.INACTIVE)
