from types import SimpleNamespace

import numpy as np
import pytest

from relubab.heuristics import (HeuristicScores, SplitAction, babsr_scores,
                                compute_scores, polarity, pseudo_impact_update,
                                relu_soi, select_split, soi_error, soi_total)
from conftest import phase_vector
from relubab.model import NeuronId, toy_network
from relubab.numeric import Phase, propagate_intervals

N1 = NeuronId(0, 0)
N2 = NeuronId(0, 1)
TOY = toy_network()


class TestSoiError:
    def test_exact_active_point(self):
        assert soi_error(0.6, 0.6) == 0.0

    def test_exact_inactive_point(self):
        assert soi_error(-0.4, 0.0) == 0.0

    def test_violated(self):
        assert soi_error(2.0, 3.0) == 1.0


class TestSoiTotal:
    # the toy's one layer of two neurons: solution = (pre N1, pre N2,
    # post N1, post N2)
    VMAP = SimpleNamespace(pre=np.array([0, 1]), post=np.array([2, 3]))

    def _total(self, pre, post):
        return soi_total(TOY, relu_soi(np.array([*pre, *post]), self.VMAP))

    def test_all_exact(self):
        assert self._total((0.5, -1.0), (0.5, 0.0)) == 0.0

    def test_single_violation(self):
        assert self._total((2.0, 0.1), (3.0, 0.1)) == 1.0

    def test_toy_root_relaxed_apex(self):
        # both neurons at (pre, post) = (0, 0.5): each error is 0.5
        assert self._total((0.0, 0.0), (0.5, 0.5)) == 1.0
        per_neuron = relu_soi(np.array([0.0, 0.0, 0.5, 0.5]), self.VMAP)
        np.testing.assert_array_equal(per_neuron, [0.5, 0.5])


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

    def test_elementwise(self):
        a, b = np.array([-1.0, -1.0, -2.0]), np.array([1.0, 3.0, 0.5])
        np.testing.assert_array_equal(polarity(a, b), [0.0, 0.5, -0.6])
        with pytest.raises(ValueError):
            polarity(a, np.array([1.0, -0.5, 0.5]))


class TestBabsrScores:
    def test_toy_root_hand_backward_pass(self, toy, toy_query):
        # output direction c = 1: lam = W_out^T c = (-1, 1). Zero biases
        # kill the first term; slopes are 2/4 and 1/3, so the scores are
        # n1: -0.5 * max(-1, 0) = 0 and n2: -(1/3) * max(1, 0) = -1/3.
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        scores = babsr_scores(toy, bounds, phases, np.array([1.0]))
        assert scores[0] == pytest.approx(0.0, abs=1e-12)
        assert scores[1] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_negative_nu_hat_drops_second_term(self, toy):
        # direction -1 flips lam to (1, -1); n2 has nu_hat <= 0 and zero
        # bias, so its score is exactly 0
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        scores = babsr_scores(toy, bounds, phases, np.array([-1.0]))
        assert scores[1] == 0.0
        assert scores[0] == pytest.approx(-0.5, abs=1e-12)

    def test_all_fixed_empty(self, toy):
        # a fixed neuron has no score: its entry stays 0
        phases = phase_vector(toy, {N1: Phase.ACTIVE, N2: Phase.INACTIVE})
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        scores = babsr_scores(toy, bounds, phases, np.array([1.0]))
        assert scores.tolist() == [0.0, 0.0]

    def test_degenerate_interval_rejected(self, toy):
        phases = phase_vector(toy)
        bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                     phases)
        bounds.pre_lower[0] = bounds.pre_upper[0] = 0.0
        with pytest.raises(ValueError):
            babsr_scores(toy, bounds, phases, np.array([1.0]))


class TestPseudoImpact:
    # PI_BETA = 0.5 weighs the old value and the new change equally
    def test_basic_update(self):
        assert pseudo_impact_update(0.0, 1.0) == 0.5

    def test_fixpoint(self):
        assert pseudo_impact_update(0.7, 0.7) == pytest.approx(0.7)

    def test_decay(self):
        assert pseudo_impact_update(0.5, 0.0) == 0.25

    def test_stays_nonnegative(self):
        rng = np.random.default_rng(3)
        pi = 0.3
        for _ in range(200):
            pi = pseudo_impact_update(pi, abs(rng.normal()))
            assert pi >= 0.0


def scores_of(unfixed, soi=(0.0, 0.0), pol=(0.0, 0.0), babsr=(0.0, 0.0),
              pi=(0.0, 0.0)):
    """Scores over the toy's two ReLUs (positions 0 = N1 and 1 = N2)."""
    return HeuristicScores(unfixed=np.array(unfixed, dtype=int),
                           soi=np.array(soi), polarity=np.array(pol),
                           babsr=np.array(babsr), pi=np.array(pi))


def node_at(depth):
    return SimpleNamespace(depth=depth)


def split(depth, strategy, scores):
    return select_split(node_at(depth), strategy, scores, TOY)


class TestSelectSplit:
    def test_polarity_picks_most_balanced(self):
        scores = scores_of([0, 1], pol=(0.5, -0.1))
        assert split(4, "polarity", scores) == SplitAction(N2, Phase.INACTIVE)

    def test_initial_splits_use_pseudo_impact(self):
        # depth 2 <= 3: the PI table decides even under the babsr strategy
        scores = scores_of([0, 1], babsr=(10.0, 0.0), pi=(0.1, 0.9))
        assert split(2, "babsr", scores).neuron == N2

    def test_depth_four_uses_strategy(self):
        scores = scores_of([0, 1], babsr=(10.0, 0.0), pi=(0.1, 0.9))
        assert split(4, "babsr", scores).neuron == N1

    @pytest.mark.parametrize("depth, strategy, scores", [
        (4, "soi", dict(soi=(0.5, 0.5))),
        (4, "polarity", dict(pol=(0.5, -0.5))),
        (4, "pseudo-impact", dict(pi=(0.3, 0.3))),
        (4, "babsr", dict(babsr=(-0.2, -0.2))),
        (3, "babsr", dict(babsr=(0.0, 1.0), pi=(0.3, 0.3))),
    ], ids=["soi", "polarity", "pseudo-impact", "babsr", "initial-pi"])
    def test_tie_breaks_to_lowest_id(self, depth, strategy, scores):
        assert split(depth, strategy, scores_of([0, 1], **scores)).neuron \
            == N1

    @pytest.mark.parametrize("strategy", ["soi", "polarity", "pseudo-impact",
                                          "babsr"])
    def test_fixed_neurons_never_chosen(self, strategy):
        # N1 is fixed: its entries, however good, are not candidates
        scores = scores_of([1], soi=(9.0, 0.1), pol=(0.0, 0.9),
                           babsr=(9.0, -5.0), pi=(9.0, 0.1))
        assert split(4, strategy, scores).neuron == N2

    def test_soi_picks_largest_error(self):
        scores = scores_of([0, 1], soi=(0.1, 0.7))
        assert split(4, "soi", scores).neuron == N2

    def test_babsr_argmax_scale_invariant(self):
        base = np.array([-0.2, -0.9])
        for k in (1.0, 3.5, 100.0):
            scores = scores_of([0, 1], babsr=k * base)
            assert split(4, "babsr", scores).neuron == N1

    def test_no_unfixed_rejected(self):
        with pytest.raises(ValueError):
            split(4, "soi", scores_of([]))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            split(4, "magic", scores_of([0]))

    def test_policy_object_chooses_beyond_initial_depth(self):
        class FakePolicy:
            def choose(self, net, node, scores, fctx):
                return SplitAction(N2, Phase.ACTIVE)

        scores = scores_of([0, 1], pi=(1.0, 0.0))
        assert split(5, FakePolicy(), scores) == SplitAction(N2, Phase.ACTIVE)
        # but the shared initial policy still rules shallow nodes
        assert split(1, FakePolicy(), scores) == SplitAction(N1,
                                                             Phase.INACTIVE)
