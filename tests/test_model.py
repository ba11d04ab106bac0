import numpy as np
import pytest

from conftest import make_random_net
from relubab.model import (Layer, Network, NeuronId, NNetFormatError,
                           emit_nnet, evaluate, evaluate_batch, load_nnet,
                           toy_network)

SIMPLE_231 = """\
// hand-written 2-3-1 fixture
2,2,1,3,
2,3,1,
0,
-1.0,-1.0,
1.0,1.0,
0.0,0.0,0.0,
1.0,1.0,1.0,
0.5,-0.25,
1.0,2.0,
-1.5,0.75,
0.1,
-0.2,
0.3,
1.0,-1.0,0.5,
-0.05,
"""


class TestToyNetwork:
    def test_paper_point(self, toy):
        # forward pass through (0.3, 0.7): hidden (0.6, -0.4) -> y = -0.6
        y = evaluate(toy, [0.3, 0.7])
        assert y.shape == (1,)
        assert y[0] == pytest.approx(-0.6, abs=1e-12)

    def test_zero_point(self, toy):
        assert evaluate(toy, [0.0, 0.0])[0] == 0.0

    def test_corner_witness(self, toy):
        # hand forward pass: relu(2) = 2, relu(0) = 0 -> y = -2
        assert evaluate(toy, [1.0, 1.0])[0] == pytest.approx(-2.0, abs=1e-12)

    def test_structure(self, toy):
        assert toy.num_relus == 2
        assert toy.relu_ids() == [NeuronId(0, 0), NeuronId(0, 1)]
        np.testing.assert_array_equal(toy.layers[0].weight[0], [2.0, 0.0])
        np.testing.assert_array_equal(toy.layers[0].weight[1], [1.0, -1.0])
        np.testing.assert_array_equal(toy.layers[0].bias, [0.0, 0.0])
        np.testing.assert_array_equal(toy.input_lower, [-1.0, 0.0])
        np.testing.assert_array_equal(toy.input_upper, [1.0, 1.0])


class TestLoadNNet:
    def test_simple_231(self):
        net = load_nnet(SIMPLE_231)
        assert net.input_dim == 2 and net.output_dim == 1
        assert [l.weight.shape for l in net.layers] == [(3, 2), (1, 3)]
        np.testing.assert_array_equal(net.layers[0].weight,
                                      [[0.5, -0.25], [1.0, 2.0], [-1.5, 0.75]])
        np.testing.assert_array_equal(net.layers[0].bias, [0.1, -0.2, 0.3])
        np.testing.assert_array_equal(net.layers[1].weight, [[1.0, -1.0, 0.5]])
        assert net.layers[0].has_relu and not net.layers[1].has_relu
        # matches a hand computation of the file's semantics
        x = np.array([0.2, -0.4])
        h = np.maximum(net.layers[0].weight @ x + net.layers[0].bias, 0.0)
        expect = net.layers[1].weight @ h + net.layers[1].bias
        np.testing.assert_allclose(evaluate(net, x), expect)

    def test_dimension_mismatch_reports_line(self):
        bad = SIMPLE_231.replace("0.5,-0.25,", "0.5,-0.25,9.0,")
        with pytest.raises(NNetFormatError) as err:
            load_nnet(bad)
        assert "line" in str(err.value)

    def test_non_numeric_token(self):
        bad = SIMPLE_231.replace("1.0,2.0,", "1.0,abc,")
        with pytest.raises(NNetFormatError):
            load_nnet(bad)

    @pytest.mark.parametrize("header, sizes, reason", [
        ("2,2,1,3,", "2,x,1,", "line 3: non-numeric token"),
        ("2,2,1,3,", "2,inf,1,", "line 3: layer sizes must be positive int"),
        ("2,2,1,3,", "2,0,1,", "line 3: layer sizes must be positive int"),
        ("2,2,1,3,", "2,-3,1,", "line 3: layer sizes must be positive int"),
        ("2,2,1,3,", "2,1.5,1,", "line 3: layer sizes must be positive int"),
        ("2,2,1,3,", "2,3,", "line 3: expected 3 values, found 2"),
        ("inf,2,1,3,", "2,3,1,", "line 2: header needs numLayers"),
        ("2,x,1,3,", "2,3,1,", "line 2: non-numeric token"),
    ], ids=["non-numeric", "infinite", "zero", "negative", "fractional",
            "too-few", "header-infinite", "header-non-numeric"])
    def test_bad_layer_sizes_report_line(self, header, sizes, reason):
        bad = SIMPLE_231.replace("2,2,1,3,", header).replace("2,3,1,", sizes)
        with pytest.raises(NNetFormatError, match=reason):
            load_nnet(bad)

    def test_truncated_file(self):
        with pytest.raises(NNetFormatError):
            load_nnet("\n".join(SIMPLE_231.splitlines()[0:6]))

    def test_roundtrip_toy(self, toy):
        reloaded = load_nnet(emit_nnet(toy, comment="toy fixture"))
        rng = np.random.default_rng(0)
        xs = rng.uniform(-2, 2, size=(100, 2))
        np.testing.assert_array_equal(evaluate_batch(toy, xs),
                                      evaluate_batch(reloaded, xs))

    def test_roundtrip_preserves_contents(self):
        rng = np.random.default_rng(3)
        net = make_random_net(rng)
        reloaded = load_nnet(emit_nnet(net))
        for a, b in zip(net.layers, reloaded.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
        np.testing.assert_array_equal(net.input_lower, reloaded.input_lower)
        np.testing.assert_array_equal(net.input_upper, reloaded.input_upper)


class TestNetworkInvariants:
    def test_dimension_chaining_enforced(self):
        with pytest.raises(ValueError):
            Network(layers=(Layer(np.ones((3, 2)), np.zeros(3), True),
                            Layer(np.ones((1, 4)), np.zeros(1), False)),
                    input_lower=-np.ones(2), input_upper=np.ones(2))

    def test_final_relu_rejected(self):
        with pytest.raises(ValueError):
            Network(layers=(Layer(np.ones((1, 2)), np.zeros(1), True),),
                    input_lower=-np.ones(2), input_upper=np.ones(2))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Network(layers=(Layer(np.ones((1, 2)), np.zeros(1), False),),
                    input_lower=np.array([1.0, 0.0]),
                    input_upper=np.array([0.0, 1.0]))

    def test_evaluate_shape_check(self, toy):
        with pytest.raises(ValueError):
            evaluate(toy, [1.0, 2.0, 3.0])

    def test_piecewise_linear_regions(self):
        # with the activation pattern held fixed, the network is one affine map
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(25):
            net = make_random_net(rng)
            x0 = rng.uniform(-1, 1, net.input_dim)

            def pattern_and_map(x):
                m = np.eye(net.input_dim)
                v = np.zeros(net.input_dim)
                pat = []
                for layer in net.layers:
                    m = layer.weight @ m
                    v = layer.weight @ v + layer.bias
                    if layer.has_relu:
                        keep = (m @ x + v) > 0
                        pat.append(tuple(keep))
                        m = keep[:, None] * m
                        v = keep * v
                return tuple(pat), m, v

            pat0, m0, v0 = pattern_and_map(x0)
            for _ in range(20):
                x = x0 + rng.uniform(-0.05, 0.05, net.input_dim)
                pat, _, _ = pattern_and_map(x)
                if pat != pat0:
                    continue
                checked += 1
                np.testing.assert_allclose(evaluate(net, x), m0 @ x + v0,
                                           atol=1e-9)
        assert checked > 100
