"""Feed-forward ReLU network representation and NNet file I/O.

Networks are immutable once constructed: weights and biases are stored as
read-only float64 arrays, so one Network can be shared by many queries
and searches and none of them can change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np


class NNetFormatError(ValueError):
    """Raised when an NNet stream cannot be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NeuronId(NamedTuple):
    """Identifies a ReLU position: (hidden layer index, index within layer).

    Layer indices count affine layers from 0, so layer 0 is the first hidden
    layer. Only layers followed by a ReLU carry NeuronIds.
    """

    layer: int
    index: int

    def __str__(self) -> str:
        return f"{self.layer}:{self.index}"

    @staticmethod
    def parse(text: str) -> "NeuronId":
        layer, index = text.split(":")
        return NeuronId(int(layer), int(index))


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # shape (out, in)
    bias: np.ndarray    # shape (out,)
    has_relu: bool

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class Network:
    """Layered affine+ReLU model with input box and optional normalization.

    ``normalization`` holds per-input (mean, range) pairs plus one trailing
    (mean, range) pair for the outputs, as stored in NNet headers. It is
    only applied when a caller explicitly asks for normalized evaluation.
    """

    layers: tuple[Layer, ...]
    input_lower: np.ndarray
    input_upper: np.ndarray
    normalization: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        dim = self.input_dim
        for k, layer in enumerate(self.layers):
            if layer.in_dim != dim:
                raise ValueError(
                    f"layer {k} expects input width {layer.in_dim}, got {dim}")
            if layer.bias.shape != (layer.out_dim,):
                raise ValueError(f"layer {k} bias shape mismatch")
            dim = layer.out_dim
        if self.layers[-1].has_relu:
            raise ValueError("final layer must not apply ReLU")
        if self.input_lower.shape != (self.input_dim,) or \
                self.input_upper.shape != (self.input_dim,):
            raise ValueError("input bound shape mismatch")
        if np.any(self.input_lower > self.input_upper):
            raise ValueError("input_lower exceeds input_upper")
        for arr in (self.input_lower, self.input_upper):
            arr.flags.writeable = False
        for layer in self.layers:
            layer.weight.flags.writeable = False
            layer.bias.flags.writeable = False

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @cached_property
    def relu_slices(self) -> dict[int, slice]:
        """Each ReLU layer's slice of a per-neuron vector, by affine-layer
        index. Per-neuron vectors (phases, bounds, scores) run in
        relu_ids() order."""
        slices, pos = {}, 0
        for k, layer in enumerate(self.layers):
            if layer.has_relu:
                slices[k] = slice(pos, pos + layer.out_dim)
                pos += layer.out_dim
        return slices

    @cached_property
    def _relu_ids(self) -> tuple[NeuronId, ...]:
        return tuple(NeuronId(k, i) for k, sl in self.relu_slices.items()
                     for i in range(sl.stop - sl.start))

    def relu_ids(self) -> list[NeuronId]:
        """All ReLU neuron ids, in (layer, index) order."""
        return list(self._relu_ids)

    def relu_index(self, nid: NeuronId) -> int:
        """Position of ``nid`` in relu_ids(); ValueError if the network has
        no such ReLU."""
        sl = self.relu_slices.get(nid.layer)
        if sl is None or not 0 <= nid.index < sl.stop - sl.start:
            raise ValueError(f"{nid} is not a ReLU of this network")
        return sl.start + nid.index

    @cached_property
    def num_relus(self) -> int:
        return sum(l.out_dim for l in self.layers if l.has_relu)

    def normalize_input(self, x: np.ndarray) -> np.ndarray:
        if self.normalization is None:
            raise ValueError("network carries no normalization constants")
        means = np.array([m for m, _ in self.normalization[:-1]])
        ranges = np.array([r for _, r in self.normalization[:-1]])
        return (np.asarray(x, dtype=float) - means) / ranges


def evaluate(net: Network, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Exact forward pass; ReLU(t) = max(0, t) wherever a layer has one.

    Total on all of R^n: x need not lie inside the input box.
    """
    a = np.asarray(x, dtype=float)
    if a.shape != (net.input_dim,):
        raise ValueError(
            f"input has shape {a.shape}, expected ({net.input_dim},)")
    for layer in net.layers:
        a = layer.weight @ a + layer.bias
        if layer.has_relu:
            a = np.maximum(a, 0.0)
    return a


def evaluate_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Forward pass over rows of ``xs`` (shape (k, input_dim))."""
    a = np.asarray(xs, dtype=float).T
    for layer in net.layers:
        a = layer.weight @ a + layer.bias[:, None]
        if layer.has_relu:
            a = np.maximum(a, 0.0)
    return a.T


def toy_network() -> Network:
    """The two-input, two-ReLU demonstration network.

    n1_pre = 2*x1, n2_pre = x1 - x2, y = -relu(n1_pre) + relu(n2_pre),
    all biases zero, x1 in [-1, 1], x2 in [0, 1].
    """
    hidden = Layer(weight=np.array([[2.0, 0.0], [1.0, -1.0]]),
                   bias=np.zeros(2), has_relu=True)
    out = Layer(weight=np.array([[-1.0, 1.0]]), bias=np.zeros(1),
                has_relu=False)
    return Network(layers=(hidden, out),
                   input_lower=np.array([-1.0, 0.0]),
                   input_upper=np.array([1.0, 1.0]))


def _split_values(line: str) -> list[str]:
    return [tok for tok in (t.strip() for t in line.split(",")) if tok]


def load_nnet(text: str) -> Network:
    """Parse NNet-format text into a Network.

    Layout: optional ``//`` comment lines; then the counts line
    (numLayers, inputSize, outputSize, maxLayerSize); layer sizes;
    a legacy symmetric flag; input minimums; input maximums; means;
    ranges; then per layer the weight matrix row-by-row followed by
    one bias value per row. Values are comma-separated.
    """
    lines = text.splitlines()

    pos = 0

    def next_line() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines):
            ln = lines[pos]
            pos += 1
            if ln.startswith("//"):
                continue
            if ln.strip() == "":
                continue
            return pos, ln
        raise NNetFormatError(len(lines), "unexpected end of file")

    def floats(expected: int | None = None) -> list[float]:
        no, ln = next_line()
        toks = _split_values(ln)
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise NNetFormatError(no, f"non-numeric token: {exc}") from None
        if expected is not None and len(vals) != expected:
            raise NNetFormatError(
                no, f"expected {expected} values, found {len(vals)}")
        return vals

    # after floats(), pos is the number of the line it read
    header = floats()
    if len(header) < 3 or not all(v >= 1 and v.is_integer()
                                  for v in header[:3]):
        raise NNetFormatError(pos, "header needs numLayers, inputSize, "
                                   "outputSize as positive integers")
    num_layers, input_size, output_size = (int(v) for v in header[:3])

    sizes = floats(num_layers + 1)
    if not all(v >= 1 and v.is_integer() for v in sizes):
        raise NNetFormatError(pos, "layer sizes must be positive integers")
    sizes = [int(v) for v in sizes]
    if sizes[0] != input_size or sizes[-1] != output_size:
        raise NNetFormatError(pos, "layer sizes disagree with header")

    next_line()  # symmetric flag, unused
    mins = floats(input_size)
    maxes = floats(input_size)
    means = floats(input_size + 1)
    ranges = floats(input_size + 1)

    layers = []
    for k in range(num_layers):
        rows = []
        for _ in range(sizes[k + 1]):
            rows.append(floats(sizes[k]))
        bias = []
        for _ in range(sizes[k + 1]):
            bias.append(floats(1)[0])
        layers.append(Layer(weight=np.array(rows, dtype=float),
                            bias=np.array(bias, dtype=float),
                            has_relu=(k < num_layers - 1)))

    return Network(
        layers=tuple(layers),
        input_lower=np.array(mins, dtype=float),
        input_upper=np.array(maxes, dtype=float),
        normalization=tuple(zip(means, ranges)),
    )


def emit_nnet(net: Network, comment: str = "") -> str:
    """Serialize a Network in NNet format (fixture emitter).

    Floats are written with %.17g so load_nnet(emit_nnet(net)) reproduces
    the exact float64 contents.
    """
    sizes = [net.input_dim] + [l.out_dim for l in net.layers]
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"// {ln}")
    out.append(f"{len(net.layers)},{net.input_dim},{net.output_dim},{max(sizes)},")
    out.append(",".join(str(s) for s in sizes) + ",")
    out.append("0,")

    def fmt_row(vals) -> str:
        return ",".join(f"{v:.17g}" for v in vals) + ","

    out.append(fmt_row(net.input_lower))
    out.append(fmt_row(net.input_upper))
    if net.normalization is not None:
        out.append(fmt_row([m for m, _ in net.normalization]))
        out.append(fmt_row([r for _, r in net.normalization]))
    else:
        out.append(fmt_row([0.0] * (net.input_dim + 1)))
        out.append(fmt_row([1.0] * (net.input_dim + 1)))
    for layer in net.layers:
        for row in layer.weight:
            out.append(fmt_row(row))
        for b in layer.bias:
            out.append(fmt_row([b]))
    return "\n".join(out) + "\n"
