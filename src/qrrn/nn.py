"""Minimal dense network with analytic backprop, Adam and plain SGD.

Just enough machinery for small value heads: affine layers with relu or
identity activations, batched forward/backward, Glorot-uniform init. The
relu subgradient at exactly 0 is taken as 0.

A network keeps all its parameters in one contiguous vector, and the
optimizers step such vectors whole: one pass per operation, not one per
weight matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DimMismatch(ValueError):
    pass


class BadDims(ValueError):
    pass


def split(flat: np.ndarray, shapes) -> list:
    """Views of consecutive pieces of ``flat`` with the given shapes."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[start:start + size].reshape(shape))
        start += size
    return out


class DenseNet:
    """Affine layers whose parameters live in one float vector, ``flat``,
    laid out as ``params`` lists them: ``weights`` ((out, in) matrices) and
    ``biases`` ((out,) vectors) are views of ``flat`` cut to ``shapes`` (see
    ``layer_shapes``), without a copy. ``activations`` holds "relu" or
    "identity" per layer."""

    def __init__(self, flat: np.ndarray, shapes, activations):
        views = split(flat, shapes)
        self.weights, self.biases = views[0::2], views[1::2]
        self.activations, self.flat = list(activations), flat

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]


def layer_shapes(dims) -> list:
    """[W0.shape, b0.shape, W1.shape, ...] of a net with layer sizes
    ``dims``, the order ``params`` lists the arrays in."""
    return [s for n_in, n_out in zip(dims, dims[1:])
            for s in ((n_out, n_in), (n_out,))]


def init(dims, seed=0) -> DenseNet:
    """Glorot-uniform weights, zero biases; relu hidden, identity output.
    With ``seed=None`` the weights are zeros too and nothing is drawn.
    The layers are views of one zeroed vector, which the draws fill."""
    dims = [int(d) for d in np.atleast_1d(np.asarray(dims)).tolist()]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadDims(f"need at least [in, out] with positive sizes, got {dims}")
    shapes = layer_shapes(dims)
    acts = ["relu"] * (len(dims) - 2) + ["identity"]
    net = DenseNet(np.zeros(sum(math.prod(s) for s in shapes)), shapes, acts)
    if seed is not None:
        entropy = ([int(x) for x in seed] if isinstance(seed, (tuple, list))
                   else int(seed))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        for w in net.weights:
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


def clone(net: DenseNet) -> DenseNet:
    return DenseNet(net.flat.copy(), [p.shape for p in params(net)],
                    net.activations)


def params(net: DenseNet):
    """Parameter list [W0, b0, W1, b1, ...], views into ``net.flat``."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.append(w)
        out.append(b)
    return out


def _as_batch(x, dim, what):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimMismatch(f"{what} must have width {dim}, got shape {x.shape}")
    return x, single


def _as_input(net: DenseNet, x, onehot: bool):
    """Batched input and whether x was a single sample. With ``onehot`` x
    holds the hot indices (a scalar or a vector) of one-hot inputs."""
    if not onehot:
        return _as_batch(x, net.input_dim, "input")
    idx = np.asarray(x, dtype=np.int64)
    if idx.ndim > 1:
        raise DimMismatch(f"one-hot indices must be a scalar or a vector, "
                          f"got shape {idx.shape}")
    return np.atleast_1d(idx), idx.ndim == 0


def _onehot_rows(idx, width: int) -> np.ndarray:
    x = np.zeros((len(idx), width))
    x[np.arange(len(idx)), idx] = 1.0
    return x


def _forward_trace(net: DenseNet, x, onehot: bool = False):
    hs = [x]           # layer inputs
    zs = []            # pre-activations
    h = x
    for i, (w, b, act) in enumerate(zip(net.weights, net.biases,
                                        net.activations)):
        # a one-hot row times W0.T adds one column of W0 to exact zeros, so
        # gathering the columns gives the product's bits
        z = (w.T[h] if onehot and i == 0 else h @ w.T) + b
        zs.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else z
        hs.append(h)
    return h, hs, zs


def forward(net: DenseNet, x, onehot: bool = False) -> np.ndarray:
    """Evaluate the network on a vector or a (batch, input_dim) matrix.

    With ``onehot`` the input is given by hot indices instead: a scalar
    index stands for one one-hot vector, an index vector for a batch.
    """
    xb, single = _as_input(net, x, onehot)
    y, _, _ = _forward_trace(net, xb, onehot)
    return y[0] if single else y


def forward_trace(net: DenseNet, x, onehot: bool = False):
    """Batched ``forward`` that also returns the layer trace, which
    ``backward`` accepts instead of repeating the forward pass."""
    xb, _ = _as_input(net, x, onehot)
    y, hs, zs = _forward_trace(net, xb, onehot)
    return y, (hs, zs)


def backward(net: DenseNet, x, grad_out, onehot: bool = False, trace=None,
             out=None):
    """Gradients of sum_b grad_out[b] . output[b] w.r.t. all parameters.

    Returns a list matching ``params(net)``: ``out`` (arrays of those
    shapes, such as ``split`` views of one vector) filled in place, or new
    arrays. Batched inputs accumulate (sum) over the batch. ``trace`` is
    the one ``forward_trace`` returned for the same net and inputs.
    """
    xb, single = _as_input(net, x, onehot)
    gb, gsingle = _as_batch(grad_out, net.output_dim, "grad_out")
    if single != gsingle or xb.shape[0] != gb.shape[0]:
        raise DimMismatch("input and grad_out batch sizes differ")
    hs, zs = trace if trace is not None else _forward_trace(net, xb, onehot)[1:]
    grads = [np.empty_like(p) for p in params(net)] if out is None else out
    g = gb
    for i in range(len(net.weights) - 1, -1, -1):
        if net.activations[i] == "relu":
            g = g * (zs[i] > 0.0)
        h = _onehot_rows(hs[0], net.input_dim) if onehot and i == 0 else hs[i]
        np.matmul(g.T, h, out=grads[2 * i])              # dW
        np.add.reduce(g, axis=0, out=grads[2 * i + 1])   # db
        if i > 0:
            g = g @ net.weights[i]
    return grads


@dataclass
class AdamState:
    """Adam moments of one flat parameter vector, and scratch space for
    ``adam_step``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _step: np.ndarray = field(init=False, repr=False)
    _denom: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._step, self._denom = np.empty_like(self.m), np.empty_like(self.m)

    @classmethod
    def for_params(cls, p: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(p), v=np.zeros_like(p))


def _check(p, g) -> None:
    if g.shape != p.shape:
        raise DimMismatch(f"gradient shape {g.shape} does not match "
                          f"parameters {p.shape}")


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction of a parameter vector, in place.

    Every element takes the same operations in the same order as
    ``p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)`` after
    the moment updates; the temporaries go to the state's scratch buffers.
    """
    _check(p, g)
    state.t += 1
    b1, b2, t = state.beta1, state.beta2, state.t
    m, v, step, denom = state.m, state.v, state._step, state._denom
    np.multiply(g, 1.0 - b1, out=step)
    m *= b1
    m += step
    np.multiply(g, 1.0 - b2, out=step)
    step *= g
    v *= b2
    v += step
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= lr
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    p -= step


def sgd_step(p: np.ndarray, g: np.ndarray, lr: float) -> None:
    """Plain gradient step p <- p - lr * g on a parameter vector, in place."""
    _check(p, g)
    p -= lr * g
