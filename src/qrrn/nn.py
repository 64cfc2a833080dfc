"""Minimal dense network with analytic backprop, Adam and plain SGD.

Just enough machinery for small value heads: affine layers with relu or
identity activations, batched forward/backward, Glorot-uniform init. The
relu subgradient at exactly 0 is taken as 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimMismatch(ValueError):
    pass


class BadDims(ValueError):
    pass


@dataclass
class DenseNet:
    weights: list            # (out, in) matrices
    biases: list             # (out,) vectors
    activations: list        # "relu" | "identity" per layer

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def dims(self):
        return [self.input_dim] + [w.shape[0] for w in self.weights]


def init(dims, seed=0) -> DenseNet:
    """Glorot-uniform weights, zero biases; relu hidden, identity output."""
    dims = [int(d) for d in np.atleast_1d(np.asarray(dims)).tolist()]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadDims(f"need at least [in, out] with positive sizes, got {dims}")
    if isinstance(seed, (tuple, list)):
        entropy = [int(x) for x in seed]
    else:
        entropy = int(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    weights, biases, acts = [], [], []
    n_layers = len(dims) - 1
    for i in range(n_layers):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
        acts.append("identity" if i == n_layers - 1 else "relu")
    return DenseNet(weights, biases, acts)


def clone(net: DenseNet) -> DenseNet:
    return DenseNet([w.copy() for w in net.weights],
                    [b.copy() for b in net.biases],
                    list(net.activations))


def params(net: DenseNet):
    """Flat parameter list [W0, b0, W1, b1, ...] (live references)."""
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


def backward(net: DenseNet, x, grad_out, onehot: bool = False, trace=None):
    """Gradients of sum_b grad_out[b] . output[b] w.r.t. all parameters.

    Returns a flat list matching ``params(net)``. Batched inputs accumulate
    (sum) over the batch. ``trace`` is the one ``forward_trace`` returned
    for the same net and inputs.
    """
    xb, single = _as_input(net, x, onehot)
    gb, gsingle = _as_batch(grad_out, net.output_dim, "grad_out")
    if single != gsingle or xb.shape[0] != gb.shape[0]:
        raise DimMismatch("input and grad_out batch sizes differ")
    hs, zs = trace if trace is not None else _forward_trace(net, xb, onehot)[1:]
    grads = [None] * (2 * len(net.weights))
    g = gb
    for i in range(len(net.weights) - 1, -1, -1):
        if net.activations[i] == "relu":
            g = g * (zs[i] > 0.0)
        h = _onehot_rows(hs[0], net.input_dim) if onehot and i == 0 else hs[i]
        grads[2 * i] = g.T @ h           # dW
        grads[2 * i + 1] = g.sum(axis=0)  # db
        if i > 0:
            g = g @ net.weights[i]
    return grads


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net: DenseNet) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params(net)],
                   v=[np.zeros_like(p) for p in params(net)])


def adam_update(p, g, m, v, t: int, lr: float, beta1: float = 0.9,
                beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Adam step ``t`` (1-based) with bias correction on one parameter
    array and its moments, in place."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)


def adam_step(net: DenseNet, grads, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction, in place."""
    ps = params(net)
    if len(grads) != len(ps):
        raise DimMismatch("gradient list does not match parameter list")
    state.t += 1
    for p, g, m, v in zip(ps, grads, state.m, state.v):
        adam_update(p, g, m, v, state.t, lr, state.beta1, state.beta2,
                    state.eps)


def sgd_step(net: DenseNet, grads, lr: float) -> None:
    ps = params(net)
    if len(grads) != len(ps):
        raise DimMismatch("gradient list does not match parameter list")
    for p, g in zip(ps, grads):
        p -= lr * g
