"""Minimal feed-forward Q-network: manual backprop, Adam, pseudo-Huber loss.

Everything is plain numpy in float64. The network is a fixed-depth MLP with
ReLU hidden layers and a linear output layer. Gradients are computed by hand
so they can be checked against finite differences.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

DEFAULT_LAYER_SIZES = (8, 200, 60, 4)

CHECKPOINT_MAGIC = b"RQNET1"


@dataclass
class NetworkParams:
    """Weights and biases of the MLP.

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]), biases[l] has
    length layer_sizes[l+1]. When `flat` is set, the per-layer arrays are
    views into that single 1-D buffer, which lets the optimizer update every
    parameter with a few whole-buffer vector operations.
    """

    layer_sizes: tuple
    weights: list = field(repr=False)
    biases: list = field(repr=False)
    flat: np.ndarray = field(default=None, repr=False)

    @property
    def n_layers(self):
        return len(self.layer_sizes) - 1


@dataclass
class Gradients:
    """Per-parameter partials, shape-congruent with NetworkParams."""

    weights: list
    biases: list
    flat: np.ndarray = field(default=None, repr=False)


@dataclass
class AdamState:
    """First/second moment accumulators plus hyperparameters.

    `scratch` holds two buffers of the parameter count that adam_step
    writes its temporaries into; they carry no state between steps.
    """

    m: Gradients
    v: Gradients
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_num: float = 1e-8
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = sum(a.size for a in self.m.weights + self.m.biases)
        self.scratch = (np.empty(size), np.empty(size))


def param_count(layer_sizes):
    return sum(
        fan_out * (fan_in + 1)
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
    )


def _flat_views(flat, layer_sizes):
    """Slice a flat buffer into (weights, biases) view lists, layer by layer
    in the order w0, b0, w1, b1, ..."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[offset:offset + fan_out * fan_in]
                       .reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


def init_params(layer_sizes=DEFAULT_LAYER_SIZES, rng=None):
    """He-uniform weight init (bound sqrt(6/fan_in)), zero biases."""
    if rng is None:
        rng = np.random.default_rng()
    layer_sizes = tuple(int(n) for n in layer_sizes)
    if len(layer_sizes) < 2 or any(n < 1 for n in layer_sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    flat = np.zeros(param_count(layer_sizes))
    weights, biases = _flat_views(flat, layer_sizes)
    for fan_in, w in zip(layer_sizes[:-1], weights):
        bound = np.sqrt(6.0 / fan_in)
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return NetworkParams(layer_sizes, weights, biases, flat)


def zero_like_grads(params):
    flat = np.zeros(param_count(params.layer_sizes))
    weights, biases = _flat_views(flat, params.layer_sizes)
    return Gradients(weights, biases, flat)


def init_adam_state(params, beta1=0.9, beta2=0.999, eps_num=1e-8):
    return AdamState(
        m=zero_like_grads(params),
        v=zero_like_grads(params),
        step_count=0,
        beta1=beta1,
        beta2=beta2,
        eps_num=eps_num,
    )


def _layers(params, x, acts=None):
    """The layer loop shared by forward, forward_batch and backward.

    Works on a 1-D input or a batch of rows (`x @ w.T` is the same gemv as
    `w @ x` for a 1-D x). Each layer's bias is added and its ReLU applied
    in place. With `acts`, the post-activation output of every layer is
    appended to it.
    """
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = x @ w.T
        x += b
        if l < last:
            np.maximum(x, 0.0, out=x)
        if acts is not None:
            acts.append(x)
    return x


def forward(params, observation):
    """Q-values for a single observation (1-D input, 1-D output)."""
    x = np.asarray(observation, dtype=float)
    if x.ndim != 1 or x.shape[0] != params.layer_sizes[0]:
        raise ValueError(
            f"observation has shape {x.shape}, expected ({params.layer_sizes[0]},)"
        )
    return _layers(params, x)


def forward_batch(params, observations):
    """Row-wise Q-values for a batch of observations (B x in -> B x out)."""
    x = np.asarray(observations, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"batch has shape {x.shape}, expected (B, in) with B >= 1")
    if x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"batch width {x.shape[1]} != input size {params.layer_sizes[0]}"
        )
    return _layers(params, x)


def huber_loss(td_error, kappa=1.0):
    """Pseudo-Huber loss: kappa^2 * (sqrt(1 + (d/kappa)^2) - 1).

    Quadratic near zero, linear in the tails.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    d = np.asarray(td_error, dtype=float)
    return kappa * kappa * (np.sqrt(1.0 + (d / kappa) ** 2) - 1.0)


def backward(params, batch_obs, actions, targets, kappa=1.0, grads=None):
    """Gradients of mean pseudo-Huber TD loss over a batch.

    Loss = (1/B) * sum_i huber(Q(s_i, a_i) - target_i, kappa). Only the
    selected action's output unit receives loss signal per sample. Returns
    (Gradients, mean_loss). The gradients are written into `grads` when it
    is given (a flat-backed workspace from zero_like_grads, reused across
    steps) and into fresh arrays otherwise.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    x = np.asarray(batch_obs, dtype=float)
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=float)
    if not np.isfinite(targets).all():
        raise ValueError("non-finite targets")
    batch = x.shape[0]
    if actions.shape != (batch,) or targets.shape != (batch,):
        raise ValueError("actions/targets must be 1-D of batch length")
    if (actions < 0).any() or (actions >= params.layer_sizes[-1]).any():
        raise ValueError("action id out of range")

    # Forward pass, keeping post-activation values per layer.
    acts = [x]
    q = _layers(params, x, acts)

    rows = np.arange(batch)
    delta = q[rows, actions] - targets
    root = np.sqrt(1.0 + (delta / kappa) ** 2)
    # sum()/batch is bitwise equal to np.mean, with less call overhead.
    mean_loss = float((kappa * kappa * (root - 1.0)).sum() / batch)
    dloss = delta / root / batch  # d mean_loss / d q_sel

    if grads is None:
        grads = zero_like_grads(params)
    d = np.zeros(q.shape)
    d[rows, actions] = dloss
    for l in range(params.n_layers - 1, -1, -1):
        np.matmul(d.T, acts[l], out=grads.weights[l])
        d.sum(axis=0, out=grads.biases[l])
        if l > 0:
            d = d @ params.weights[l]
            d *= acts[l] > 0
    return grads, mean_loss


def adam_step(params, grads, state, lr):
    """One Adam update with bias correction, in place.

    The update is the exact form of Kingma & Ba (2015), with eps added to
    the bias-corrected sqrt(v), not the shortcut that folds the corrections
    into the step size. Temporaries go into state.scratch, so a step
    allocates nothing the size of the parameters.

    Returns (params, state) for convenience. Refuses non-finite gradients.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    s1, s2 = state.scratch
    if (params.flat is not None and grads.flat is not None
            and state.m.flat is not None and state.v.flat is not None):
        if not np.isfinite(grads.flat).all():
            raise ValueError("non-finite gradients, update refused")
        slots = [(params.flat, grads.flat, state.m.flat, state.v.flat, s1, s2)]
    else:
        grad_arrays = grads.weights + grads.biases
        for g in grad_arrays:
            if not np.isfinite(g).all():
                raise ValueError("non-finite gradients, update refused")
        slots = [
            (theta, g, m, v, s1[:g.size].reshape(g.shape),
             s2[:g.size].reshape(g.shape))
            for theta, g, m, v in zip(
                params.weights + params.biases, grad_arrays,
                state.m.weights + state.m.biases,
                state.v.weights + state.v.biases,
            )
        ]
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for theta, g, m, v, a, b in slots:
        # m = b1*m + (1-b1)*g
        np.multiply(g, 1.0 - b1, out=a)
        m *= b1
        m += a
        # v = b2*v + (1-b2)*g^2
        np.multiply(g, g, out=a)
        a *= 1.0 - b2
        v *= b2
        v += a
        # theta -= lr * (m/corr1) / (sqrt(v/corr2) + eps)
        np.divide(m, corr1, out=a)
        a *= lr
        np.divide(v, corr2, out=b)
        np.sqrt(b, out=b)
        b += state.eps_num
        a /= b
        theta -= a
    return params, state


def clone_params(params):
    """Deep, independent copy (flat-backed)."""
    flat = np.zeros(param_count(params.layer_sizes))
    weights, biases = _flat_views(flat, params.layer_sizes)
    for dst, src in zip(weights + biases, params.weights + params.biases):
        dst[:] = src
    return NetworkParams(params.layer_sizes, weights, biases, flat)


def save_network(params, path):
    """Binary checkpoint: magic "RQNET1", u32 LE layer count, u32 LE layer
    sizes, then per layer the weight matrix (row-major) and bias vector as
    little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(params.layer_sizes)))
        for n in params.layer_sizes:
            fh.write(struct.pack("<I", n))
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_network(path):
    """Read a save_network() checkpoint. Raises ValueError unless the file
    is exactly one network: right magic, a complete header, every weight
    and nothing after the last bias."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(CHECKPOINT_MAGIC) + 4
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a network checkpoint")
    if len(blob) < header:
        raise ValueError(f"{path}: truncated header")
    (count,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    if len(blob) < header + 4 * count:
        raise ValueError(f"{path}: truncated header")
    layer_sizes = struct.unpack_from(f"<{count}I", blob, header)
    if count < 2 or min(layer_sizes) < 1:
        raise ValueError(f"{path}: bad layer sizes {layer_sizes}")
    body = len(blob) - header - 4 * count
    expected = 8 * param_count(layer_sizes)
    if body != expected:
        kind = "truncated body" if body < expected else "trailing bytes"
        raise ValueError(
            f"{path}: {kind} ({body} bytes of parameters, expected {expected})"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=header + 4 * count).astype(float)
    weights, biases = _flat_views(flat, layer_sizes)
    return NetworkParams(layer_sizes, weights, biases, flat)
