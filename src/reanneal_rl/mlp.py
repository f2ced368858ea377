"""Minimal feed-forward Q-network: manual backprop, Adam, pseudo-Huber loss.

Everything is plain numpy in float64. The network is a fixed-depth MLP with
ReLU hidden layers and a linear output layer. Gradients are computed by hand
so they can be checked against finite differences.

Adam moments whose magnitude falls below the smallest normal double are set
to zero every ADAM_FLUSH_PERIOD steps. A weight that stops getting gradient
has its first moment decay into the subnormal range, where fl(0.9 * m) can
round back to m, so it stays there and every later pass over m takes the
CPU's slow subnormal path. The weights cannot see the flush: a subnormal
moment moves no weight of ordinary size. The flush is keyed to the step
count, which checkpoints keep, so a loaded agent flushes at the same steps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

DEFAULT_LAYER_SIZES = (8, 200, 60, 4)

CHECKPOINT_MAGIC = b"RQNET1"


# Adam hyperparameters (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Steps between flushes of subnormal moments; a flush on every step is
# slower (ROADMAP, measured dead ends).
ADAM_FLUSH_PERIOD = 64
_TINY = np.finfo(float).tiny


@dataclass
class NetworkParams:
    """Weights and biases of the MLP, or any array set of the same shapes
    (gradients, Adam moments).

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]), biases[l] has
    length layer_sizes[l+1]. Both are views into the single 1-D buffer
    `flat`, layer by layer in the order w0, b0, w1, b1, ..., which lets the
    optimizer update every parameter with a few whole-buffer operations.
    Given `flat`, the views share it; given `weights` and `biases` lists,
    their values are copied into a new buffer; given neither, all are zero.
    """

    layer_sizes: tuple
    weights: list = field(default=None, repr=False)
    biases: list = field(default=None, repr=False)
    flat: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.zeros(param_count(self.layer_sizes))
        given = None if self.weights is None else self.weights + self.biases
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.weights.append(self.flat[offset:offset + fan_out * fan_in]
                                .reshape(fan_out, fan_in))
            offset += fan_out * fan_in
            self.biases.append(self.flat[offset:offset + fan_out])
            offset += fan_out
        if given is not None:
            views = self.weights + self.biases
            shapes = [np.shape(a) for a in given]
            if shapes != [view.shape for view in views]:
                raise ValueError(f"weight and bias shapes {shapes} do not "
                                 f"match layer sizes {self.layer_sizes}")
            for view, values in zip(views, given):
                view[...] = values

    @property
    def n_layers(self):
        return len(self.layer_sizes) - 1


@dataclass
class AdamState:
    """First/second moment accumulators and the step count.

    `scratch` holds two buffers of the parameter count that adam_step
    writes its temporaries into; they carry no state between steps.
    """

    m: NetworkParams
    v: NetworkParams
    step_count: int = 0
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty(self.m.flat.size), np.empty(self.m.flat.size))


def param_count(layer_sizes):
    return sum(
        fan_out * (fan_in + 1)
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
    )


def init_params(layer_sizes=DEFAULT_LAYER_SIZES, rng=None):
    """He-uniform weight init (bound sqrt(6/fan_in)), zero biases."""
    if rng is None:
        rng = np.random.default_rng()
    layer_sizes = tuple(int(n) for n in layer_sizes)
    if len(layer_sizes) < 2 or any(n < 1 for n in layer_sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    params = NetworkParams(layer_sizes)
    for fan_in, w in zip(layer_sizes[:-1], params.weights):
        bound = np.sqrt(6.0 / fan_in)
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return params


def init_adam_state(params):
    return AdamState(m=NetworkParams(params.layer_sizes),
                     v=NetworkParams(params.layer_sizes))


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
    return _layers(params, np.asarray(observation, dtype=float))


def forward_batch(params, observations):
    """Row-wise Q-values for a batch of observations (B x in -> B x out)."""
    return _layers(params, np.asarray(observations, dtype=float))


def backward(params, batch_obs, actions, targets, kappa=1.0, grads=None):
    """Gradients of mean pseudo-Huber TD loss over a batch.

    Loss = (1/B) * sum_i huber(Q(s_i, a_i) - target_i, kappa). Only the
    selected action's output unit receives loss signal per sample. Returns
    (gradients, mean_loss), the gradients as NetworkParams. They are written
    into `grads` when it is given (a workspace of the same layer sizes,
    reused across steps) and into a fresh buffer otherwise. Inputs are not
    checked: a non-finite target gives a non-finite loss and gradients.
    """
    x = np.asarray(batch_obs, dtype=float)
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=float)
    batch = x.shape[0]

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
        grads = NetworkParams(params.layer_sizes)
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
    allocates nothing the size of the parameters. On every
    ADAM_FLUSH_PERIOD-th step, moment entries below the smallest normal
    double are then set to 0.0 (see the module docstring).

    Returns (params, state) for convenience. Gradients are not checked;
    Agent.train_step skips the call when the loss is not finite.
    """
    theta, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    a, b = state.scratch
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
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
    b += ADAM_EPS
    a /= b
    theta -= a
    if t % ADAM_FLUSH_PERIOD == 0:
        for moment in (m, v):
            np.abs(moment, out=a)
            moment[a < _TINY] = 0.0
    return params, state


def clone_params(params):
    """Deep, independent copy."""
    return NetworkParams(params.layer_sizes, flat=params.flat.copy())


def save_network(params, path):
    """Binary checkpoint: magic "RQNET1", u32 LE layer count, u32 LE layer
    sizes, then per layer the weight matrix (row-major) and bias vector as
    little-endian float64, which is the order of the flat buffer."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        sizes = params.layer_sizes
        fh.write(struct.pack(f"<{len(sizes) + 1}I", len(sizes), *sizes))
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


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
    return NetworkParams(layer_sizes, flat=flat)
