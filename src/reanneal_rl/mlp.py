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

from dataclasses import dataclass, field

import numpy as np


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
    The views share `flat` when it is given; otherwise all are zero.
    """

    layer_sizes: tuple
    flat: np.ndarray = field(default=None, repr=False)
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.zeros(param_count(self.layer_sizes))
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.weights.append(self.flat[offset:offset + fan_out * fan_in]
                                .reshape(fan_out, fan_in))
            offset += fan_out * fan_in
            self.biases.append(self.flat[offset:offset + fan_out])
            offset += fan_out


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


def init_params(layer_sizes, rng):
    """He-uniform weight init (bound sqrt(6/fan_in)), zero biases."""
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


def _layers(params, x, acts=None, start=0):
    """The layer loop shared by forward, backward and index_table. It runs
    layers `start`, start + 1, ... on x, the float64 input of layer `start`.

    Works on a 1-D input, a batch of rows (`x @ w.T` is the same gemv as
    `w @ x` for a 1-D x) or a stack of batches. Each layer's bias is added
    and its ReLU applied in place. With `acts`, the input and then the
    post-activation output of every layer are appended to it.
    """
    if acts is not None:
        acts.append(x)
    last = len(params.weights) - 1
    for l in range(start, last + 1):
        x = x @ params.weights[l].T
        x += params.biases[l]
        if l < last:
            np.maximum(x, 0.0, out=x)
        if acts is not None:
            acts.append(x)
    return x


def forward(params, observations):
    """Q-values for one observation (1-D in, 1-D out) or row-wise for a
    batch of observations (B x in -> B x out)."""
    return _layers(params, observations)


forward_batch = forward  # the name perfbench/ still times and traces


def index_table(params, batch_size):
    """Every layer's output for every input index: one array per layer,
    Q-values last, whose row i is that layer's output for the one-hot row
    with a 1.0 at i. The first layer reads column i of its weights, w.T[i],
    which is that row's product bit for bit: every other term is a zero.

    A matmul's rows depend on its row count, so the rows run in blocks of
    exactly `batch_size` (zero rows pad the last): at batch sizes 32, 64 and
    100 each row is forward's row for its index bit for bit, wherever
    the index sits in the batch (README, "The HoverTrap experiment")."""
    size = params.layer_sizes[0]
    blocks = -(-size // batch_size)
    w, b = params.weights[0], params.biases[0]
    first = np.zeros((blocks * batch_size, b.size))
    np.add(w.T, b, out=first[:size])
    if len(params.weights) > 1:
        np.maximum(first, 0.0, out=first)
    acts = []
    _layers(params, first.reshape(blocks, batch_size, -1), acts, start=1)
    return [a.reshape(blocks * batch_size, -1)[:size] for a in acts]


def backward(params, batch_obs, actions, targets, kappa=1.0, grads=None):
    """Gradients of mean pseudo-Huber TD loss over a batch: the forward pass,
    then gradients() over its activations. Returns (gradients, mean_loss)
    as gradients() does."""
    acts = []
    _layers(params, batch_obs, acts)
    return gradients(params, acts, actions, targets, kappa, grads)


def gradients(params, acts, actions, targets, kappa=1.0, grads=None):
    """Gradients of mean pseudo-Huber TD loss over a batch, from the batch's
    activations `acts` as _layers records them: the input rows, then each
    layer's output, Q-values last.

    Loss = (1/B) * sum_i huber(Q(s_i, a_i) - target_i, kappa). Only the
    selected action's output unit receives loss signal per sample. Returns
    (gradients, mean_loss), the gradients as NetworkParams. They are written
    into `grads` when it is given (a workspace of the same layer sizes,
    reused across steps) and into a fresh buffer otherwise. Inputs are not
    checked: a non-finite target gives a non-finite loss and gradients.
    """
    q = acts[-1]
    batch = q.shape[0]
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
    for l in range(len(params.weights) - 1, -1, -1):
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

    Updates params.flat and state in place and returns None. Gradients are
    not checked; Agent.train_step skips the call when the loss is not
    finite.
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


def clone_params(params):
    """Deep, independent copy."""
    return NetworkParams(params.layer_sizes, flat=params.flat.copy())
