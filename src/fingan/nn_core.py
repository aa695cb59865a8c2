"""Minimal feedforward network engine: manual backprop plus Adam.

Shared by the GAN generators/discriminators and the MLP classifier. A layer
is a dense affine map followed by an elementwise (or row-wise, for softmax)
activation. A layer's activation may instead be a sequence of (activation,
width) segments, applied in order to consecutive runs of its columns; the
generator's output layer has one per output block. Gradients are
sum-reduced over the batch, so loss functions that want a mean should scale
their output gradient by 1/batch. A batch may also be a stack of s batches,
(s, rows, width): each runs through the same matrix products as it would
alone, and the parameter gradient is the sum of theirs, added in stack order.

A network's parameters are one flat float64 buffer: layer by layer, the
(out, in) weights row-major, then the biases. Gradients and both Adam moments
share that layout, so Adam, clipping and the finiteness check are one call
per network; the per-layer weights and biases are views (see ``unflatten``).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFiniteGradient, NonFiniteInput, ShapeMismatch

RELU = "relu"
LEAKY_RELU = "leaky_relu"
SIGMOID = "sigmoid"
SOFTMAX = "softmax"
TANH = "tanh"
IDENTITY = "identity"

PROB_EPS = 1e-7  # clamp for log() arguments
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and eps


@dataclass(frozen=True)
class Layer:
    width: int
    activation: object  # a name, or a sequence of (name, width) segments
    slope: float = 0.2  # leaky ReLU only
    # (column slice, single-activation Layer) per segment; empty for a name
    segments: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        if not isinstance(self.activation, str):
            # a tuple of tuples: hashable, and equal to a copy read from JSON
            activation = tuple(map(tuple, self.activation))
            segments, start = [], 0
            for name, width in activation:
                segments.append((slice(start, start + width), Layer(width, name, self.slope)))
                start += width
            if start != self.width:
                raise ValueError(f"segment widths {[w for _, w in activation]} do "
                                 f"not sum to the layer width {self.width}")
            object.__setattr__(self, "activation", activation)
            object.__setattr__(self, "segments", tuple(segments))
        if self.activation == LEAKY_RELU and not 0 < self.slope < 1:
            raise ValueError("leaky ReLU slope must lie in (0, 1)")


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    layers: tuple  # of Layer

    @property
    def size(self):
        """Number of parameters: every layer's weights and biases."""
        fan_ins = (self.input_dim,) + tuple(l.width for l in self.layers[:-1])
        return sum((fan_in + 1) * l.width for fan_in, l in zip(fan_ins, self.layers))

    @cached_property
    def offsets(self):
        """Per layer, (start, end, shape) of its weights in the flat buffer;
        its biases follow at end:end + shape[0]."""
        offsets, start, fan_in = [], 0, self.input_dim
        for layer in self.layers:
            end = start + layer.width * fan_in
            offsets.append((start, end, (layer.width, fan_in)))
            start, fan_in = end + layer.width, layer.width
        return tuple(offsets)


def unflatten(spec, flat):
    """Per-layer (out, in) weight views and (out,) bias views into flat."""
    weights, biases = [], []
    for start, end, shape in spec.offsets:
        weights.append(flat[start:end].reshape(shape))
        biases.append(flat[end:end + shape[0]])
    return weights, biases


@dataclass
class NetworkState:
    spec: NetworkSpec
    params: np.ndarray  # flat, spec.size values; see unflatten
    m: np.ndarray  # Adam first moment, same layout
    v: np.ndarray  # Adam second moment, same layout
    step: int = 0
    weights: list = field(init=False, repr=False, compare=False)  # views into params
    biases: list = field(init=False, repr=False, compare=False)
    scratch: np.ndarray = field(init=False, repr=False, compare=False)  # adam_step's

    def __post_init__(self):
        if self.params.shape != (self.spec.size,):
            raise ShapeMismatch(f"{self.params.shape} parameters, expected ({self.spec.size},)")
        self.weights, self.biases = unflatten(self.spec, self.params)
        self.scratch = np.empty((2, self.spec.size))


def glorot_uniform(rng, fan_in, fan_out):
    """A (fan_out, fan_in) weight matrix drawn from the Glorot-uniform range."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_network(spec, seed):
    """Glorot-uniform weights, zero biases and Adam moments."""
    rng = np.random.default_rng(seed)
    state = NetworkState(spec, np.zeros(spec.size), np.zeros(spec.size), np.zeros(spec.size))
    for W in state.weights:
        W[...] = glorot_uniform(rng, W.shape[1], W.shape[0])
    return state


def sigmoid(z):
    """Logistic function: 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z))
    below, so exp never overflows."""
    e = np.exp(-np.abs(z))
    pos = z >= 0
    return (pos + ~pos * e) / (1 + e)


def _activate(z, layer):
    """The layer's activation of z. ReLU, leaky ReLU, tanh, identity and
    segmented layers write it over z, which the caller owns."""
    if layer.segments:
        for sl, part in layer.segments:
            z[..., sl] = _activate(z[..., sl], part)
        return z
    if layer.activation == RELU:
        return np.maximum(z, 0.0, out=z)
    if layer.activation == LEAKY_RELU:
        return np.maximum(z, layer.slope * z, out=z)
    if layer.activation == SIGMOID:
        return sigmoid(z)
    if layer.activation == TANH:
        return np.tanh(z, out=z)
    if layer.activation == SOFTMAX:
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)
    if layer.activation == IDENTITY:
        return z
    raise ValueError(f"unknown activation {layer.activation!r}")


def _activation_grad(a, upstream, layer):
    """Gradient w.r.t. pre-activation, from the activation output a."""
    if layer.segments:
        out = np.empty_like(a)
        for sl, part in layer.segments:
            out[..., sl] = _activation_grad(a[..., sl], upstream[..., sl], part)
        return out
    if layer.activation == RELU:
        return upstream * (a > 0)
    if layer.activation == LEAKY_RELU:
        return upstream * ((a > 0) * (1 - layer.slope) + layer.slope)
    if layer.activation == SIGMOID:
        return upstream * a * (1.0 - a)
    if layer.activation == TANH:
        return upstream * (1.0 - a * a)
    if layer.activation == SOFTMAX:
        inner = (upstream * a).sum(axis=-1, keepdims=True)
        return a * (upstream - inner)
    if layer.activation == IDENTITY:
        return upstream
    raise ValueError(f"unknown activation {layer.activation!r}")


def forward(state, batch):
    """Run the network on a batch or a stack of batches; returns all layer
    activations (input first)."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    if batch.shape[-1] != state.spec.input_dim:
        raise ShapeMismatch(
            f"batch width {batch.shape[-1]} != input_dim {state.spec.input_dim}")
    if not np.all(np.isfinite(batch)):
        raise NonFiniteInput("batch contains NaN or Inf")
    activations = [batch]
    a = batch
    for layer, W, b in zip(state.spec.layers, state.weights, state.biases):
        z = np.matmul(a, W.T)
        z += b
        a = _activate(z, layer)
        activations.append(a)
    return activations


def backward(state, activations, loss_grad_at_output, input_grad=True):
    """Backprop; returns (flat parameter gradient, grad w.r.t. input).

    The parameter gradient has the layout of state.params and is summed over
    the batch. For a stack of batches, each batch's weight and bias gradients
    are summed on their own and then added in stack order, as the gradients
    of separate calls would be. With input_grad False the input gradient,
    one more product with the first layer's weights, is skipped and
    returned as None.
    """
    grad = np.atleast_2d(np.asarray(loss_grad_at_output, dtype=float))
    if grad.shape != activations[-1].shape:
        raise ShapeMismatch("output gradient shape differs from output activation")
    flat = np.empty(state.params.size)
    spec = state.spec
    for i in range(len(spec.layers) - 1, -1, -1):
        start, end, shape = spec.offsets[i]
        dz = _activation_grad(activations[i + 1], grad, spec.layers[i])
        w_grad, b_grad = flat[start:end].reshape(shape), flat[end:end + shape[0]]
        batches = dz.reshape((-1,) + dz.shape[-2:])
        inputs = activations[i].reshape((-1,) + activations[i].shape[-2:])
        np.matmul(batches[0].T, inputs[0], out=w_grad)
        batches[0].sum(axis=0, out=b_grad)
        for d, a in zip(batches[1:], inputs[1:]):
            w_grad += d.T @ a
            b_grad += d.sum(axis=0)
        grad = dz @ state.weights[i] if i or input_grad else None
    return flat, grad


def adam_step(state, grad, learning_rate):
    """In-place Adam update with bias correction; returns the state.

    The step is learning_rate * m_hat / (sqrt(v_hat) + eps), evaluated in
    that order in the state's scratch rows, so nothing is allocated.
    """
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step, denom = state.scratch
    state.m *= b1
    state.m += np.multiply(grad, 1 - b1, out=step)
    state.v *= b2
    np.multiply(grad, 1 - b2, out=step)
    state.v += np.multiply(step, grad, out=step)
    np.divide(state.m, 1 - b1 ** t, out=step)
    step *= learning_rate
    np.divide(state.v, 1 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    state.params -= step
    return state


def bce_loss(predictions, targets):
    """Mean binary cross-entropy and its gradient w.r.t. the predictions."""
    raw = np.asarray(predictions, dtype=float)
    p = np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)
    t = np.asarray(targets, dtype=float)
    n = p.size
    loss = -np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    grad = (p - t) / (p * (1.0 - p)) / n
    # the clamp has zero derivative where it is active
    grad = np.where((raw > PROB_EPS) & (raw < 1.0 - PROB_EPS), grad, 0.0)
    return float(loss), grad


def clip_weights(state, bound):
    """Clamp every weight and bias into [-bound, bound] (WGAN critic)."""
    np.clip(state.params, -bound, bound, out=state.params)
    return state


def assert_finite(state):
    if not np.all(np.isfinite(state.params)):
        raise NonFiniteGradient("network state contains NaN or Inf")


def state_to_dict(state):
    """Versioned JSON-ready dict; weights flat row-major with shapes."""
    return {
        "format": "fingan-network-v1",
        "input_dim": state.spec.input_dim,
        "layers": [
            {"width": l.width, "activation": l.activation, "slope": l.slope}
            for l in state.spec.layers
        ],
        "weights": [
            {"shape": list(w.shape), "data": w.ravel().tolist()} for w in state.weights
        ],
        "biases": [b.tolist() for b in state.biases],
        "step": state.step,
    }


def state_from_dict(d):
    if d.get("format") != "fingan-network-v1":
        raise ValueError(f"unknown network format {d.get('format')!r}")
    spec = NetworkSpec(
        d["input_dim"],
        tuple(Layer(l["width"], l["activation"], l.get("slope", 0.2)) for l in d["layers"]),
    )
    n_layers = len(spec.layers)
    if len(d["weights"]) != n_layers or len(d["biases"]) != n_layers:
        raise ShapeMismatch(
            f"{len(d['weights'])} weights and {len(d['biases'])} biases "
            f"for {n_layers} layers")
    fan_in = spec.input_dim
    for i, (layer, w, b) in enumerate(zip(spec.layers, d["weights"], d["biases"])):
        shape = (layer.width, fan_in)
        if tuple(w["shape"]) != shape or len(w["data"]) != layer.width * fan_in:
            raise ShapeMismatch(
                f"layer {i}: weight shape {w['shape']} with {len(w['data'])} "
                f"values, expected {list(shape)}")
        if len(b) != layer.width:
            raise ShapeMismatch(f"layer {i}: {len(b)} biases, expected {layer.width}")
        fan_in = layer.width
    params = np.concatenate([np.asarray(part, dtype=float)
                             for w, b in zip(d["weights"], d["biases"])
                             for part in (w["data"], b)])
    return NetworkState(spec, params, np.zeros_like(params), np.zeros_like(params),
                        d.get("step", 0))
