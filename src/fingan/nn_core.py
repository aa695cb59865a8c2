"""Minimal feedforward network engine: manual backprop plus Adam.

Shared by the GAN generators/discriminators and the MLP classifier. A layer
is a dense affine map followed by an elementwise (or row-wise, for softmax)
activation. A layer's activation may instead be a sequence of (activation,
width) segments, applied in order to consecutive runs of its columns; the
generator's output layer has one per output block. Gradients are
sum-reduced over the batch, so loss functions that want a mean should scale
their output gradient by 1/batch.

A network's parameters are one flat float64 buffer: layer by layer, the
(out, in) weights row-major, then the biases. Gradients and both Adam moments
share that layout, so Adam, clipping and the finiteness check are one call
per network; the per-layer weights and biases are views (see ``unflatten``).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradient, NonFiniteInput, ShapeMismatch

RELU = "relu"
LEAKY_RELU = "leaky_relu"
SIGMOID = "sigmoid"
SOFTMAX = "softmax"
TANH = "tanh"
IDENTITY = "identity"

PROB_EPS = 1e-7  # clamp for log() arguments


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


def unflatten(spec, flat):
    """Per-layer (out, in) weight views and (out,) bias views into flat."""
    weights, biases = [], []
    start, fan_in = 0, spec.input_dim
    for layer in spec.layers:
        end = start + layer.width * fan_in
        weights.append(flat[start:end].reshape(layer.width, fan_in))
        biases.append(flat[end:end + layer.width])
        start, fan_in = end + layer.width, layer.width
    return weights, biases


@dataclass
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass
class NetworkState:
    spec: NetworkSpec
    params: np.ndarray  # flat, spec.size values; see unflatten
    m: np.ndarray  # Adam first moment, same layout
    v: np.ndarray  # Adam second moment, same layout
    step: int = 0
    weights: list = field(init=False, repr=False, compare=False)  # views into params
    biases: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.params.shape != (self.spec.size,):
            raise ShapeMismatch(f"{self.params.shape} parameters, expected ({self.spec.size},)")
        self.weights, self.biases = unflatten(self.spec, self.params)


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
    """Logistic function, split by sign so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(z, layer):
    if layer.segments:
        out = np.empty_like(z)
        for sl, part in layer.segments:
            out[:, sl] = _activate(z[:, sl], part)
        return out
    if layer.activation == RELU:
        return np.maximum(z, 0.0)
    if layer.activation == LEAKY_RELU:
        return np.where(z > 0, z, layer.slope * z)
    if layer.activation == SIGMOID:
        return sigmoid(z)
    if layer.activation == TANH:
        return np.tanh(z)
    if layer.activation == SOFTMAX:
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if layer.activation == IDENTITY:
        return z
    raise ValueError(f"unknown activation {layer.activation!r}")


def _activation_grad(a, upstream, layer):
    """Gradient w.r.t. pre-activation, from the activation output a."""
    if layer.segments:
        out = np.empty_like(a)
        for sl, part in layer.segments:
            out[:, sl] = _activation_grad(a[:, sl], upstream[:, sl], part)
        return out
    if layer.activation == RELU:
        return upstream * (a > 0)
    if layer.activation == LEAKY_RELU:
        return upstream * np.where(a > 0, 1.0, layer.slope)
    if layer.activation == SIGMOID:
        return upstream * a * (1.0 - a)
    if layer.activation == TANH:
        return upstream * (1.0 - a * a)
    if layer.activation == SOFTMAX:
        inner = (upstream * a).sum(axis=1, keepdims=True)
        return a * (upstream - inner)
    if layer.activation == IDENTITY:
        return upstream
    raise ValueError(f"unknown activation {layer.activation!r}")


def forward(state, batch):
    """Run the network; returns all layer activations (input first)."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    if batch.shape[1] != state.spec.input_dim:
        raise ShapeMismatch(
            f"batch width {batch.shape[1]} != input_dim {state.spec.input_dim}")
    if not np.all(np.isfinite(batch)):
        raise NonFiniteInput("batch contains NaN or Inf")
    activations = [batch]
    a = batch
    for layer, W, b in zip(state.spec.layers, state.weights, state.biases):
        z = a @ W.T + b
        a = _activate(z, layer)
        activations.append(a)
    return activations


def backward(state, activations, loss_grad_at_output):
    """Backprop; returns (flat parameter gradient, grad w.r.t. input).

    The parameter gradient has the layout of state.params and is summed over
    the batch.
    """
    grad = np.atleast_2d(np.asarray(loss_grad_at_output, dtype=float))
    if grad.shape != activations[-1].shape:
        raise ShapeMismatch("output gradient shape differs from output activation")
    flat = np.empty(state.params.size)
    grad_w, grad_b = unflatten(state.spec, flat)
    for i in range(len(grad_w) - 1, -1, -1):
        dz = _activation_grad(activations[i + 1], grad, state.spec.layers[i])
        np.matmul(dz.T, activations[i], out=grad_w[i])
        dz.sum(axis=0, out=grad_b[i])
        grad = dz @ state.weights[i]
    return flat, grad


def adam_step(state, grad, config):
    """In-place Adam update with bias correction; returns the state."""
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    state.m *= b1
    state.m += (1 - b1) * grad
    state.v *= b2
    state.v += (1 - b2) * grad * grad
    m_hat = state.m / (1 - b1 ** t)
    v_hat = state.v / (1 - b2 ** t)
    state.params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
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
