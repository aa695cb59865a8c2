import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingan import nn_core
from fingan.errors import NonFiniteGradient, NonFiniteInput, ShapeMismatch
from fingan.nn_core import (
    Layer,
    NetworkSpec,
    adam_step,
    backward,
    bce_loss,
    clip_weights,
    forward,
    init_network,
    state_from_dict,
    state_to_dict,
    unflatten,
)

SEGMENTS = ((nn_core.SOFTMAX, 2), (nn_core.TANH, 1), (nn_core.SOFTMAX, 3),
            (nn_core.SIGMOID, 1))
ALL_ACTIVATIONS = [
    Layer(4, nn_core.RELU),
    Layer(4, nn_core.LEAKY_RELU, 0.2),
    Layer(4, nn_core.SIGMOID),
    Layer(4, nn_core.TANH),
    Layer(4, nn_core.SOFTMAX),
    Layer(4, nn_core.IDENTITY),
    Layer(7, SEGMENTS),
]


def activation_id(layer):
    return layer.activation if isinstance(layer.activation, str) else "segmented"


def numeric_gradients(state, batch, upstream, h=1e-6):
    """Central finite differences of sum(output * upstream) w.r.t. the flat
    parameters."""
    def objective():
        return float((forward(state, batch)[-1] * upstream).sum())

    p = state.params
    g = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        plus = objective()
        p[i] = orig - h
        minus = objective()
        p[i] = orig
        g[i] = (plus - minus) / (2 * h)
    return g


class TestInit:
    def test_deterministic(self):
        spec = NetworkSpec(3, (Layer(5, nn_core.RELU), Layer(2, nn_core.SIGMOID)))
        s1 = init_network(spec, seed=42)
        s2 = init_network(spec, seed=42)
        for w1, w2 in zip(s1.weights, s2.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_shapes(self):
        spec = NetworkSpec(32, (Layer(128, nn_core.LEAKY_RELU),))
        s = init_network(spec, seed=0)
        assert s.weights[0].shape == (128, 32)
        assert s.biases[0].shape == (128,)
        assert s.biases[0].sum() == 0.0

    def test_buffer_size_checked(self):
        spec = NetworkSpec(3, (Layer(5, nn_core.RELU), Layer(2, nn_core.SIGMOID)))
        assert spec.size == 3 * 5 + 5 + 5 * 2 + 2
        for size in (spec.size - 1, spec.size + 1):
            with pytest.raises(ShapeMismatch):
                nn_core.NetworkState(spec, np.zeros(size), np.zeros(size), np.zeros(size))

    def test_weight_mean_small(self):
        spec = NetworkSpec(128, (Layer(128, nn_core.RELU),))
        s = init_network(spec, seed=3)
        assert abs(s.weights[0].mean()) < 0.02


class TestForward:
    def test_zero_weights_sigmoid(self):
        spec = NetworkSpec(3, (Layer(2, nn_core.SIGMOID),))
        s = init_network(spec, seed=0)
        s.weights[0][:] = 0.0
        out = forward(s, np.ones((4, 3)))[-1]
        np.testing.assert_array_equal(out, np.full((4, 2), 0.5))

    def test_softmax_uniform(self):
        spec = NetworkSpec(3, (Layer(3, nn_core.SOFTMAX),))
        s = init_network(spec, seed=0)
        s.weights[0][:] = 0.0
        out = forward(s, np.zeros((1, 3)))[-1]
        np.testing.assert_allclose(out, np.full((1, 3), 1 / 3))

    def test_softmax_rows_sum_to_one(self):
        spec = NetworkSpec(5, (Layer(6, nn_core.SOFTMAX),))
        s = init_network(spec, seed=1)
        out = forward(s, np.random.default_rng(0).normal(size=(10, 5)))[-1]
        np.testing.assert_allclose(out.sum(axis=1), np.ones(10), atol=1e-9)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_leaky_relu_definition(self):
        spec = NetworkSpec(1, (Layer(1, nn_core.LEAKY_RELU, 0.2),))
        s = init_network(spec, seed=0)
        s.weights[0][:] = 1.0
        out = forward(s, np.array([[-1.0]]))[-1]
        assert out[0, 0] == pytest.approx(-0.2)

    def test_segments_activate_their_own_columns(self):
        s = init_network(NetworkSpec(3, (Layer(7, SEGMENTS),)), seed=2)
        batch = np.random.default_rng(3).normal(size=(5, 3))
        z = batch @ s.weights[0].T + s.biases[0]
        out = forward(s, batch)[-1]
        np.testing.assert_allclose(out[:, :2].sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out[:, 2], np.tanh(z[:, 2]))
        np.testing.assert_allclose(out[:, 3:6].sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out[:, 6], nn_core.sigmoid(z[:, 6]))

    @pytest.mark.parametrize("segments", [
        ((nn_core.SOFTMAX, 2), (nn_core.TANH, 1)),  # sums to 3
        ((nn_core.SOFTMAX, 5), (nn_core.TANH, 1)),  # sums to 6
        ((nn_core.SOFTMAX, 4), (nn_core.TANH, 0)),  # an empty segment
    ], ids=["short", "long", "empty"])
    def test_segment_widths_must_sum_to_width(self, segments):
        with pytest.raises(ValueError):
            Layer(4, segments)

    def test_shape_and_finite_errors(self):
        spec = NetworkSpec(3, (Layer(2, nn_core.RELU),))
        s = init_network(spec, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(s, np.ones((2, 4)))
        with pytest.raises(NonFiniteInput):
            forward(s, np.array([[1.0, np.nan, 0.0]]))


class TestBackward:
    @pytest.mark.parametrize("hidden", ALL_ACTIVATIONS, ids=activation_id)
    def test_gradcheck_each_activation(self, hidden):
        spec = NetworkSpec(3, (hidden, Layer(2, nn_core.IDENTITY)))
        s = init_network(spec, seed=7)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(5, 3))
        upstream = rng.normal(size=(5, 2))
        acts = forward(s, batch)
        grad, _ = backward(s, acts, upstream)
        np.testing.assert_allclose(grad, numeric_gradients(s, batch, upstream),
                                   rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck_random_topologies(self, seed):
        rng = np.random.default_rng(seed)
        acts_pool = [nn_core.RELU, nn_core.LEAKY_RELU, nn_core.SIGMOID, nn_core.TANH]
        layers = tuple(
            Layer(int(rng.integers(2, 6)), acts_pool[rng.integers(len(acts_pool))])
            for _ in range(3)
        )
        spec = NetworkSpec(4, layers)
        s = init_network(spec, seed=seed + 10)
        batch = rng.normal(size=(4, 4))
        upstream = rng.normal(size=(4, layers[-1].width))
        acts = forward(s, batch)
        grad, _ = backward(s, acts, upstream)
        np.testing.assert_allclose(grad, numeric_gradients(s, batch, upstream),
                                   rtol=1e-4, atol=1e-6)

    def test_input_gradient_matches_fd(self):
        spec = NetworkSpec(3, (Layer(4, nn_core.TANH), Layer(2, nn_core.SIGMOID)))
        s = init_network(spec, seed=2)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(2, 3))
        upstream = rng.normal(size=(2, 2))
        acts = forward(s, batch)
        _, gin = backward(s, acts, upstream)
        h = 1e-6
        for i in np.ndindex(batch.shape):
            b2 = batch.copy()
            b2[i] += h
            plus = float((forward(s, b2)[-1] * upstream).sum())
            b2[i] -= 2 * h
            minus = float((forward(s, b2)[-1] * upstream).sum())
            assert gin[i] == pytest.approx((plus - minus) / (2 * h), rel=1e-4, abs=1e-6)

    def test_zero_upstream(self):
        spec = NetworkSpec(3, (Layer(4, nn_core.RELU), Layer(1, nn_core.SIGMOID)))
        s = init_network(spec, seed=0)
        acts = forward(s, np.ones((3, 3)))
        grad, gin = backward(s, acts, np.zeros((3, 1)))
        assert np.all(grad == 0)
        assert np.all(gin == 0)

    def test_duplicated_rows_double_gradient(self):
        spec = NetworkSpec(2, (Layer(3, nn_core.TANH), Layer(1, nn_core.IDENTITY)))
        s = init_network(spec, seed=4)
        batch = np.array([[0.3, -1.2], [0.8, 0.1]])
        up = np.ones((2, 1))
        acts = forward(s, batch)
        grad1, _ = backward(s, acts, up)
        doubled = np.vstack([batch, batch])
        acts2 = forward(s, doubled)
        grad2, _ = backward(s, acts2, np.ones((4, 1)))
        np.testing.assert_allclose(2 * grad1, grad2, rtol=1e-12)


class TestAdam:
    def test_first_step_scalar(self):
        spec = NetworkSpec(1, (Layer(1, nn_core.IDENTITY),))
        s = init_network(spec, seed=0)
        w0 = s.weights[0].copy()
        adam_step(s, np.array([1.0, 0.0]), 0.01)
        delta = s.weights[0][0, 0] - w0[0, 0]
        # first step: m_hat = g, v_hat = g^2 -> delta = -lr * g/(|g| + eps)
        assert delta == pytest.approx(-0.01, rel=1e-6)

    def test_zero_gradient_no_move(self):
        spec = NetworkSpec(2, (Layer(2, nn_core.RELU),))
        s = init_network(spec, seed=1)
        w0 = [w.copy() for w in s.weights]
        adam_step(s, np.zeros(6), 0.001)
        for a, b in zip(w0, s.weights):
            np.testing.assert_array_equal(a, b)
        assert s.step == 1

    def test_deterministic(self):
        spec = NetworkSpec(2, (Layer(2, nn_core.SIGMOID),))
        g = np.random.default_rng(0).normal(size=(2, 2))
        s1 = init_network(spec, seed=3)
        s2 = init_network(spec, seed=3)
        for s in (s1, s2):
            adam_step(s, np.concatenate([g.ravel(), np.ones(2)]), 0.001)
        np.testing.assert_array_equal(s1.weights[0], s2.weights[0])

    def test_nonfinite_rejected(self):
        spec = NetworkSpec(1, (Layer(1, nn_core.IDENTITY),))
        s = init_network(spec, seed=0)
        with pytest.raises(NonFiniteGradient):
            adam_step(s, np.array([np.nan, 0.0]), 0.001)


def list_adam_step(params, moments, grads, t, learning_rate):
    """The per-layer Adam update nn_core made before its flat buffers: params,
    grads and each of the two moments are lists of arrays updated in place."""
    b1, b2 = nn_core.ADAM_BETA1, nn_core.ADAM_BETA2
    for p, g, m, v in zip(params, grads, *moments):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + nn_core.ADAM_EPS)


@pytest.mark.parametrize("clip", [None, 0.05])
def test_flat_adam_matches_per_layer_update(clip):
    spec = NetworkSpec(5, (Layer(4, nn_core.LEAKY_RELU), Layer(7, SEGMENTS)))
    s = init_network(spec, seed=6)
    params = [a.copy() for a in s.weights + s.biases]
    moments = ([np.zeros_like(a) for a in params], [np.zeros_like(a) for a in params])
    rng = np.random.default_rng(0)
    for t in range(1, 6):
        grads = [rng.normal(size=a.shape) for a in params]
        n_layers = len(spec.layers)
        flat = np.concatenate([part.ravel() for i in range(n_layers)
                               for part in (grads[i], grads[n_layers + i])])
        adam_step(s, flat, 0.01)
        list_adam_step(params, moments, grads, t, 0.01)
        if clip is not None:
            clip_weights(s, clip)
            for a in params:
                np.clip(a, -clip, clip, out=a)
        for got, want in zip(s.weights + s.biases, params, strict=True):
            np.testing.assert_array_equal(got, want)
    assert s.step == 5



# --- The branch-free and in-place forms against the ones they replaced -------

def sign_split_sigmoid(z):
    """The sigmoid nn_core computed before its branch-free form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def allocating_adam_step(state, grad, learning_rate):
    """The adam_step nn_core made before it updated in its scratch rows."""
    state.step += 1
    t = state.step
    b1, b2 = nn_core.ADAM_BETA1, nn_core.ADAM_BETA2
    state.m *= b1
    state.m += (1 - b1) * grad
    state.v *= b2
    state.v += (1 - b2) * grad * grad
    m_hat = state.m / (1 - b1 ** t)
    v_hat = state.v / (1 - b2 ** t)
    state.params -= learning_rate * m_hat / (np.sqrt(v_hat) + nn_core.ADAM_EPS)


def signed_inputs(rng, shape=(64, 32)):
    """Random signs and magnitudes, with +0.0, -0.0 and overflowing exp
    arguments in the first row."""
    z = rng.normal(scale=5.0, size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    z[0, :6] = [0.0, -0.0, 0.0, -0.0, 800.0, -800.0]
    return z


def assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_sigmoid_matches_sign_split_form():
    z = signed_inputs(np.random.default_rng(0), (1000, 7))
    assert_bitwise_equal(nn_core.sigmoid(z), sign_split_sigmoid(z))
    assert_bitwise_equal(nn_core.sigmoid(z[:, 0]), sign_split_sigmoid(z[:, 0]))


@pytest.mark.parametrize("slope", [0.01, 0.2, 0.5, np.nextafter(1.0, 0.0)])
def test_leaky_relu_matches_where_form(slope):
    rng = np.random.default_rng(1)
    layer = Layer(32, nn_core.LEAKY_RELU, slope)
    z = signed_inputs(rng)
    a = nn_core._activate(z, layer)
    assert_bitwise_equal(a, np.where(z > 0, z, slope * z))
    upstream = signed_inputs(rng)[::-1]
    assert_bitwise_equal(nn_core._activation_grad(a, upstream, layer),
                         upstream * np.where(a > 0, 1.0, slope))


def test_adam_matches_allocating_form():
    spec = NetworkSpec(6, (Layer(9, nn_core.LEAKY_RELU), Layer(1, nn_core.IDENTITY)))
    got, want = init_network(spec, seed=7), init_network(spec, seed=7)
    rng = np.random.default_rng(2)
    for _ in range(8):
        grad = rng.normal(size=spec.size) * 10.0 ** rng.integers(-12, 4, size=spec.size)
        grad[::7], grad[1::7] = 0.0, -0.0
        adam_step(got, grad, 0.01)
        allocating_adam_step(want, grad, 0.01)
        for name in ("params", "m", "v"):
            assert_bitwise_equal(getattr(got, name), getattr(want, name))
    assert got.step == want.step == 8


def test_stacked_batches_run_as_separate_batches():
    spec = NetworkSpec(5, (Layer(16, nn_core.LEAKY_RELU), Layer(8, nn_core.RELU),
                           Layer(7, SEGMENTS)))
    s = init_network(spec, seed=8)
    rng = np.random.default_rng(3)
    batches = rng.normal(size=(3, 37, 5))
    upstream = rng.normal(size=(3, 37, 7))
    acts = forward(s, batches)
    grad, grad_in = backward(s, acts, upstream)
    want = np.zeros(spec.size)
    for i in range(3):
        alone = forward(s, batches[i])
        for layer, part in zip(acts, alone, strict=True):
            np.testing.assert_array_equal(layer[i], part)
        part_grad, part_in = backward(s, alone, upstream[i])
        want += part_grad
        np.testing.assert_array_equal(grad_in[i], part_in)
    np.testing.assert_array_equal(grad, want)

ACTIVATION_NAMES = [nn_core.RELU, nn_core.LEAKY_RELU, nn_core.SIGMOID,
                    nn_core.TANH, nn_core.SOFTMAX, nn_core.IDENTITY]
plain_layers = st.builds(Layer, st.integers(1, 6), st.sampled_from(ACTIVATION_NAMES))
segmented_layers = st.lists(
    st.tuples(st.sampled_from(ACTIVATION_NAMES), st.integers(1, 4)), min_size=1,
    max_size=4).map(lambda segs: Layer(sum(w for _, w in segs), tuple(segs)))
specs = st.builds(
    lambda input_dim, hidden, output: NetworkSpec(input_dim, tuple(hidden) + (output,)),
    st.integers(1, 6), st.lists(plain_layers, max_size=3),
    st.one_of(plain_layers, segmented_layers))


@settings(max_examples=60, deadline=None)
@given(specs)
def test_views_tile_the_flat_buffer(spec):
    s = init_network(spec, seed=0)
    s.params[:] = np.arange(spec.size)
    # layer by layer, weights row-major then biases, every value once
    tiled = np.concatenate([part.ravel() for W, b in zip(s.weights, s.biases)
                            for part in (W, b)])
    np.testing.assert_array_equal(tiled, np.arange(spec.size))
    fan_in = spec.input_dim
    for layer, W, b in zip(spec.layers, s.weights, s.biases):
        assert W.shape == (layer.width, fan_in) and b.shape == (layer.width,)
        fan_in = layer.width
    for view in s.weights + s.biases:
        view[...] = -1.0
    assert np.all(s.params == -1.0)
    weights, biases = unflatten(spec, s.m)
    assert all(np.shares_memory(a, s.m) for a in weights + biases)


class TestBce:
    def test_half_prob(self):
        loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2))

    def test_perfect_prediction(self):
        loss, grad = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert loss <= 1e-6  # bounded by the clamp floor
        assert np.all(np.abs(grad) < 1e-4)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.05, 0.95, size=12)
        t = rng.integers(0, 2, size=12).astype(float)
        _, grad = bce_loss(p, t)
        h = 1e-7
        for i in range(len(p)):
            p_plus, p_minus = p.copy(), p.copy()
            p_plus[i] += h
            p_minus[i] -= h
            fd = (bce_loss(p_plus, t)[0] - bce_loss(p_minus, t)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5)


def test_serialization_round_trip():
    spec = NetworkSpec(3, (Layer(4, nn_core.LEAKY_RELU, 0.2), Layer(1, nn_core.SIGMOID)))
    s = init_network(spec, seed=13)
    for _ in range(3):
        adam_step(s, np.random.default_rng(s.step).normal(size=spec.size), 0.001)
    d = json.loads(json.dumps(state_to_dict(s)))
    restored = state_from_dict(d)
    assert restored.spec == spec and restored.step == 3
    np.testing.assert_array_equal(restored.params, s.params)  # bit-exact through JSON
    assert restored.params.dtype == np.float64
    batch = np.random.default_rng(0).normal(size=(2, 3))
    np.testing.assert_array_equal(forward(s, batch)[-1], forward(restored, batch)[-1])


def test_serialization_round_trip_with_segments():
    spec = NetworkSpec(3, (Layer(4, nn_core.RELU), Layer(7, SEGMENTS)))
    s = init_network(spec, seed=13)
    restored = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
    assert restored.spec == spec
    batch = np.random.default_rng(0).normal(size=(2, 3))
    np.testing.assert_array_equal(forward(s, batch)[-1], forward(restored, batch)[-1])


def tamper_biases(d):
    d["biases"][1].append(0.0)


def tamper_weight_data(d):
    d["weights"][0]["data"].pop()


def tamper_weight_shape(d):
    # same element count, transposed shape
    d["weights"][0]["shape"] = d["weights"][0]["shape"][::-1]


def tamper_layer_count(d):
    d["weights"].pop()
    d["biases"].pop()


def tamper_input_dim(d):
    d["input_dim"] += 1


@pytest.mark.parametrize("tamper", [tamper_biases, tamper_weight_data,
                                    tamper_weight_shape, tamper_layer_count,
                                    tamper_input_dim])
def test_loading_checks_shapes(tamper):
    spec = NetworkSpec(3, (Layer(4, nn_core.RELU), Layer(2, nn_core.SOFTMAX)))
    d = state_to_dict(init_network(spec, seed=1))
    tamper(d)
    with pytest.raises(ShapeMismatch):
        state_from_dict(d)
