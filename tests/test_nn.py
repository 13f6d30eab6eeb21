"""Tests of the numpy neural-network substrate, including gradient checks."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn import (
    Adam,
    Embedding,
    GRU,
    Linear,
    LSTM,
    SGD,
    binary_cross_entropy,
    clip_gradients,
    cosine_similarity,
    cross_entropy_from_logits,
    log_softmax,
    one_hot,
    sigmoid,
    softmax,
)
from repro.nn.module import Module, Parameter


# ----------------------------------------------------------------- functional
def test_sigmoid_and_tanh_ranges():
    x = np.linspace(-50, 50, 101)
    s = sigmoid(x)
    assert np.all((s >= 0) & (s <= 1))
    assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


def _masked_sigmoid(x):
    """The boolean-mask sigmoid ``repro.nn.sigmoid`` must match bit for bit."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out


def _assert_bit_identical(result, expected):
    assert isinstance(result, np.ndarray)
    assert result.shape == expected.shape and result.dtype == np.float64
    assert np.array_equal(np.ascontiguousarray(result).view(np.int64),
                          np.ascontiguousarray(expected).view(np.int64))


def test_sigmoid_is_bit_identical_to_the_masked_form():
    rng = np.random.default_rng(7)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000123, 0xFFF8000000000456,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    special = np.concatenate([
        [745.0, -745.0, 746.0, -746.0, 709.8, -709.8, 36.7, -36.7,
         np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
         np.finfo(np.float64).max, -np.finfo(np.float64).max],
        nans])
    values = np.concatenate([rng.normal(0.0, 5.0, 4000),
                             rng.normal(0.0, 400.0, 500), special])
    rng.shuffle(values)
    grid = values[:64 * 70].reshape(64, 70)
    cases = [values, grid, grid.T, grid[:, 3:40], grid[::3, ::2],
             values[::7], values[5:6]]
    cases += [np.array(value) for value in special]  # 0-d
    cases += [rng.normal(0.0, 3.0, n) for n in range(1, 40)]
    for x in cases:
        _assert_bit_identical(sigmoid(x), _masked_sigmoid(x))


def test_lstm_cell_packed_activation_is_bit_identical_per_gate():
    from repro.nn.recurrent import LSTMCell
    rng = np.random.default_rng(3)
    cell = LSTMCell(5, 7, rng)
    h_dim = 7
    projections = rng.normal(0.0, 4.0, (9, 4 * h_dim))
    h_prev = rng.normal(size=(9, h_dim))
    c_prev = rng.normal(size=(9, h_dim))
    gates = projections + h_prev @ cell.weight_hidden.value + cell.bias.value
    input_gate = _masked_sigmoid(gates[:, :h_dim])
    forget_gate = _masked_sigmoid(gates[:, h_dim:2 * h_dim])
    cell_candidate = np.tanh(gates[:, 2 * h_dim:3 * h_dim])
    output_gate = _masked_sigmoid(gates[:, 3 * h_dim:])
    c_expected = forget_gate * c_prev + input_gate * cell_candidate
    h_expected = output_gate * np.tanh(c_expected)
    h, c = cell.forward_batch(projections, h_prev, c_prev)
    _assert_bit_identical(h, h_expected)
    _assert_bit_identical(c, c_expected)
    # The cached training step and the sequential step agree bit for bit.
    x = rng.normal(size=(9, 5))
    h_cached, c_cached, cache = cell.forward_batch_cached(x, h_prev, c_prev)
    h_batch, c_batch = cell.forward_batch(cell.project_input(x), h_prev, c_prev)
    _assert_bit_identical(h_cached, h_batch)
    _assert_bit_identical(c_cached, c_batch)
    _assert_bit_identical(cache["input_gate"], _masked_sigmoid(
        x @ cell.weight_input.value + h_prev @ cell.weight_hidden.value
        + cell.bias.value)[:, :h_dim])
    _, _, cache = cell.forward(x[0], h_prev[0], c_prev[0])
    gates = (x[0] @ cell.weight_input.value
             + h_prev[0] @ cell.weight_hidden.value + cell.bias.value)
    _assert_bit_identical(cache["output_gate"],
                          _masked_sigmoid(gates[3 * h_dim:]))


def test_softmax_sums_to_one():
    probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1000.0]]), axis=1)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[1, 2] == pytest.approx(1.0)


def test_log_softmax_matches_softmax():
    logits = np.array([0.3, -2.0, 1.5])
    assert np.allclose(np.exp(log_softmax(logits)), softmax(logits))


def test_one_hot():
    vec = one_hot(2, 4)
    assert vec.tolist() == [0, 0, 1, 0]
    with pytest.raises(ModelError):
        one_hot(5, 4)


def test_cosine_similarity():
    assert cosine_similarity(np.ones(4), np.ones(4)) == pytest.approx(1.0)
    assert cosine_similarity(np.array([1, 0]), np.array([0, 1])) == pytest.approx(0.0)
    assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
    with pytest.raises(ModelError):
        cosine_similarity(np.ones(3), np.ones(4))


def test_cross_entropy_from_logits_values_and_grad():
    logits = np.array([[2.0, 0.0], [0.0, 2.0]])
    loss, grad = cross_entropy_from_logits(logits, [0, 1])
    assert loss == pytest.approx(-np.log(softmax(np.array([2.0, 0.0]))[0]))
    assert grad.shape == logits.shape
    # Gradient pushes probability mass toward the target class.
    assert grad[0, 0] < 0 and grad[0, 1] > 0


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(ModelError):
        cross_entropy_from_logits(np.zeros((2, 2)), [0])
    with pytest.raises(ModelError):
        cross_entropy_from_logits(np.zeros((2, 2)), [0, 5])


def test_binary_cross_entropy():
    assert binary_cross_entropy(np.array([0.9, 0.1]), np.array([1.0, 0.0])) < 0.2
    with pytest.raises(ModelError):
        binary_cross_entropy(np.array([0.5]), np.array([0.5, 0.5]))


# -------------------------------------------------------------------- module
def test_module_collects_parameters_recursively():
    class Child(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(np.zeros((2, 2)), name="w")

    class Parent(Module):
        def __init__(self):
            super().__init__()
            self.child = Child()
            self.b = Parameter(np.zeros(3), name="b")

    parent = Parent()
    assert len(parent.parameters()) == 2
    names = dict(parent.named_parameters())
    assert "child.w" in names and "b" in names
    assert parent.num_parameters() == 7


def test_state_dict_round_trip():
    layer = Linear(3, 2, rng=np.random.default_rng(0))
    state = layer.state_dict()
    other = Linear(3, 2, rng=np.random.default_rng(99))
    other.load_state_dict(state)
    assert np.allclose(other.weight.value, layer.weight.value)
    with pytest.raises(ModelError):
        other.load_state_dict({"weight": np.zeros((3, 2))})


# ------------------------------------------------------------ gradient checks
def numerical_gradient(f, parameter, eps=1e-5):
    grad = np.zeros_like(parameter.value)
    it = np.nditer(parameter.value, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = parameter.value[index]
        parameter.value[index] = original + eps
        plus = f()
        parameter.value[index] = original - eps
        minus = f()
        parameter.value[index] = original
        grad[index] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def test_linear_gradient_check():
    rng = np.random.default_rng(1)
    layer = Linear(4, 3, rng=rng)
    x = rng.normal(size=4)
    targets = [1]

    def loss_fn():
        out, _ = layer(x)
        loss, _ = cross_entropy_from_logits(out, targets)
        return loss

    layer.zero_grad()
    out, cache = layer(x)
    _, grad_logits = cross_entropy_from_logits(out, targets)
    layer.backward(grad_logits[0], cache)
    numeric = numerical_gradient(loss_fn, layer.weight)
    assert np.allclose(layer.weight.grad, numeric, atol=1e-5)


def test_embedding_gradient_accumulates_per_token():
    rng = np.random.default_rng(2)
    embedding = Embedding(5, 3, rng=rng)
    out, cache = embedding([1, 1, 4])
    grad = np.ones_like(out)
    embedding.backward(grad, cache)
    assert np.allclose(embedding.weight.grad[1], 2.0)
    assert np.allclose(embedding.weight.grad[4], 1.0)
    assert np.allclose(embedding.weight.grad[0], 0.0)
    with pytest.raises(ModelError):
        embedding([9])


def test_lstm_gradient_check():
    rng = np.random.default_rng(3)
    lstm = LSTM(3, 4, rng=rng)
    inputs = rng.normal(size=(5, 3))
    targets = np.array([0.7, -0.3, 0.2, 0.5])

    def loss_fn():
        hidden, _ = lstm.forward(inputs)
        return float(((hidden[-1] - targets) ** 2).sum())

    hidden, caches = lstm.forward(inputs)
    grad_hidden = np.zeros_like(hidden)
    grad_hidden[-1] = 2.0 * (hidden[-1] - targets)
    lstm.zero_grad()
    lstm.backward(grad_hidden, caches)
    numeric = numerical_gradient(loss_fn, lstm.cell.weight_input)
    assert np.allclose(lstm.cell.weight_input.grad, numeric, atol=1e-4)


def test_gru_gradient_check():
    rng = np.random.default_rng(4)
    gru = GRU(3, 4, rng=rng)
    inputs = rng.normal(size=(4, 3))
    targets = np.array([0.1, 0.2, -0.4, 0.3])

    def loss_fn():
        hidden, _ = gru.forward(inputs)
        return float(((hidden[-1] - targets) ** 2).sum())

    hidden, caches = gru.forward(inputs)
    grad_hidden = np.zeros_like(hidden)
    grad_hidden[-1] = 2.0 * (hidden[-1] - targets)
    gru.zero_grad()
    gru.backward(grad_hidden, caches)
    numeric = numerical_gradient(loss_fn, gru.cell.weight_hidden)
    assert np.allclose(gru.cell.weight_hidden.grad, numeric, atol=1e-4)


def test_lstm_rejects_wrong_shapes():
    lstm = LSTM(3, 4)
    with pytest.raises(ModelError):
        lstm.forward(np.zeros((5, 2)))


# ---------------------------------------------------------------- optimizers
def test_sgd_reduces_quadratic_loss():
    parameter = Parameter(np.array([5.0, -3.0]))
    optimizer = SGD([parameter], learning_rate=0.1)
    for _ in range(200):
        parameter.zero_grad()
        parameter.grad += 2 * parameter.value
        optimizer.step()
    assert np.allclose(parameter.value, 0.0, atol=1e-3)


def test_adam_reduces_quadratic_loss():
    parameter = Parameter(np.array([5.0, -3.0]))
    optimizer = Adam([parameter], learning_rate=0.1)
    for _ in range(300):
        parameter.zero_grad()
        parameter.grad += 2 * parameter.value
        optimizer.step()
    assert np.allclose(parameter.value, 0.0, atol=1e-2)


def test_optimizer_validation():
    with pytest.raises(ModelError):
        SGD([], learning_rate=0.1)
    with pytest.raises(ModelError):
        SGD([Parameter(np.zeros(1))], learning_rate=0.0)
    with pytest.raises(ModelError):
        Adam([Parameter(np.zeros(1))], learning_rate=-1.0)


def test_clip_gradients_scales_down():
    parameters = [Parameter(np.zeros(4))]
    parameters[0].grad += np.array([3.0, 4.0, 0.0, 0.0])
    norm = clip_gradients(parameters, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(parameters[0].grad) == pytest.approx(1.0)
    with pytest.raises(ModelError):
        clip_gradients(parameters, max_norm=0.0)
