"""Finite-difference checks of every tape operation and tape mechanics.

The package's tape ends in the policy's actor-critic node (see
test_policy.py), so these checks reduce to a scalar through test-local
ops of their own.
"""
import numpy as np
import pytest

from obsched import autograd as ag


def dot(x, w):
    """Test-local op: the sum of ``x`` times a constant array of its shape."""
    w = np.asarray(w, dtype=np.float64)
    return ag.Tensor(float(np.sum(x.value * w)), (x,), lambda g: (float(g) * w,))


def mean(x):
    return dot(x, np.full(x.value.shape, 1.0 / x.value.size))


def total(*xs):
    """Test-local op: the sum of scalar tensors."""
    return ag.Tensor(sum(float(x.value) for x in xs), xs, lambda g: (g,) * len(xs))


def mean_squared_error(x, target):
    """Test-local op: the mean of ``(x - target) ** 2``."""
    err = x.value - target
    return ag.Tensor(float(np.mean(err * err)), (x,), lambda g: (float(g) * 2.0 * err / err.size,))


def fd_check(make_loss, params, rng, n_probe=6, h=1e-6, tol=1e-6):
    """Central finite differences against the analytic gradients."""
    for p in params:
        p.zero_grad()
    loss = make_loss()
    ag.backward(loss)
    worst = 0.0
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        flat = p.value.ravel()
        for i in rng.choice(flat.size, min(n_probe, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + h
            up = float(make_loss().value)
            flat[i] = keep - h
            dn = float(make_loss().value)
            flat[i] = keep
            num = (up - dn) / (2 * h)
            a = float(g.ravel()[i])
            worst = max(worst, abs(num - a) / max(1.0, abs(num), abs(a)))
    assert worst < tol, worst


def test_linear_relu_stack():
    rng = np.random.default_rng(0)
    w1 = ag.Tensor.param(rng.uniform(-1, 1, (4, 3)))
    b1 = ag.Tensor.param(rng.uniform(-1, 1, 4))
    w2 = ag.Tensor.param(rng.uniform(-1, 1, (1, 4)))
    b2 = ag.Tensor.param(rng.uniform(-1, 1, 1))
    x = ag.Tensor(rng.uniform(-1, 1, (5, 3)))
    fd_check(
        lambda: mean(ag.squeeze_col(ag.linear(ag.relu(ag.linear(x, w1, b1)), w2, b2))),
        [w1, b1, w2, b2],
        rng,
    )


def test_single_linear_layer_closed_form():
    # squared loss of one linear layer on one row: dL/dW = 2 (W x - y) x^T
    rng = np.random.default_rng(2)
    w = ag.Tensor.param(rng.uniform(-1, 1, (3, 4)))
    x = rng.uniform(-1, 1, 4)
    y = rng.uniform(-1, 1, 3)
    xt = ag.Tensor(x[None, :])
    b = ag.Tensor(np.zeros(3))
    loss = mean_squared_error(ag.linear(xt, w, b), y)
    ag.backward(loss)
    residual = w.value @ x - y
    expected = 2.0 * np.outer(residual, x) / 3.0  # mean over the 3 outputs
    assert np.allclose(w.grad, expected, atol=1e-12)


# rows of a tree-LSTM table: two roots; a parent (row 2) shared by two
# children (rows 3 and 4), which are the two parents of a diamond's foot
# (row 5); and a child summing a root and a later row
TREE = [(), (), (0,), (2,), (2,), (3, 4), (1, 5)]


def _tree_params(rng, h, d):
    wx = ag.Tensor.param(rng.uniform(-0.5, 0.5, (4 * h, d)))
    wh = ag.Tensor.param(rng.uniform(-0.5, 0.5, (4 * h, h)))
    b = ag.Tensor.param(rng.uniform(-0.5, 0.5, 4 * h))
    return wx, wh, b


def test_tree_lstm_gradients():
    rng = np.random.default_rng(3)
    h, d = 5, 7
    wx, wh, b = _tree_params(rng, h, d)
    x = rng.uniform(-1, 1, (len(TREE), d))
    w = rng.uniform(-1, 1, (len(TREE), 2 * h))
    fd_check(lambda: dot(ag.tree_lstm(x, TREE, wx, wh, b), w), [wx, wh, b], rng, n_probe=40)


def test_tree_lstm_rows_against_a_per_row_reference():
    # each row from its parents' summed states, in the row order given
    rng = np.random.default_rng(11)
    h, d = 4, 6
    wx, wh, b = _tree_params(rng, h, d)
    x = rng.uniform(-1, 1, (len(TREE), d))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    want = np.zeros((len(TREE), 2 * h))
    for r, ps in enumerate(TREE):
        hc_in = sum((want[p] for p in ps), np.zeros(2 * h))
        z = wx.value @ x[r] + wh.value @ hc_in[:h] + b.value
        c = sig(z[h : 2 * h]) * hc_in[h:] + sig(z[:h]) * np.tanh(z[3 * h :])
        want[r] = np.concatenate([sig(z[2 * h : 3 * h]) * np.tanh(c), c])
    got = ag.tree_lstm(x, TREE, wx, wh, b).value
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # the kernel fills rows from ``lo`` on, reading the earlier ones
    grown = got.copy()
    grown[4:] = np.nan
    ag.lstm_rows(x[4:], TREE[4:], wx.value, wh.value, b.value, grown, 4)
    assert np.array_equal(grown, got)


def test_structural_ops():
    rng = np.random.default_rng(4)
    m = ag.Tensor.param(rng.uniform(-1, 1, (2, 6)))
    w = ag.Tensor(rng.uniform(-1, 1, (1, 6)))
    zero = ag.Tensor(np.zeros(1))

    def loss():
        # m and w each reach the loss along two paths
        rows = ag.gather_rows(m, [[0, 1], [1, 0], [0, 0]], 3)
        lp = ag.segment_log_softmax(ag.squeeze_col(ag.linear(rows, w, zero)), [0, 3], [1])
        q = ag.squeeze_col(ag.linear(ag.gather_rows(m, [1, 0, 1], 6), w, zero))
        return total(mean(lp), dot(q, [0.3, -0.2, 0.5]))

    fd_check(loss, [m], rng, n_probe=12)


def _gather_loss(x, idx, cols, rng):
    target = rng.uniform(-1, 1, ag.gather_rows(x, idx, cols).value.shape)
    return lambda: mean_squared_error(ag.gather_rows(x, idx, cols), target)


def test_gather_rows_repeated_row():
    rng = np.random.default_rng(6)
    x = ag.Tensor.param(rng.uniform(-1, 1, (5, 4)))
    fd_check(_gather_loss(x, [2, 0, 2, 4], 4, rng), [x], rng, n_probe=20)


def test_gather_rows_pairs_share_first_row():
    # every pair starts with the same row, as the rule head's (region, candidate) pairs do
    rng = np.random.default_rng(7)
    x = ag.Tensor.param(rng.uniform(-1, 1, (5, 6)))
    pairs = [[3, 0], [3, 1], [3, 3], [3, 4], [3, 1]]
    fd_check(_gather_loss(x, pairs, 6, rng), [x], rng, n_probe=30)


def test_gather_rows_leading_columns():
    rng = np.random.default_rng(8)
    x = ag.Tensor.param(rng.uniform(-1, 1, (4, 6)))
    fd_check(_gather_loss(x, [1, 3, 1], 2, rng), [x], rng, n_probe=24)
    fd_check(_gather_loss(x, [[0, 2], [2, 2]], 4, rng), [x], rng, n_probe=24)


def test_gather_rows_values_and_accumulation():
    x = ag.Tensor.param(np.arange(12.0).reshape(3, 4))
    out = ag.gather_rows(x, [[2, 0], [2, 2]], 3)
    assert np.array_equal(out.value, [[8, 9, 10, 0, 1, 2], [8, 9, 10, 8, 9, 10]])
    ag.backward(mean(out))
    assert np.allclose(x.grad * 12, [[1, 1, 1, 0], [0, 0, 0, 0], [3, 3, 3, 0]], rtol=0, atol=1e-15)


# segments [0:3], [3:4], [4:8], [8:10]; the picks repeat values and rows
SEGMENTS = [0, 3, 4, 8, 10]
PICKS = [1, 3, 4, 9]


def test_segment_log_softmax_gradients():
    rng = np.random.default_rng(9)
    x = ag.Tensor.param(rng.uniform(-2, 2, 10))
    x.value[5] = x.value[4]  # a tie inside a segment
    w = rng.uniform(-1, 1, len(PICKS))
    fd_check(lambda: dot(ag.segment_log_softmax(x, SEGMENTS, PICKS), w), [x], rng, n_probe=10)


def test_segment_log_softmax_of_repeated_rows():
    # rows gathered more than once, as the rule head's shared region rows are
    rng = np.random.default_rng(10)
    m = ag.Tensor.param(rng.uniform(-1, 1, (4, 3)))
    w = ag.Tensor.param(rng.uniform(-1, 1, (1, 6)))
    zero = ag.Tensor(np.zeros(1))
    pairs = [[2, 0], [2, 1], [2, 2], [0, 0], [3, 1], [3, 3], [3, 0], [3, 1], [1, 2], [1, 1]]

    def loss():
        logits = ag.squeeze_col(ag.linear(ag.gather_rows(m, pairs, 3), w, zero))
        return mean(ag.segment_log_softmax(logits, SEGMENTS, PICKS))

    fd_check(loss, [m, w], rng, n_probe=12)


def test_segment_log_softmax_values():
    x = np.array([0.5, -1.0, 2.0, 7.0, 1.0, 1.0, -3.0, 0.0, 4.0, 4.5])
    out = ag.segment_log_softmax(ag.Tensor.param(x), SEGMENTS, PICKS).value
    want = [x[p] - np.log(np.sum(np.exp(x[a:b]))) for p, a, b in zip(PICKS, SEGMENTS, SEGMENTS[1:])]
    assert np.allclose(out, want, rtol=0, atol=1e-14)
    assert out[1] == 0.0  # a one-element segment is certain


def test_no_grad_records_nothing():
    w = ag.Tensor.param(np.ones((2, 2)))
    with ag.no_grad():
        out = ag.linear(ag.Tensor(np.ones((1, 2))), w, ag.Tensor(np.zeros(2)))
    assert out.parents == () and out.vjp is None


def test_backward_rejects_nonscalar_and_nonfinite():
    v = ag.Tensor.param(np.ones(3))
    with pytest.raises(ValueError):
        ag.backward(v)
    bad = ag.Tensor.param(np.array(np.inf))
    with pytest.raises(FloatingPointError):
        ag.backward(bad)


def test_constant_loss_has_zero_gradient():
    w = ag.Tensor.param(np.ones(4))
    loss = dot(w, np.zeros(4))
    ag.backward(loss)
    assert np.all(w.grad == 0.0)


def test_grad_accumulates_across_backwards():
    w = ag.Tensor.param(np.array([1.0, 2.0]))
    for _ in range(3):
        ag.backward(dot(w, np.array([1.0, 1.0])))
    assert np.allclose(w.grad, [3.0, 3.0])
