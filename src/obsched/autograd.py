"""Minimal reverse-mode automatic differentiation over numpy arrays.

Deliberately small: exactly the operations the policy's one loss needs,
each with a hand-written vector-Jacobian product.  Acting is tape-free
(``no_grad``); the loss replays a whole trajectory: one ``lstm_cell`` per
distinct node, summing its parents' states itself, one ``stack_rows`` of all
node states, one ``gather_rows`` per head, and one ``segment_log_softmax``
for every step's chosen rule, so the tape does not grow with the candidate
count.

All values are float64.  Gradients accumulate into ``Tensor.grad``;
``backward`` walks the tape once in reverse topological order.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["Tensor", "no_grad", "backward"]

_grad_enabled = [True]


@contextmanager
def no_grad():
    """Disable tape recording (forward values only)."""
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


class Tensor:
    """A numpy array plus its place on the tape."""

    __slots__ = ("value", "grad", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if _grad_enabled[-1]:
            self.parents = parents
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None

    def zero_grad(self):
        self.grad = None

    def add_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    # convenience constructor --------------------------------------------

    @staticmethod
    def param(value) -> "Tensor":
        return Tensor(np.array(value, dtype=np.float64))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every reachable tensor."""
    if loss.value.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not np.isfinite(loss.value):
        raise FloatingPointError("non-finite loss")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.add_grad(np.ones_like(loss.value))
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is not None:
                parent.add_grad(g)


# --- operations -------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for x of shape (k, n); w is (m, n), b is (m,)."""
    out = x.value @ w.value.T + b.value

    def vjp(g):
        return (g @ w.value, g.T @ x.value, g.sum(axis=0))

    return Tensor(out, (x, w, b), vjp)


def relu(x: Tensor) -> Tensor:
    m = x.value > 0.0

    def vjp(g):
        return (g * m,)

    return Tensor(np.where(m, x.value, 0.0), (x,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (g, g)

    return Tensor(a.value + b.value, (a, b), vjp)


def scale(a: Tensor, k: float) -> Tensor:
    def vjp(g):
        return (g * k,)

    return Tensor(a.value * k, (a,), vjp)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D tensors into an (n, d) matrix."""

    def vjp(g):
        return tuple(g[i] for i in range(len(tensors)))

    return Tensor(np.stack([t.value for t in tensors]), tuple(tensors), vjp)


def gather_rows(x: Tensor, idx: np.ndarray | list, cols: int) -> Tensor:
    """The first ``cols`` columns of rows ``idx`` of the matrix ``x``.

    A 1-D ``idx`` gives a (len(idx), cols) matrix.  A 2-D ``idx`` of shape
    (n, k) puts each index tuple's k row slices side by side, giving an
    (n, k * cols) matrix.  Repeated indices accumulate their gradients.
    """
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        full = np.zeros_like(x.value)
        np.add.at(full, (idx, slice(0, cols)), g.reshape(idx.shape + (cols,)))
        return (full,)

    return Tensor(x.value[idx, :cols].reshape(len(idx), -1), (x,), vjp)


def squeeze_col(x: Tensor) -> Tensor:
    """(n, 1) matrix to an (n,) vector."""

    def vjp(g):
        return (g[:, None],)

    return Tensor(x.value[:, 0], (x,), vjp)


def segment_log_softmax(x: Tensor, bounds: np.ndarray | list, picks: np.ndarray | list) -> Tensor:
    """``x[picks[k]] - logsumexp(x[bounds[k]:bounds[k + 1]])`` for each
    (non-empty) segment ``k``; ``picks[k]`` lies in segment ``k``."""
    starts = np.asarray(bounds[:-1], dtype=np.intp)
    lens = np.diff(np.asarray(bounds, dtype=np.intp))
    picks = np.asarray(picks, dtype=np.intp)
    z = x.value - np.repeat(np.maximum.reduceat(x.value, starts), lens)
    e = np.exp(z)
    total = np.add.reduceat(e, starts)
    sm = e / np.repeat(total, lens)

    def vjp(g):
        full = -np.repeat(g, lens) * sm
        full[picks] += g
        return (full,)

    return Tensor(z[picks] - np.log(total), (x,), vjp)


def square(x: Tensor) -> Tensor:
    def vjp(g):
        return (2.0 * g * x.value,)

    return Tensor(x.value * x.value, (x,), vjp)


def mean1d(x: Tensor) -> Tensor:
    n = x.value.size

    def vjp(g):
        return (np.full_like(x.value, float(g) / n),)

    return Tensor(x.value.mean(), (x,), vjp)


def sub_const(x: Tensor, c: np.ndarray) -> Tensor:
    def vjp(g):
        return (g,)

    return Tensor(x.value - c, (x,), vjp)


def weighted_sum(x: Tensor, w: np.ndarray) -> Tensor:
    """Dot with a constant weight vector."""

    def vjp(g):
        return (float(g) * w,)

    return Tensor(float(x.value @ w), (x,), vjp)


def lstm_cell(x: np.ndarray, parents: list[Tensor], wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One child-sum tree-LSTM step.

    ``x`` is the (constant) input embedding and ``parents`` the parents'
    [h; c] states of length 2H, summed in order (zeros for none); each
    parent gets the gradient of the sum.  Gate order in the packed weight
    matrices: input, forget, output, cell.  Returns [h'; c'].
    """
    hsz = wh.value.shape[1]
    hc = parents[0].value.copy() if parents else np.zeros(2 * hsz)
    for p in parents[1:]:
        hc += p.value
    h_in = hc[:hsz]
    c_in = hc[hsz:]
    z = wx.value @ x + wh.value @ h_in + b.value
    zi, zf, zo, zg = (z[k * hsz : (k + 1) * hsz] for k in range(4))
    i = 1.0 / (1.0 + np.exp(-zi))
    f = 1.0 / (1.0 + np.exp(-zf))
    o = 1.0 / (1.0 + np.exp(-zo))
    g = np.tanh(zg)
    c = f * c_in + i * g
    tc = np.tanh(c)
    h = o * tc

    def vjp(grad):
        gh = grad[:hsz]
        gc = grad[hsz:] + gh * o * (1.0 - tc * tc)
        go = gh * tc
        dz = np.concatenate(
            [
                gc * g * i * (1.0 - i),
                gc * c_in * f * (1.0 - f),
                go * o * (1.0 - o),
                gc * i * (1.0 - g * g),
            ]
        )
        dhc = np.concatenate([wh.value.T @ dz, gc * f])
        return (*[dhc] * len(parents), np.outer(dz, x), np.outer(dz, h_in), dz)

    return Tensor(np.concatenate([h, c]), (*parents, wx, wh, b), vjp)
