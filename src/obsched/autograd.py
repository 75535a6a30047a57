"""Minimal reverse-mode automatic differentiation over numpy arrays.

Deliberately small: exactly the operations the policy's one loss needs,
each with a hand-written vector-Jacobian product.  The network is fixed,
so the tape is shaped like it.  One child-sum tree-LSTM kernel,
``lstm_rows``, serves acting and learning alike: acting calls it to grow
a state table off the tape, and the loss records it as one ``tree_lstm``
node over a trajectory's distinct nodes.  With one ``gather_rows`` and
three layers per head, one ``segment_log_softmax`` for every step's
chosen rule and the policy's fused actor-critic node, each trajectory
records a fixed 17 nodes, whatever its steps and candidates.

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


def lstm_rows(x: np.ndarray, parents, wx: np.ndarray, wh: np.ndarray, b: np.ndarray, hc: np.ndarray, lo: int = 0):
    """The child-sum tree-LSTM forward kernel, filling rows ``lo:`` of the
    state table ``hc`` in place, one row at a time.

    ``x[k]`` is the input embedding of row ``lo + k`` and ``parents[k]``
    the earlier rows whose [h; c] states it sums, in order (zeros for
    none).  Gate order in the packed weight matrices: input, forget,
    output, cell.  Row ``r`` of ``hc`` becomes [h; c] of length 2H.
    """
    hsz = wh.shape[1]
    for k, ps in enumerate(parents):
        hc_in = hc[ps[0]].copy() if ps else np.zeros(2 * hsz)
        for p in ps[1:]:
            hc_in += hc[p]
        z = wx @ x[k] + wh @ hc_in[:hsz] + b
        zi, zf, zo, zg = (z[j * hsz : (j + 1) * hsz] for j in range(4))
        i = 1.0 / (1.0 + np.exp(-zi))
        f = 1.0 / (1.0 + np.exp(-zf))
        o = 1.0 / (1.0 + np.exp(-zo))
        c = f * hc_in[hsz:] + i * np.tanh(zg)
        hc[lo + k, :hsz] = o * np.tanh(c)
        hc[lo + k, hsz:] = c


def tree_lstm(x: np.ndarray, parents, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """The (n, 2H) table of child-sum tree-LSTM states of ``n`` rows in
    topological order, as one tape node (see ``lstm_rows`` for ``x`` and
    ``parents``).

    The vjp walks the rows in reverse, handing each row's input-state
    gradient to its parent rows, then forms dWx = dZᵀX, dWh = dZᵀH_in and
    db = ΣdZ over the gate pre-activations Z.
    """
    hsz = wh.value.shape[1]
    hc = np.zeros((len(parents), 2 * hsz))
    lstm_rows(x, parents, wx.value, wh.value, b.value, hc)

    def vjp(grad):
        # each row's summed input state, added in the forward's order
        hc_in = np.array([sum((hc[p] for p in ps), np.zeros(2 * hsz)) for ps in parents])
        z = x @ wx.value.T + hc_in[:, :hsz] @ wh.value.T + b.value
        sig = 1.0 / (1.0 + np.exp(-z[:, : 3 * hsz]))
        i, f, o = sig[:, :hsz], sig[:, hsz : 2 * hsz], sig[:, 2 * hsz :]
        g = np.tanh(z[:, 3 * hsz :])
        tc = np.tanh(hc[:, hsz:])
        dc_dh = o * (1.0 - tc * tc)
        # dZ of a row is this times its (dc, dc, dh, dc)
        dz_dhc = np.concatenate(
            [g * i * (1.0 - i), hc_in[:, hsz:] * f * (1.0 - f), tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1
        )
        dhc = grad.copy()
        dz = np.empty_like(z)
        for r in range(len(parents) - 1, -1, -1):
            gh = dhc[r, :hsz]
            gc = dhc[r, hsz:] + gh * dc_dh[r]
            dz[r] = np.concatenate((gc, gc, gh, gc)) * dz_dhc[r]
            if parents[r]:
                d_in = np.concatenate((dz[r] @ wh.value, gc * f[r]))
                for p in parents[r]:
                    dhc[p] += d_in
        return (dz.T @ x, dz.T @ hc_in[:, :hsz], dz.sum(axis=0))

    return Tensor(hc, (wx, wh, b), vjp)
