"""Minimal reverse-mode automatic differentiation over numpy arrays.

The policy's network is fixed, so the tape is shaped like it: each
trajectory's loss records two nodes.  One is ``tree_lstm``, the child-sum
tree-LSTM over the trajectory's distinct dag nodes; its kernel,
``lstm_rows``, also grows acting's state tables, off the tape.  The
other is the policy's head-and-loss node (see ``policy.losses``), whose
hand-written vjp runs both heads backward and hands the state table its
gradient.  ``Tensor`` and ``backward`` stay, rather than one function
returning the flat gradient, because perfbench/tracing.py wraps
``backward`` and walks ``loss.parents``, until the benchmark can time the
gradient without them (ROADMAP.md, item 2).

All values are float64.  Gradients accumulate into ``Tensor.grad``;
``backward`` walks the tape once in reverse topological order.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "backward"]


class Tensor:
    """A numpy array plus its place on the tape."""

    __slots__ = ("value", "grad", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjp = vjp

    def zero_grad(self):
        self.grad = None

    def add_grad(self, g):
        """Accumulate ``g``.  The first gradient is kept as it is, not
        copied: every vjp returns fresh float64 arrays, which no other
        node holds."""
        if self.grad is None:
            self.grad = g
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


# --- the tree-LSTM ------------------------------------------------------------

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
