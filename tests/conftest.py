import numpy as np
from hypothesis import settings

from twinlearn.data import Dataset
from twinlearn.numcore import Rng

# every run draws the same hypothesis examples, so two commits compare
# on the same inputs
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def gaussian_blobs(centers, counts, std=1.0, seed=0, labels=None):
    """Seeded isotropic Gaussian blobs as a Dataset."""
    rng = Rng(seed)
    dim = len(centers[0])
    blocks, block_labels = [], []
    if labels is None:
        labels = range(len(centers))
    for center, count, label in zip(centers, counts, labels):
        pts = rng.normal(0.0, std, count * dim).reshape(count, dim)
        blocks.append(pts + np.asarray(center, dtype=float))
        block_labels.extend([label] * count)
    return Dataset(np.vstack(blocks), np.array(block_labels))


def flatten(arrays):
    """One flat vector of a parameter or gradient list, in list order."""
    return np.concatenate([np.ravel(a) for a in arrays])


def params_from_flat(vec, hidden_width, n_features):
    """[hidden W, hidden c, head w, head b] of one side from a flat vector."""
    h, m = hidden_width, n_features
    hw = vec[: h * m].reshape(h, m)
    hb = vec[h * m : h * m + h]
    w = vec[h * m + h : h * m + 2 * h]
    return [hw, hb, w, float(vec[-1])]


def central_difference(f, x0, eps=1e-5):
    out = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += eps
        xm[i] -= eps
        out[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return out


def max_relative_error(analytic, numeric, floor=1e-8):
    scale = np.maximum(floor, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / scale))


def _two_block_backprop(w, rows, phi, delta):
    dpre = delta[:, None] * w[None, :] * (1.0 - phi * phi)
    return [dpre.T @ rows, dpre.sum(axis=0), phi.T @ delta, float(delta.sum())]


def two_block_side_objective(params, own, other, c, target):
    """Reference side objective: separate forward passes and backprops over
    the ``other`` (margin) and ``own`` (proximal) rows, summed per gradient."""
    hw, hb, w, b = params
    phi_o = np.tanh(other @ hw.T + hb)
    y = np.tanh(phi_o @ w + b)
    r = y - target
    phi_a = np.tanh(own @ hw.T + hb)
    z = phi_a @ w + b
    loss = float(r @ r) / (2.0 * other.shape[0]) + c * float(z @ z) / (2.0 * own.shape[0])
    margin = _two_block_backprop(w, other, phi_o, r * (1.0 - y * y) / other.shape[0])
    proximal = _two_block_backprop(w, own, phi_a, (c / own.shape[0]) * z)
    return loss, [m + p for m, p in zip(margin, proximal)]


def two_block_rfnn_objective(params, rows, targets, l2):
    """Reference rfnn objective with the hidden bias added apart from the
    weights' product."""
    hw, hb, w, b = params
    phi = np.tanh(rows @ hw.T + hb)
    r = phi @ w + b - targets
    penalty = 0.5 * l2 * (float(np.sum(hw**2)) + float(w @ w))
    loss = float(r @ r) / (2.0 * rows.shape[0]) + penalty
    dhw, dhb, dw, db = _two_block_backprop(w, rows, phi, r / rows.shape[0])
    return loss, [dhw + l2 * hw, dhb, dw + l2 * w, db]
