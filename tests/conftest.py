import numpy as np

from twinlearn.data import Dataset
from twinlearn.numcore import Rng


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
