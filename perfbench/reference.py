"""Independent numpy references for the benchmark's correctness checks.

Nothing here calls into mquilt: chains are plain ``(initial, P)`` arrays
read from the model files the benchmark wrote, and every quantity is
rebuilt from its definition (matrix powers, marginals, Bayes inversion,
a linear solve for the stationary law, ``numpy.linalg.eigvalsh``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def powers(P: np.ndarray, n: int) -> np.ndarray:
    """``out[j] = P^j`` for ``j = 0..n``."""
    out = np.empty((n + 1,) + P.shape)
    out[0] = np.eye(P.shape[0])
    for j in range(1, n + 1):
        out[j] = out[j - 1] @ P
    return out


def marginals(initial: np.ndarray, P: np.ndarray, n: int) -> np.ndarray:
    """``out[t-1]`` is the law of ``X_t`` for ``t = 1..n``."""
    out = np.empty((n, P.shape[0]))
    out[0] = initial
    for t in range(1, n):
        out[t] = out[t - 1] @ P
    return out


def _pair_max(rows: np.ndarray) -> np.ndarray:
    """``out[..., u, v] = max_x log(rows[..., u, x] / rows[..., v, x])``.

    Slots where both rows are zero carry no evidence and are skipped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log(rows)
        d = lg[..., :, None, :] - lg[..., None, :, :]
    return np.nanmax(d, axis=-1)


class ExactChain:
    """Exact max-influence of one window chain, from its definition.

    ``initial`` is the law at the window's first node and ``L`` the window
    length; node indices are local to the window (1-based).
    """

    def __init__(self, initial: np.ndarray, P: np.ndarray, L: int):
        self.L = L
        self.pw = powers(P, L - 1)
        self.m = marginals(initial, P, L)

    def _live(self, i: int) -> np.ndarray:
        return np.nonzero(self.m[i - 1] > 0.0)[0]

    def left_parts(self, i: int, offsets: np.ndarray) -> np.ndarray:
        """Backward log-ratio maxima, one ``(n, n)`` block per offset."""
        live = self._live(i)
        past = self.m[i - 1 - offsets]  # (A, k): law of X_{i-a}
        joint = past[:, :, None] * self.pw[offsets][:, :, live]  # (A, x, v)
        back = np.swapaxes(joint / self.m[i - 1][live], 1, 2)  # P(X_{i-a}=x | X_i=v)
        return _pair_max(back)

    def right_parts(self, i: int, offsets: np.ndarray) -> np.ndarray:
        live = self._live(i)
        return _pair_max(self.pw[offsets][:, live, :])

    def influence(self, i: int, left: int | None, right: int | None) -> float:
        n = self._live(i).size
        if n < 2 or (left is None and right is None):
            return 0.0
        total = np.zeros((n, n))
        if left is not None:
            total = total + self.left_parts(i, np.array([left]))[0]
        if right is not None:
            total = total + self.right_parts(i, np.array([right]))[0]
        np.fill_diagonal(total, -np.inf)
        return float(total.max())

    def best_score(self, i: int, epsilon: float) -> float:
        """Brute-force minimum score over every candidate quilt at node ``i``."""
        L = self.L
        best = L / epsilon  # the empty quilt
        if self._live(i).size < 2:
            return 1.0 / epsilon  # nothing to separate; one nearby node remains
        aa = np.arange(1, i)
        bb = np.arange(1, L - i + 1)
        off = ~np.eye(self._live(i).size, dtype=bool)
        if aa.size:
            left = self.left_parts(i, aa)
            best = min(best, _min_score(left[:, off].max(axis=1), L - i + aa, epsilon))
        if bb.size:
            right = self.right_parts(i, bb)
            best = min(best, _min_score(right[:, off].max(axis=1), i + bb - 1, epsilon))
        if aa.size and bb.size:
            two = (left[:, None][..., off] + right[None, :][..., off]).max(axis=-1)
            nearby = aa[:, None] + bb[None, :] - 1
            best = min(best, _min_score(two, nearby, epsilon))
        return best


def _min_score(e: np.ndarray, nearby: np.ndarray, epsilon: float) -> float:
    ok = e < epsilon
    if not ok.any():
        return math.inf
    return float((np.broadcast_to(nearby, e.shape)[ok] / (epsilon - e[ok])).min())


def nearby(i: int, left: int | None, right: int | None, L: int) -> int:
    """Window nodes a quilt leaves unseparated from local node ``i``."""
    if left is not None and right is not None:
        return left + right - 1
    if left is not None:
        return L - i + left
    if right is not None:
        return i + right - 1
    return L


# --------------------------------------------------------- spectral bound


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary law from the balance equations by one linear solve."""
    k = P.shape[0]
    A = P.T - np.eye(k)
    A[-1] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def spectral_gap(P: np.ndarray) -> tuple[float, float]:
    """``(pi_min, gap)`` of the multiplicative reversiblization ``P P*``."""
    pi = stationary(P)
    rev = (pi[None, :] * P.T) / pi[:, None]
    root = np.sqrt(pi)
    S = root[:, None] * (P @ rev) / root[None, :]
    lam = np.clip(np.linalg.eigvalsh((S + S.T) / 2.0), 0.0, None)
    below = lam[lam < 1.0 - 1e-8]
    gap = 1.0 if below.size == 0 else float(1.0 - below.max())
    return float(pi.min()), gap


def spectral_terms(P: np.ndarray, n: int) -> np.ndarray:
    """``t[x-1]``: the spectral influence term at offset ``x = 1..n``."""
    pi_min, gap = spectral_gap(P)
    decay = np.exp(-gap * np.arange(1, n + 1) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log((pi_min + decay) / (pi_min - decay))
    t[pi_min - decay <= 0.0] = np.inf
    return t


def approx_influence(t: np.ndarray, left: int | None, right: int | None) -> float:
    e = 0.0
    if left is not None:
        e += 2.0 * t[left - 1]
    if right is not None:
        e += t[right - 1]
    return float(e)


def approx_best_scores(t: np.ndarray, L: int, epsilon: float) -> np.ndarray:
    """Brute-force minimum score at every node of a window of length ``L``."""
    out = np.empty(L)
    for i in range(1, L + 1):
        aa, bb = np.arange(1, i), np.arange(1, L - i + 1)
        best = L / epsilon
        if aa.size:
            best = min(best, _min_score(2.0 * t[aa - 1], L - i + aa, epsilon))
        if bb.size:
            best = min(best, _min_score(t[bb - 1], i + bb - 1, epsilon))
        if aa.size and bb.size:
            two = 2.0 * t[aa - 1][:, None] + t[bb - 1][None, :]
            best = min(best, _min_score(two, aa[:, None] + bb[None, :] - 1, epsilon))
        out[i - 1] = best
    return out


# ------------------------------------------------------ boundary influence


def boundary_influences(
    initial: np.ndarray, P: np.ndarray, t2: int, t3: int
) -> tuple[float, float]:
    """Exact forward influence of ``X_t2`` on ``X_t3`` and backward of ``X_t3``
    on ``X_t2``, under a chain started at node 1."""
    g = t3 - t2
    m = marginals(initial, P, t3)
    Pg = np.linalg.matrix_power(P, g)
    live2 = np.nonzero(m[t2 - 1] > 0)[0]
    fwd = _pair_max(Pg[live2])
    np.fill_diagonal(fwd, -np.inf)
    live3 = np.nonzero(m[t3 - 1] > 0)[0]
    back = (m[t2 - 1][:, None] * Pg[:, live3] / m[t3 - 1][live3]).T
    bwd = _pair_max(back)
    np.fill_diagonal(bwd, -np.inf)
    return float(fwd.max()), float(bwd.max())


# ------------------------------------------------------------ enumeration


def trajectories(k: int, T: int) -> np.ndarray:
    return np.array(list(itertools.product(range(k), repeat=T)), dtype=np.int64)


def trajectory_probs(initial: np.ndarray, P: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    p = initial[seqs[:, 0]].copy()
    for t in range(1, seqs.shape[1]):
        p *= P[seqs[:, t - 1], seqs[:, t]]
    return p


def log_mixture(
    weights: np.ndarray, centers: list[np.ndarray], scales: list[float], point
) -> float:
    """Log of ``sum_x w_x prod_j Laplace(point_j; centers_j[x], scales_j)``
    up to a term shared by every mixture over the same centers.

    Infinite coordinates take the tail limit, where each kernel is
    proportional to ``exp(+-center / scale)``.
    """
    expo = np.zeros(weights.size)
    for c, s, w in zip(centers, scales, point):
        if w == math.inf:
            expo += c / s
        elif w == -math.inf:
            expo -= c / s
        else:
            expo -= np.abs(w - c) / s
    keep = weights > 0
    if not keep.any():
        return -math.inf
    top = expo[keep].max()
    return float(top + math.log(float(weights[keep] @ np.exp(expo[keep] - top))))


def counterexample_constants(p: float, q: float) -> dict:
    """The two-node counterexample's four constants, from its closed forms
    and again from the four trajectories directly.

    Chain: uniform start, rows ``[1-q, q]`` and ``[1-p, p]``; the release
    counts steps in state 1 with unit Laplace noise; the secret is ``X_1``.
    """
    e = math.e
    closed = {
        "single_squared": [
            ((q + e * (1 - q)) / (p + e * (1 - p))) ** 2,
            ((e * p + (1 - p)) / (e * q + (1 - q))) ** 2,
        ],
        "joint_diagonal": [
            (q + e**2 * (1 - q)) / (p + e**2 * (1 - p)),
            (e**2 * p + (1 - p)) / (e**2 * q + (1 - q)),
        ],
    }
    # Tail ratios of P(out | X_1 = 1) / P(out | X_1 = 0): as out -> +-inf
    # each Laplace kernel is proportional to exp(+-count).
    P = np.array([[1 - q, q], [1 - p, p]])

    def tail(sign: float, n_rel: int) -> float:
        num = sum(P[1, x2] * math.exp(sign * n_rel * (1 + x2)) for x2 in (0, 1))
        den = sum(P[0, x2] * math.exp(sign * n_rel * x2) for x2 in (0, 1))
        return math.log(num / den)

    direct = {
        "single_squared": [
            math.exp(-2.0 * tail(-1.0, 1)) / e**2,
            math.exp(2.0 * tail(1.0, 1)) / e**2,
        ],
        "joint_diagonal": [
            math.exp(-tail(-1.0, 2)) / e**2,
            math.exp(tail(1.0, 2)) / e**2,
        ],
    }
    return {"closed": closed, "direct": direct}
