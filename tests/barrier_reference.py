"""Extremal correlations by a log-det barrier solve: a numerical reference,
independent of the closed-form chain law of ``aggtree.feasible``, that the
tests compare it with."""
import math

import numpy as np

from aggtree.errors import UnsupportedModelError
from aggtree.feasible import ExtremalResult, psd_feasible

_FACE_TOL = 1e-10
_MAX_NEWTON_STEPS = 400
_T_GROWTH = 20.0
_CENTERED = 0.25


def _sym(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _face(constraints):
    """Facial reduction onto the range of the tree dependent matrix
    (Drusvyatskiy & Wolkowicz 2017): a PSD X of the affine set has X N = 0,
    N the null space, if N N^T is a combination of the symmetric A_k of
    <A_k, X> = b_k; this is checked, not assumed. Returns a frame V of the
    range and orthonormal rows spanning the flattened V^T A_k V."""
    dim = constraints.dim
    stack = np.zeros((dim + len(constraints.blocks), dim, dim))
    stack[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    for k, (rows, cols, _) in enumerate(constraints.blocks, start=dim):
        stack[k, rows, cols] = stack[k, cols, rows] = 0.5
    lam, vec = np.linalg.eigh(constraints.tree_dep)
    if lam[0] < -_FACE_TOL * lam[-1]:
        raise ValueError(f"tree_dep is not PSD: eigenvalue {lam[0]:.3g}")
    null = lam <= _FACE_TOL * lam[-1]
    nn = (vec[:, null] @ vec[:, null].T).ravel()
    a = stack.reshape(len(stack), -1).T  # columns vec(A_k)
    if null.any() and np.linalg.norm(nn - a @ np.linalg.lstsq(a, nn)[0]) > _FACE_TOL:
        raise UnsupportedModelError(
            "the tree dependent covariance is singular, but the constraints "
            "do not force every feasible covariance onto its range")
    frame = vec[:, ~null]
    _, s, rows = np.linalg.svd((frame.T @ stack @ frame).reshape(len(stack), -1),
                               full_matrices=False)
    return frame, rows[s > _FACE_TOL * s[0]]


def extremal_correlation(constraints, direction, bracket_tol=1e-7):
    """Largest or smallest attainable correlation for the objective pair.

    One log-det barrier solve (Boyd & Vandenberghe, Convex Optimization,
    10.2 and 11.3) from the tree dependent matrix: damped Newton steps on
    ``-t*(+/-X_ij) - log det X`` under the tree constraints <A_k, X> = b_k,
    t growing whenever the iterate is centered. With X = L L^T, a step
    L U L^T takes U as the scaled gradient projected by a QR off the
    L^T A_k L; an undamped min-norm move keeps each iterate on the affine
    set. The solve stops once the duality gap the Newton direction
    certifies is at most ``bracket_tol`` on the correlation scale.
    Degenerate trees are reduced to their face first. An iterate within
    1e-6 of +/-1 moves in the same metric onto exactly +/-1, the answer if
    that passes ``psd_feasible``. The witness meets every constraint to
    rounding and passes ``psd_feasible``. Status is "budget_exhausted" when
    the Newton step cap or rounding ends the solve before the gap target,
    else "optimal"; ``info`` holds ``direction``, the Newton step count
    ``iterations`` and the certified ``gap``.
    """
    if constraints.objective is None:
        raise ValueError("constraint set has no objective pair")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if not (math.isfinite(bracket_tol) and bracket_tol > 0):
        raise ValueError(f"bracket_tol must be finite and > 0, got {bracket_tol!r}")
    # The search keeps the constraint values of its start, tree_dep. Sets from
    # build_constraints miss by at most 1e-13 of the largest value, residual(0).
    off = constraints.residual(constraints.tree_dep)
    if not off <= 1e-9 * constraints.residual(np.zeros_like(constraints.tree_dep)):
        raise ValueError(f"tree_dep does not meet the constraints: residual {off:.3g}")
    i, j = constraints.objective
    scale = math.sqrt(constraints.variances[i] * constraints.variances[j])
    frame, cons = _face(constraints)
    rank = len(frame.T)
    mats = cons.reshape(-1, rank, rank)
    sign = 1.0 if direction == "max" else -1.0
    obj = sign * _sym(np.outer(frame[i], frame[j])).ravel()  # X_ij on the face
    info = {"direction": direction, "iterations": 0, "gap": 0.0}

    def result(x, status, gap):
        info["gap"] = float(gap / scale)
        return ExtremalResult(x[i, j] / scale, x[i, j], x, status, info)

    if np.linalg.norm(obj - cons.T @ (cons @ obj)) <= _FACE_TOL:
        return result(constraints.tree_dep.copy(), "optimal", 0.0)
    y = last = start = frame.T @ constraints.tree_dep @ frame
    grad = np.stack([obj, np.eye(rank).ravel()], 1)
    w = frame[i] - sign * constraints.variances[i] / scale * frame[j]  # X w = 0 at +/-1
    t = rank / scale
    gap = math.inf
    try:
        for steps in range(_MAX_NEWTON_STEPS + 1):
            low = np.linalg.cholesky(y)
            q, r = np.linalg.qr((low.T @ mats @ low).reshape(len(cons), -1).T)
            fix = q @ np.linalg.solve(r.T, cons @ (start - y).ravel())
            y = last = y + low @ fix.reshape(rank, rank) @ low.T
            info["iterations"] = steps
            if sign * (frame[i] @ y @ frame[j]) >= (1.0 - 1e-6) * scale:
                # The shortest step L U L^T onto X w = 0 has U p = -p, p ~ L^T w.
                p = low.T @ w / np.linalg.norm(low.T @ w)
                rows = _sym(np.eye(rank)[:, :, None] * p).reshape(rank, -1)
                u = np.linalg.lstsq(rows - rows @ q @ q.T, -p, rcond=_FACE_TOL)[0]
                snap = _sym(frame @ (y + low @ u.reshape(rank, rank) @ low.T) @ frame.T)
                if abs(snap[i, j] - sign * scale) <= 1e-12 * scale:
                    snap[i, j] = snap[j, i] = sign * scale
                    if psd_feasible(snap)[0]:
                        return result(snap, "optimal", 0.0)
            grad[:, 0] = (low.T @ obj.reshape(rank, rank) @ low).ravel()
            toward, center = _sym((grad - q @ (q.T @ grad)).T.reshape(2, rank, rank))
            while True:
                u = t * toward + center
                s = np.linalg.eigvalsh(u)
                if s[-1] <= 1.0:
                    gap = (rank - s.sum()) / t
                    if gap <= bracket_tol * scale:
                        return result(_sym(frame @ y @ frame.T), "optimal", gap)
                if s @ s > _CENTERED or steps == _MAX_NEWTON_STEPS:
                    break
                t *= _T_GROWTH
            y = y + low @ u @ low.T / (1.0 + math.sqrt(s @ s))
    except np.linalg.LinAlgError:  # rounding near machine precision; keep last iterate
        pass
    return result(_sym(frame @ last @ frame.T), "budget_exhausted", gap)
