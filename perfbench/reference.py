"""Reference computations that the benchmark checks the program against.

Nothing here calls sparsemotion. Forward kinematics uses scipy rotations.
The rigid block is projected out with the benchmark's own QR factor. Basis
pursuit is solved as a linear program with HiGHS. The skeleton enters only
as input data: the flat arrays of a parsed skeleton.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial.transform import Rotation

# Relative size of the part of B v outside span(A) that still counts as
# inside it: the program's null-space basis is cut at 1e-10 of sigma_max.
MEMBERSHIP_TOL = 1e-8
# Mass tolerance for "at least as much l1 mass on F as off F".
MASS_TOL = 1e-9
# Basis pursuit must return the planted vector to this relative accuracy.
BP_TOL = 1e-6


def landmark_points(skel, rotation, translation, theta) -> np.ndarray:
    """Landmark positions (N, 3) in the camera frame.

    Joint j's frame is its parent's frame, translated by offset j and then
    rotated by theta_j about axis j; the root's parent is the camera-to-root
    transform.
    """
    rots = Rotation.from_rotvec(skel.axes * np.asarray(theta)[:, None]).as_matrix()
    d = len(skel.parents)
    R = np.empty((d, 3, 3))
    t = np.empty((d, 3))
    for j, p in enumerate(skel.parents):
        Rp, tp = (rotation, translation) if p < 0 else (R[p], t[p])
        t[j] = tp + Rp @ skel.offsets[j]
        R[j] = Rp @ rots[j]
    return t[skel.lmk_joint] + np.einsum("nij,nj->ni", R[skel.lmk_joint], skel.lmk_local)


def pixels(points, focal, principal) -> np.ndarray:
    """Pinhole projection of camera-frame points to pixels."""
    return focal * points[:, :2] / points[:, 2:3] + principal


def rigid_complement(A) -> np.ndarray:
    """Orthonormal basis N of the complement of span(A), so that N^T A = 0."""
    Q, _ = np.linalg.qr(A, mode="complete")
    return Q[:, A.shape[1]:]


def witness_problem(A, B, v, F) -> str | None:
    """Why v does not prove that l1 recovery on support F fails, or None.

    A proof is a nonzero v whose image B v lies in span(A) (an ambiguity
    direction) and which carries at least as much l1 mass on F as off F.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or not np.any(v):
        return "witness is zero or not finite"
    N = rigid_complement(A)
    outside = np.linalg.norm(N.T @ (B @ v))
    scale = np.linalg.norm(B, 2) * np.linalg.norm(v)
    if outside > MEMBERSHIP_TOL * scale:
        return f"B v leaves span(A) by {outside / scale:.2e} (relative)"
    on = np.zeros(v.shape[0], dtype=bool)
    on[list(F)] = True
    mass_on = np.abs(v[on]).sum()
    mass_off = np.abs(v[~on]).sum()
    if mass_on < mass_off - MASS_TOL * (mass_on + mass_off):
        return f"l1 mass on F {mass_on:.3e} is below mass off F {mass_off:.3e}"
    return None


def basis_pursuit(A, B, y) -> np.ndarray:
    """argmin ||w||_1 subject to B w - y in span(A), as an LP with w = u - v."""
    N = rigid_complement(A)
    Bt = N.T @ B
    d = B.shape[1]
    res = linprog(
        np.ones(2 * d),
        A_eq=np.hstack([Bt, -Bt]),
        b_eq=N.T @ y,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"basis pursuit LP failed: {res.message}")
    return res.x[:d] - res.x[d:]


def holds_problem(A, B, F, rng) -> str | None:
    """Why a "holds" verdict for F is wrong, or None.

    For every sign pattern on F (the first sign fixed, since w and -w are
    recovered together) a vector with random magnitudes is planted and
    basis pursuit must return it.
    """
    F = list(F)
    d = B.shape[1]
    for k in range(2 ** max(len(F) - 1, 0)):
        signs = np.array([1.0] + [-1.0 if k >> i & 1 else 1.0 for i in range(len(F) - 1)])
        w = np.zeros(d)
        w[F] = signs * rng.uniform(0.5, 1.5, len(F))
        got = basis_pursuit(A, B, B @ w)
        err = np.max(np.abs(got - w))
        if err > BP_TOL:
            return f"basis pursuit misses the planted vector by {err:.2e} for signs {signs}"
    return None


def support_rates(omega_hat, omega_true, epsilon):
    """(accuracy, specificity) of the estimated support, positive = nonzero."""
    est = np.abs(omega_hat) > epsilon
    true = np.abs(omega_true) > epsilon
    negatives = np.sum(~true)
    accuracy = np.mean(est == true)
    specificity = np.sum(~est & ~true) / negatives if negatives else 1.0
    return float(accuracy), float(specificity)
