"""Tolerance-aware numerical linear algebra primitives shared by all checkers.

Every rank decision -- rank, kernel, injectivity, surjectivity,
invertibility, inertia's zero count -- goes through rank_from_singular_values,
the one rank rule; callers never compare singular values themselves.  Every
symmetry decision goes through require_hermitian, the one Hermitian rule.
Definiteness is decided by eigenvalue extremes of the symmetrized matrix.
Nothing here depends on the problem structure.

Every SVD of the package is taken here, and every matrix shape is read
the same way (the shape convention): a matrix with no entries has the
singular values [0.0] -- rank 0, smallest and largest singular value
0.0 -- and the kernel basis of a matrix with no rows is the identity.
singular_values also gives a wide matrix, which has a kernel, a trailing
0.0; svd_rank keeps the min(p, q) values of the SVD, which its callers
read as the extreme singular values of WB_hat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class DefinitenessReport:
    """Eigenvalue extremes of a Hermitian matrix and its two semidefinite tests.

    is_psd and is_nsd are definiteness's two comparisons; the matrix is
    numerically zero exactly when both hold.
    """

    min_eig: float
    max_eig: float
    is_psd: bool
    is_nsd: bool

    @property
    def is_zero(self) -> bool:
        return self.is_psd and self.is_nsd

    @property
    def norm(self) -> float:
        """Largest eigenvalue magnitude: the 2-norm of the Hermitian part."""
        return max(abs(self.min_eig), abs(self.max_eig))


def _as2d(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {M.shape}")
    return M


def rank_from_singular_values(s, tol: float = DEFAULT_TOL) -> int:
    """The one rank rule: how many singular values s exceed tol times the largest.

    s is in the descending order np.linalg.svd returns.  An empty or zero
    matrix has rank 0.  A square matrix is invertible, and a matrix
    injective or surjective, exactly when this count reaches its size.
    """
    return int(np.sum(s > tol * s[0])) if s.size else 0


def _convention(s: np.ndarray) -> np.ndarray:
    """The shape convention: a matrix with no entries has the singular values [0.0]."""
    return s if s.size else np.zeros(1)


def singular_values(M) -> np.ndarray:
    """Singular values of M in descending order, under the shape convention.

    A wide M, which has a kernel, gets a trailing 0.0, so its smallest
    value reads 0.0; the appended zero changes neither the rank nor the
    largest value.
    """
    M = _as2d(M)
    s = np.linalg.svd(M, compute_uv=False)
    return np.append(s, 0.0) if M.shape[0] < M.shape[1] else _convention(s)


def svd_rank(M, tol: float = DEFAULT_TOL):
    """(s, rank, vh) from one full SVD of M under the one rank rule.

    s holds the min(p, q) singular values, under the shape convention; the
    rows of vh from rank on span the kernel of M, and those before it its
    row space.
    """
    _, s, vh = np.linalg.svd(_as2d(M))
    s = _convention(s)
    return s, rank_from_singular_values(s, tol), vh


def kernel_basis(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of M (columns, q x r).

    Columns span ker M in the sense that ||M K|| <= tol * sigma_max(M);
    r = q - numerical_rank(M).  A matrix with no rows (or all-zero rows)
    has the full identity as kernel basis.
    """
    _, rank, vh = svd_rank(M, tol)
    return vh[rank:].conj().T


def numerical_rank(M, tol: float = DEFAULT_TOL) -> int:
    """Rank of M with singular values below tol * sigma_max treated as zero."""
    return rank_from_singular_values(singular_values(M), tol)


def smallest_singular_value(M) -> float:
    """Smallest singular value of M (0.0 if M is empty or wide)."""
    return float(singular_values(M)[-1])


def operator_norm(M) -> float:
    """Largest singular value of M; 0.0 for an empty matrix.

    The one gesdd call np.linalg.norm(M, 2) makes, without its wrapping.
    """
    return float(singular_values(M)[0])


def hermitian_part(M) -> np.ndarray:
    M = _as2d(M)
    return 0.5 * (M + M.conj().T)


def require_hermitian(M, threshold: float) -> None:
    """The one Hermitian rule: NotHermitian if ||M - M*|| > threshold max(1, ||M||).

    The threshold is the caller's: definiteness passes 10 tol, validation
    its tau_struct.  M - M* is skew-Hermitian, so its 2-norm is the largest
    eigenvalue magnitude of the Hermitian i (M - M*).  ||M|| (an SVD) is
    needed only when that deviation exceeds the threshold, below which the
    test passes whatever ||M|| is.  The Frobenius norm bounds the 2-norm,
    so a Frobenius norm within the threshold passes without the eigensolve.
    """
    M = _as2d(M)
    D = M - M.conj().T
    if np.linalg.norm(D) <= threshold:
        return
    dev = float(np.max(np.abs(np.linalg.eigvalsh(1j * D))))
    if dev > threshold and dev > threshold * max(1.0, operator_norm(M)):
        raise NotHermitian(f"deviation {dev:.3e}")


def definiteness(M, tol: float = DEFAULT_TOL) -> DefinitenessReport:
    """Classify a (numerically) Hermitian matrix by its eigenvalue extremes.

    The matrix is symmetrized before the eigensolve; a deviation
    ||M - M*|| beyond 10 tol * max(1, ||M||) raises NotHermitian.  Thresholds
    are relative: PSD iff min_eig >= -tol * max(1, ||M||).
    """
    M = _as2d(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("definiteness needs a square matrix")
    if M.shape[0] == 0:
        # Vacuous form: semidefinite in both directions.
        return DefinitenessReport(0.0, 0.0, True, True)
    require_hermitian(M, 10.0 * tol)
    w = np.linalg.eigvalsh(hermitian_part(M))
    lo, hi = float(w[0]), float(w[-1])
    scale = max(1.0, abs(lo), abs(hi))
    return DefinitenessReport(lo, hi, lo >= -tol * scale, hi <= tol * scale)


def hermitian_eigendecomposition(P, tol: float = DEFAULT_TOL):
    """Factor Hermitian P as S* @ diag(delta) @ S with unitary S.

    Eigenvalues are sorted descending, so any positive block precedes the
    negative block.  Returns (S, delta) with delta a 1-d real array.
    """
    P = _as2d(P)
    require_hermitian(P, 10.0 * tol)
    return descending_eigh(P)


def descending_eigh(P):
    """hermitian_eigendecomposition without its symmetry check.

    For a P its caller has made exactly Hermitian: one eigh of
    hermitian_part(P), the same bits hermitian_eigendecomposition gives.
    """
    w, u = np.linalg.eigh(hermitian_part(P))
    order = np.argsort(-w)
    w = w[order]
    u = u[:, order]
    # P = U diag(w) U*  =>  S = U* so that P = S* diag(w) S.
    return u.conj().T, w


def inertia(P, tol: float = DEFAULT_TOL):
    """Counts (n_pos, n_zero, n_neg) of eigenvalues of Hermitian P.

    |eigenvalues| of Hermitian P are its singular values: n_zero = d - rank.
    """
    P = _as2d(P)
    w = np.linalg.eigvalsh(hermitian_part(P))
    order = np.argsort(-np.abs(w), kind="stable")
    rank = rank_from_singular_values(np.abs(w[order]), tol)
    n_pos = int(np.sum(w[order[:rank]] > 0))
    return n_pos, w.size - rank, rank - n_pos


def principal_angles(A, B) -> np.ndarray:
    """Principal angles between the column spans of A and B (radians).

    Both inputs are orthonormalized internally.  Small angles come from
    the sine-based formula (arccos alone cannot resolve below ~1e-8).
    """
    A = _as2d(A)
    B = _as2d(B)
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    cos_s = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    theta = np.arccos(np.clip(cos_s, -1.0, 1.0))
    # residual of B against span(A): singular values are the sines
    resid = qb - qa @ (qa.conj().T @ qb)
    sin_s = np.sort(np.linalg.svd(resid, compute_uv=False))
    small = cos_s > np.sqrt(0.5)
    theta[small] = np.arcsin(np.clip(sin_s[: int(np.sum(small))], 0.0, 1.0))
    return theta


def orthonormal_columns(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of A (via SVD, rank-revealing)."""
    u, s, _ = np.linalg.svd(_as2d(A), full_matrices=False)
    return u[:, :rank_from_singular_values(s, tol)]
