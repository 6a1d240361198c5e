"""Dense third-order tensor algebra: unfoldings, mode products, Tucker reconstruction.

All routines use one fixed convention: a tensor entry (i1, i2, i3) sits at
column ``1 + sum_{m != k} (i_m - 1) L_m`` of the mode-k unfolding, where
``L_m`` is the product of the dimensions preceding mode m with mode k skipped
(earlier modes vary fastest). The flat layout of a tensor is i1-fastest,
which for a numpy array of shape (n1, n2, n3) is ``ravel(order="F")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "mode_product",
    "kronecker",
    "tucker_reconstruct",
    "TuckerFactors",
]

_MODES = (1, 2, 3)
# axis orders that bring mode k to the front (unfold) and put it back (fold);
# np.moveaxis computes the same permutations at several times the cost
_TO_FRONT = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}
_FROM_FRONT = {1: (0, 1, 2), 2: (1, 0, 2), 3: (1, 2, 0)}


def _require_tensor3(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    return t


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k unfolding: arrange the mode-k fibers as columns.

    Parameters
    ----------
    t : ndarray, shape (n1, n2, n3)
    mode : int
        Mode index in {1, 2, 3}.

    Returns
    -------
    ndarray of shape (n_k, prod of the other dims); it may share memory with ``t``.
    """
    t = _require_tensor3(t)
    if mode not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    # mode k first, then the remaining modes column-major: earlier modes vary fastest
    return t.transpose(_TO_FRONT[mode]).reshape(t.shape[mode - 1], -1, order="F")


def fold(mat: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold`: ``fold(unfold(t, k), k, t.shape) == t`` exactly.

    The result may be a view of ``mat``.
    """
    mat = np.asarray(mat, dtype=float)
    if mode not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    n_cols = dims[0] * dims[1] * dims[2] // dims[mode - 1]
    if mat.shape != (dims[mode - 1], n_cols):
        raise ValueError(
            f"matrix of shape {mat.shape} does not fold into dims {dims} along mode {mode}"
        )
    moved = (dims[mode - 1],) + tuple(d for i, d in enumerate(dims, start=1) if i != mode)
    return mat.reshape(moved, order="F").transpose(_FROM_FRONT[mode])


def mode_product(t: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """k-mode product ``t x_k a``; satisfies ``unfold(result, k) == a @ unfold(t, k)``."""
    t = _require_tensor3(t)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    if mode not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    if a.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"matrix with {a.shape[1]} columns cannot multiply mode {mode} of size {t.shape[mode - 1]}"
        )
    new_dims = list(t.shape)
    new_dims[mode - 1] = a.shape[0]
    return fold(a @ unfold(t, mode), mode, tuple(new_dims))


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (block matrix of a_ij * b).

    Equal to ``np.kron`` bit for bit (each entry is one product), at about a
    third of its cost on the small factor matrices of a solver sweep.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kronecker expects two matrices")
    outer = np.multiply.outer(a, b).transpose(0, 2, 1, 3)
    return outer.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


@dataclass
class TuckerFactors:
    """Core tensor plus column-orthonormal factor matrices.

    ``core`` has shape (r1, r2, r3); ``a1`` and ``a2`` are m x r1 and m x r2,
    ``a3`` is p x r3. Factors are expected column-orthonormal.
    """

    core: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray

    @property
    def ranks(self) -> tuple[int, int, int]:
        return tuple(int(r) for r in self.core.shape)

    def orthonormality_defect(self) -> float:
        """Largest ||A_i^T A_i - I||_F over the three factors."""
        return max(
            float(np.linalg.norm(a.T @ a - np.eye(a.shape[1])))
            for a in (self.a1, self.a2, self.a3)
        )

    def validate(self, atol: float = 1e-10) -> None:
        core = _require_tensor3(self.core)
        for i, a in enumerate((self.a1, self.a2, self.a3), start=1):
            if a.ndim != 2:
                raise ValueError(f"factor {i} must be a matrix")
            if a.shape[1] != core.shape[i - 1]:
                raise ValueError(
                    f"factor {i} has {a.shape[1]} columns but core dim {i} is {core.shape[i - 1]}"
                )
            if a.shape[0] < a.shape[1]:
                raise ValueError(f"factor {i} has more columns than rows")
        if self.orthonormality_defect() > atol:
            raise ValueError("factor matrices are not column-orthonormal")


def tucker_reconstruct(f: TuckerFactors) -> np.ndarray:
    """Multiply the core by all three factors: ``core x1 a1 x2 a2 x3 a3``."""
    t = mode_product(f.core, f.a1, 1)
    t = mode_product(t, f.a2, 2)
    return mode_product(t, f.a3, 3)
