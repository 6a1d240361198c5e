import numpy as np
import pytest

from tuckervar import (
    TuckerFactors,
    fold,
    kronecker,
    mode_product,
    tucker_reconstruct,
    unfold,
)
from tuckervar.tensor import _frobenius


def naive_unfold(t, mode):
    """Triple-loop reference: column index 1 + sum_{m != k} (i_m - 1) L_m."""
    dims = t.shape
    others = [m for m in (1, 2, 3) if m != mode]
    strides = {}
    for m in others:
        length = 1
        for s in range(1, m):
            if s != mode:
                length *= dims[s - 1]
        strides[m] = length
    out = np.zeros((dims[mode - 1], t.size // dims[mode - 1]))
    for i1 in range(dims[0]):
        for i2 in range(dims[1]):
            for i3 in range(dims[2]):
                idx = (i1, i2, i3)
                col = sum(idx[m - 1] * strides[m] for m in others)
                out[idx[mode - 1], col] = t[i1, i2, i3]
    return out


def outer(a, x):
    """(a o X)_{ijl} = a_i X_{jl}."""
    return a[:, None, None] * x[None, :, :]


def random_orthonormal(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


class TestUnfold:
    def test_mode1_hand_enumeration(self):
        # entries X_{ijl} = i + 2(j-1) + 4(l-1)
        t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
        expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        np.testing.assert_array_equal(unfold(t, 1), expected)

    def test_degenerate_column_tensor(self):
        t = np.arange(4.0).reshape((4, 1, 1))
        np.testing.assert_array_equal(unfold(t, 1), t.reshape(4, 1))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_triple_loop(self, mode):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4, 2))
        np.testing.assert_array_equal(unfold(t, mode), naive_unfold(t, mode))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_fold_inverts_unfold_exactly(self, mode):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 3, 5))
        np.testing.assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), 4)


class TestFold:
    def test_scalar(self):
        np.testing.assert_array_equal(fold(np.array([[5.0]]), 1, (1, 1, 1)), np.full((1, 1, 1), 5.0))

    def test_hand_example(self):
        mat = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        t = fold(mat, 1, (2, 2, 2))
        np.testing.assert_array_equal(t, np.arange(1.0, 9.0).reshape((2, 2, 2), order="F"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 3)), 1, (2, 2, 2))


class TestModeProduct:
    def test_identity(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 2, 4))
        np.testing.assert_array_equal(mode_product(t, np.eye(3), 1), t)

    def test_row_swap(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape((2, 2, 1))
        swapped = mode_product(t, np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
        np.testing.assert_array_equal(swapped[:, :, 0], np.array([[3.0, 4.0], [1.0, 2.0]]))

    def test_zero_matrix(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((2, 3, 2))
        assert not mode_product(t, np.zeros((5, 2)), 1).any()

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_unfold_consistency(self, mode):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dims = rng.integers(1, 6, size=3)
            t = rng.standard_normal(tuple(dims))
            a = rng.standard_normal((rng.integers(1, 6), dims[mode - 1]))
            lhs = unfold(mode_product(t, a, mode), mode)
            rhs = a @ unfold(t, mode)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mode_product(np.zeros((2, 2, 2)), np.zeros((2, 3)), 1)


class TestKronecker:
    def test_scalar_case(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(kronecker(np.array([[2.0]]), b), 2 * b)

    def test_identity_block_diagonal(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = kronecker(np.eye(2), b)
        np.testing.assert_array_equal(out[:2, :2], b)
        np.testing.assert_array_equal(out[2:, 2:], b)
        assert not out[:2, 2:].any() and not out[2:, :2].any()

    def test_mixed_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, d, e = (rng.standard_normal((2, 2)) for _ in range(4))
            lhs = kronecker(a, b) @ kronecker(d, e)
            rhs = kronecker(a @ d, b @ e)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_orthonormal_kron_spectral_norm_at_most_one(self):
        # power iteration on (A kron B)^T (A kron B)
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = random_orthonormal(rng, 5, 3)
            b = random_orthonormal(rng, 4, 2)
            m = kronecker(a, b)
            v = rng.standard_normal(m.shape[1])
            v /= np.linalg.norm(v)
            for _ in range(300):
                v = m.T @ (m @ v)
                v /= np.linalg.norm(v)
            sigma = np.sqrt(v @ (m.T @ (m @ v)))
            assert sigma <= 1 + 1e-8


class TestOuterProductIdentities:
    def test_mode2_unfolding_is_kron(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(3)
        x = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(unfold(outer(a, x), 2), kronecker(x, a[None, :]))

    def test_mode3_unfolding_is_kron(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(2)
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(unfold(outer(a, x), 3), kronecker(x.T, a[None, :]))

    def test_frobenius_factorizes(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.standard_normal(4)
            x = rng.standard_normal((3, 5))
            lhs = np.linalg.norm(outer(a, x))
            rhs = np.linalg.norm(a) * np.linalg.norm(x)
            assert abs(lhs - rhs) <= 1e-12


class TestTuckerReconstruct:
    def test_zero_core(self):
        rng = np.random.default_rng(13)
        f = TuckerFactors(
            core=np.zeros((2, 2, 1)),
            a1=random_orthonormal(rng, 4, 2),
            a2=random_orthonormal(rng, 4, 2),
            a3=random_orthonormal(rng, 3, 1),
        )
        assert not tucker_reconstruct(f).any()

    def test_rank_one(self):
        rng = np.random.default_rng(14)
        a1 = random_orthonormal(rng, 5, 1)
        a2 = random_orthonormal(rng, 4, 1)
        a3 = random_orthonormal(rng, 3, 1)
        g = 2.5
        f = TuckerFactors(core=np.full((1, 1, 1), g), a1=a1, a2=a2, a3=a3)
        w = tucker_reconstruct(f)
        expected = g * a1[:, 0, None, None] * a2[None, :, 0, None] * a3[None, None, :, 0]
        assert np.max(np.abs(w - expected)) <= 1e-12

    def test_orthonormal_factors_preserve_norm(self):
        rng = np.random.default_rng(15)
        core = rng.standard_normal((2, 3, 2))
        f = TuckerFactors(
            core=core,
            a1=random_orthonormal(rng, 5, 2),
            a2=random_orthonormal(rng, 6, 3),
            a3=random_orthonormal(rng, 4, 2),
        )
        assert abs(np.linalg.norm(tucker_reconstruct(f)) - np.linalg.norm(core)) <= 1e-12

    def test_mode1_unfolding_formula(self):
        rng = np.random.default_rng(16)
        core = rng.standard_normal((2, 2, 2))
        a1 = random_orthonormal(rng, 4, 2)
        a2 = random_orthonormal(rng, 4, 2)
        a3 = random_orthonormal(rng, 3, 2)
        w = tucker_reconstruct(TuckerFactors(core=core, a1=a1, a2=a2, a3=a3))
        expected = a1 @ unfold(core, 1) @ kronecker(a3, a2).T
        assert np.max(np.abs(unfold(w, 1) - expected)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        f = TuckerFactors(core=np.zeros((2, 2, 2)), a1=np.eye(3), a2=np.eye(2), a3=np.eye(2))
        with pytest.raises(ValueError):
            tucker_reconstruct(f)

    def test_validate_flags_non_orthonormal(self):
        f = TuckerFactors(
            core=np.zeros((2, 2, 2)),
            a1=np.full((3, 2), 0.5),
            a2=np.eye(2),
            a3=np.eye(2),
        )
        with pytest.raises(ValueError):
            f.validate()


def norm_cases():
    """Arrays of every layout the solver and the initializer take norms of,
    with entries over 16 orders of magnitude, so that a different summation
    order would change the last bits."""
    rng = np.random.default_rng(40)

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)

    square = draw(30, 30)
    return {
        "1-d": draw(400),
        "2-d C-ordered": draw(12, 36),
        "2-d F-ordered": np.asfortranarray(draw(12, 36)),
        "transposed": square.T,
        "strided": draw(40, 60)[::3, 1::2],
        "3-d": draw(5, 6, 7),
        "3-d folded view": fold(draw(4, 30), 2, (6, 4, 5)),
        "3-d transposed": draw(5, 6, 7).transpose(2, 0, 1),
    }


class TestFrobenius:
    @pytest.mark.parametrize("name", list(norm_cases()))
    def test_same_bits_as_numpy_norm(self, name):
        x = norm_cases()[name]
        got = _frobenius(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.linalg.norm(x).tobytes()
