"""Checks of the numpy kernels against dense and plain-python oracles."""
import numpy as np
import pytest

from statekit import _kernels

from conftest import count_calls, random_coupling, two_copy_ry_layer, zz_energy_oracle


class TestBackendResolution:
    def test_active_backend_reported(self):
        assert _kernels.backend() == "numpy"


def rotation_layer_oracle(n, angles):
    """Dense kron of 2x2 rotation blocks, used as the reference operator."""
    rot = np.ones((1, 1))
    for a in angles:
        block = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        rot = np.kron(rot, block)
    return rot.astype(complex)


def angle_sets(n, rng):
    """Random angles, all +0.0, all -0.0, and random angles with zeros of both signs."""
    mixed = rng.uniform(-np.pi, np.pi, n)
    mixed[::2] = 0.0
    mixed[1::3] = -0.0
    return [rng.uniform(-np.pi, np.pi, n), np.zeros(n), np.full(n, -0.0), mixed]


class TestRyLayer:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_numpy_matches_dense_operator(self, n, rng):
        angles = rng.uniform(-np.pi, np.pi, n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        expected = rotation_layer_oracle(n, angles) @ amps
        got = _kernels.ry_layer(amps, angles)
        assert np.abs(got - expected).max() < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity_columns_give_dense_operator(self, n, rng):
        angles = rng.uniform(-np.pi, np.pi, n)
        # the same products in the same order, as ry_matrix forms them
        assert np.array_equal(_kernels.ry_layer(np.eye(1 << n), angles), rotation_layer_oracle(n, angles))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_per_column_angles_match_single_columns(self, n, k, rng):
        angles = rng.uniform(-np.pi, np.pi, (n, k))
        amps = rng.standard_normal((1 << n, k)) + 1j * rng.standard_normal((1 << n, k))
        columns = [_kernels.ry_layer(amps[:, j], angles[:, j]) for j in range(k)]
        assert _kernels.ry_layer(amps, angles).tobytes() == np.stack(columns, axis=1).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    def test_bit_equal_to_two_copy_formula(self, n, rng):
        dim = 1 << n
        signed_zeros = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
        signed_zeros.real[::3] = -0.0
        signed_zeros.imag[1::2] = 0.0
        signed_zeros.imag[::4] = -0.0
        vacua = np.zeros((dim, 4), dtype=np.complex128)
        vacua[0] = 1.0
        stacks = [
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
            rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3)),
            signed_zeros,
            vacua,
            np.eye(dim),
        ]
        for amps in stacks:
            sets = angle_sets(n, rng)
            cases = sets + [rng.uniform(-np.pi, np.pi, (n,) + amps.shape[1:])]
            if amps.ndim == 2:  # per-column angles, column j from set j mod 4
                cases.append(np.stack([sets[j % 4] for j in range(amps.shape[1])], axis=1))
            for angles in cases:
                assert _kernels.ry_layer(amps, angles).tobytes() == two_copy_ry_layer(amps, angles).tobytes()

    def test_input_not_mutated(self, rng):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        before = amps.copy()
        _kernels.ry_layer(amps, np.array([0.3, -0.7]))
        assert np.array_equal(amps, before)


class TestRyMatrix:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_ry_layer_of_identity(self, n, rng):
        for angles in angle_sets(n, rng):
            got = _kernels.ry_matrix(angles)
            assert got.dtype == np.complex128 and got.shape == (1 << n, 1 << n)
            # the same products in the same order: only the sign of a zero may differ
            assert np.array_equal(got, _kernels.ry_layer(np.eye(1 << n), angles))


class TestZZDiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_numpy_matches_python_oracle(self, n, rng):
        j = random_coupling(n, rng)
        assert np.abs(_kernels.zz_diagonal(j) - zz_energy_oracle(j)).max() < 1e-12


class TestPairSum:
    def pair_sum_oracle(self, t):
        acc = 0.0 + 0.0j
        for x in range(t.size):
            for xp in range(t.size):
                if x != xp:
                    acc += t[x] * np.conj(t[xp])
        assert abs(acc.imag) < 1e-12
        return acc.real

    @pytest.mark.parametrize("dim", [2, 4, 8, 32])
    def test_numpy_matches_ordered_oracle(self, dim, rng):
        t = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        got = _kernels.pair_sum(_kernels.pair_terms(t))
        assert got == pytest.approx(self.pair_sum_oracle(t), abs=1e-11)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_pair_terms_match_python_loop(self, dim, rng):
        t = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        expected = [t[x] * np.conj(t[xp]) for x in range(dim) for xp in range(x + 1, dim)]
        # vectorized complex products may differ from scalar ones in the last bit
        assert _kernels.pair_terms(t) == pytest.approx(expected, rel=8 * np.finfo(np.float64).eps)

    @pytest.mark.parametrize("dim", [1, 2, 5, 64])
    def test_pair_indices_are_shared_and_read_only(self, dim):
        rows, cols = _kernels.pair_indices(dim)
        assert _kernels.pair_indices(dim)[0] is rows
        expected = np.triu_indices(dim, 1)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
        with pytest.raises(ValueError):
            rows[...] = 0

    def test_single_element_no_pairs(self):
        terms = _kernels.pair_terms(np.array([1.0 + 2.0j]))
        assert terms.shape == (0,)
        assert _kernels.pair_sum(terms) == 0.0

    # reference formulas whose bits the kernels keep: the outer product's upper
    # triangle, and each term plus its conjugate
    @staticmethod
    def outer_product_terms(t):
        return np.outer(t, t.conj())[np.triu_indices(t.size, 1)]

    @staticmethod
    def conjugate_pair_sum(terms):
        return float((terms + terms.conj()).sum().real)

    @staticmethod
    def pair_input(kind, dim, rng):
        t = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if kind == "real":  # phase-locked: imaginary parts +0 and -0
            t = t.real + 1j * np.copysign(0.0, t.imag)
        elif kind == "zeros":
            t[rng.random(dim) < 0.3] = 0.0
            t[dim // 2] = 0.0
        return t

    @pytest.mark.parametrize("kind", ["complex", "real", "zeros"])
    @pytest.mark.parametrize("dim", [*range(1, 65), 128, 256, 1024])
    def test_bit_equal_to_outer_product_formula(self, dim, kind, rng):
        t = self.pair_input(kind, dim, rng)
        terms = _kernels.pair_terms(t)
        expected = self.outer_product_terms(t)
        assert terms.tobytes() == expected.tobytes()
        got = np.float64(_kernels.pair_sum(terms))
        assert got.tobytes() == np.float64(self.conjugate_pair_sum(expected)).tobytes()

    def test_two_elements_bit_equal_to_outer_product_formula(self, rng):
        # N = 2 is one product, where an in-place product rounds differently
        for kind in ["complex", "real", "zeros"]:
            for _ in range(200):
                t = self.pair_input(kind, 2, rng)
                assert _kernels.pair_terms(t).tobytes() == self.outer_product_terms(t).tobytes()

    # term counts straddling numpy's pairwise-sum unroll and block edges
    @pytest.mark.parametrize("count", [*range(1, 18), 63, 64, 65, 127, 128, 129, 255, 256, 257, 2016, 32640])
    def test_sum_bit_equal_to_conjugate_pair_sum(self, count, rng):
        terms = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        got = np.float64(_kernels.pair_sum(terms))
        assert got.tobytes() == np.float64(self.conjugate_pair_sum(terms)).tobytes()


class TestPairSums:
    """``pair_sums`` against ``pair_sum(pair_terms(row))`` per row, as float64 bytes, so
    the order of every addition and the sign of a zero count."""

    @staticmethod
    def rows(kind, k, dim, rng):
        t = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
        if kind == "real":  # phase-locked: imaginary parts +0 and -0
            t = t.real + 1j * np.copysign(0.0, t.imag)
        elif kind == "zeros":
            t[rng.random((k, dim)) < 0.3] = 0.0
        elif kind == "negative-zeros":
            t[rng.random((k, dim)) < 0.5] = complex(-0.0, -0.0)
        return t

    @staticmethod
    def assert_bit_equal(t):
        expected = np.array([_kernels.pair_sum(_kernels.pair_terms(row)) for row in t], dtype=np.float64)
        got = _kernels.pair_sums(t)
        assert got.dtype == np.float64 and got.shape == (len(t),)
        assert got.tobytes() == expected.tobytes()

    # row lengths at the edges of numpy's unroll (8 doubles) and blocks (128), and where
    # the packed gather hands over to the split tree (M = 8,128 at N = 128, 8,256 at N = 129)
    @pytest.mark.parametrize("kind", ["complex", "real", "zeros", "negative-zeros"])
    @pytest.mark.parametrize("dim", [*range(1, 18), 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513])
    def test_bit_equal_per_row(self, dim, kind, rng):
        self.assert_bit_equal(self.rows(kind, 3 if dim > 256 else 9, dim, rng))

    # a packed block holds 8,192 // M rows: 8,192 at N = 2, 4 at N = 64, 1 at N = 128
    @pytest.mark.parametrize("dim, k", [(2, 8191), (2, 8192), (2, 8193), (64, 3), (64, 4), (64, 5),
                                        (64, 7), (64, 8), (64, 9), (128, 1), (128, 2)])
    def test_packed_block_edges(self, dim, k, rng):
        self.assert_bit_equal(self.rows("complex", k, dim, rng))

    def test_packed_block_keeps_numpy_tree(self, rng):
        # a whole block of rows summed along axis 1 takes numpy's tree only when
        # each row is contiguous: an F-ordered gather changes most of these sums
        for dim in (16, 33, 64, 90, 128):
            self.assert_bit_equal(self.rows("complex", 64, dim, rng))

    @pytest.mark.parametrize("pack", [64, 100, 1000])
    def test_split_tree_at_small_leaves(self, pack, monkeypatch, rng):
        # leaves from the smallest numpy block (64 terms) up, rows split across leaves;
        # rows of at most ``pack`` terms take the gather, so both routes meet at each size
        monkeypatch.setattr(_kernels, "_PACK", pack)
        for dim in [*range(2, 70), 127, 128, 129, 181, 182, 183, 255, 256, 257]:
            for kind in ["complex", "real", "zeros", "negative-zeros"]:
                self.assert_bit_equal(self.rows(kind, 3, dim, rng))

    @pytest.mark.parametrize("dim", [1024, 2047, 2048])
    def test_split_tree_at_size(self, dim, rng):
        self.assert_bit_equal(self.rows("complex", 2, dim, rng))

    def test_one_row_of_4096(self, monkeypatch, rng):
        # the oracle's terms come from row products, not the 2 x 67 MB index pair
        indices = count_calls(monkeypatch, "pair_indices", module="_kernels")
        t = self.rows("zeros", 1, 4096, rng)
        terms = np.concatenate([t[0, x] * t[0, x + 1:].conj() for x in range(4095)])
        expected = np.float64(2.0 * terms.sum().real)
        del terms
        assert _kernels.pair_sums(t).tobytes() == expected.tobytes()
        assert indices == []

    def test_split_tree_builds_no_index_pair(self, monkeypatch, rng):
        indices = count_calls(monkeypatch, "pair_indices", module="_kernels")
        _kernels.pair_sums(self.rows("complex", 2, 129, rng))  # M = 8,256 terms: the tree
        assert indices == []
        _kernels.pair_sums(self.rows("complex", 2, 128, rng))  # M = 8,128: the gather
        assert indices == [128]


def test_dispatchers_accept_loose_dtypes():
    out = _kernels.ry_layer(np.array([1, 0]), np.array([0.0]))
    assert out.dtype == np.complex128
    diag = _kernels.zz_diagonal(np.zeros((2, 2), dtype=int))
    assert diag.dtype == np.float64
