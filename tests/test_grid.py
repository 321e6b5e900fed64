"""Grid construction, transforms, multipliers, interpolation."""

import tracemalloc

import numpy as np
import pytest

from fpmflow.grid import (TRIG_BLOCK, DensityField, antiderivative_at, antiderivative_eval,
                          antiderivative_layout, apply_multiplier, evaluate_trig,
                          make_grid, spectral_derivative, trig_eval, trig_layout)


class TestMakeGrid:
    def test_nodes_n8(self):
        grid = make_grid(8)
        assert np.allclose(grid.nodes, -0.5 + np.arange(8) / 8)
        assert grid.nodes[0] == -0.5
        assert grid.nodes[-1] == 0.375

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(9)

    def test_rejects_seven(self):
        with pytest.raises(ValueError):
            make_grid(7)

    def test_rejects_float_size(self):
        with pytest.raises(TypeError, match="integer"):
            make_grid(64.0)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match="at least 8"):
            make_grid(4)

    def test_spacing_exact(self):
        grid = make_grid(512)
        assert grid.dx == 1.0 / 512
        assert np.all(np.diff(grid.nodes) == grid.dx)

    def test_no_duplicated_endpoint(self):
        grid = make_grid(64)
        assert grid.nodes[-1] < 0.5

    def test_wavenumber_range(self):
        grid = make_grid(16)
        assert grid.k_half[0] == 0
        assert grid.k_half[-1] == 8


class TestTransforms:
    def test_mean_is_zero_mode(self):
        grid = make_grid(64)
        rng = np.random.default_rng(1)
        f = DensityField(grid, rng.normal(size=64))
        assert abs(f.coefficients[0].real - f.mean) < 1e-14
        assert abs(f.coefficients[0].imag) < 1e-14

    def test_single_mode_coefficient(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * 3 * grid.nodes))
        c = f.coefficients
        assert abs(c[3] - 0.5) < 1e-14
        others = np.abs(c)
        assert others[:3].max() < 1e-14 and others[4:].max() < 1e-14

    def test_parseval(self):
        grid = make_grid(256)
        rng = np.random.default_rng(7)
        f = DensityField(grid, rng.normal(size=256))
        # the half spectrum counts each interior mode twice (k and -k)
        c = f.coefficients
        w = np.where((grid.k_half > 0) & (grid.k_half < 128), 2.0, 1.0)
        spec = float(np.sum(w * np.abs(c) ** 2))
        phys = float(np.mean(f.values ** 2))
        assert abs(spec - phys) < 1e-10 * phys

    def test_rejects_nonfinite(self):
        grid = make_grid(8)
        with pytest.raises(ValueError, match="finite"):
            DensityField(grid, np.array([1.0, np.nan] + [0.0] * 6))

    @pytest.mark.parametrize("shape", [(7,), (9,), (2, 8)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="does not match grid size 8"):
            DensityField(make_grid(8), np.zeros(shape))


class TestSpectralDerivative:
    def test_sin(self):
        grid = make_grid(64)
        f = DensityField(grid, np.sin(2 * np.pi * grid.nodes))
        d = spectral_derivative(f)
        assert np.max(np.abs(d.values - 2 * np.pi * np.cos(2 * np.pi * grid.nodes))) < 1e-10

    def test_constant(self):
        grid = make_grid(32)
        d = spectral_derivative(DensityField(grid, np.full(32, 3.7)))
        assert np.max(np.abs(d.values)) == 0.0

    def test_one_minus_cos(self):
        grid = make_grid(64)
        f = DensityField(grid, 1.0 - np.cos(2 * np.pi * grid.nodes))
        d = spectral_derivative(f)
        assert np.max(np.abs(d.values - 2 * np.pi * np.sin(2 * np.pi * grid.nodes))) < 1e-10


class TestApplyMultiplier:
    def test_identity(self):
        grid = make_grid(64)
        rng = np.random.default_rng(3)
        f = DensityField(grid, rng.normal(size=64))
        out = apply_multiplier(f, np.ones(33))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_derivative_symbol(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        out = apply_multiplier(f, 2j * np.pi * grid.k_half)
        assert np.max(np.abs(out.values + 2 * np.pi * np.sin(2 * np.pi * grid.nodes))) < 1e-10

    def test_abs_symbol_eigenfunction(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        out = apply_multiplier(f, 2 * np.pi * grid.k_half)
        assert np.max(np.abs(out.values - 2 * np.pi * f.values)) < 1e-10

    @pytest.mark.parametrize("length", (16, 18, 32))
    def test_rejects_wrong_length(self, length):
        grid = make_grid(32)
        f = DensityField(grid, np.ones(32))
        with pytest.raises(ValueError, match="0 .. n/2"):
            apply_multiplier(f, np.ones(length))

    def test_linearity(self):
        grid = make_grid(64)
        rng = np.random.default_rng(5)
        fa = rng.normal(size=64)
        fb = rng.normal(size=64)
        sym = (2 * np.pi * grid.k_half) ** 0.7
        out_sum = apply_multiplier(DensityField(grid, 2.0 * fa + 3.0 * fb), sym)
        a = apply_multiplier(DensityField(grid, fa), sym)
        b = apply_multiplier(DensityField(grid, fb), sym)
        assert np.max(np.abs(out_sum.values - 2.0 * a.values - 3.0 * b.values)) < 1e-12


class TestTrigInterpolate:
    def test_resolved_mode_exact(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        assert abs(evaluate_trig(f, [1.0 / 3.0])[0] - np.cos(2 * np.pi / 3.0)) < 1e-10

    def test_nodal_values(self):
        grid = make_grid(32)
        rng = np.random.default_rng(11)
        f = DensityField(grid, rng.normal(size=32))
        vals = evaluate_trig(f, grid.nodes)
        assert np.max(np.abs(vals - f.values)) < 1e-12

    def test_refined_grid_oracle(self):
        # smooth bump against direct evaluation on a 4x finer grid
        coarse = make_grid(128)
        fine = make_grid(512)
        profile = lambda x: np.exp(np.cos(2 * np.pi * x) * 1.5)
        f = DensityField(coarse, profile(coarse.nodes))
        xs = fine.nodes
        interp = evaluate_trig(f, xs)
        assert np.max(np.abs(interp - profile(xs))) < 1e-8

    def test_wraps_outside_period(self):
        grid = make_grid(64)
        f = DensityField(grid, np.sin(2 * np.pi * grid.nodes))
        assert abs(evaluate_trig(f, [0.7])[0] - evaluate_trig(f, [-0.3])[0]) < 1e-12


def _direct_sum(c, xs, n):
    """c_0 + 2 Re sum_{0<k<n/2} c_k e^{2 pi i k x} + c_{n/2} cos(pi n x) term
    by term, each phase k x reduced mod 1 in exact integer arithmetic (x is
    num / den with den a power of 2), so the phases carry no argument error."""
    out = []
    for x in np.atleast_1d(xs):
        num, den = float(x).as_integer_ratio()
        frac = np.array([k * num % den / den for k in range(n // 2 + 1)])
        phases = np.exp(2j * np.pi * frac)
        out.append(c[0].real + 2.0 * (phases[1:-1] @ c[1:-1]).real
                   + c[-1].real * phases[-1].real)
    return np.array(out)


def _white_noise_row(n, seed):
    grid = make_grid(n)
    values = np.random.default_rng(seed).normal(size=n)
    return grid, grid.coefficients(values), values


class TestTrigSum:
    # n/2 = 4, 9, 1024, 4096 are squares, 32 and 512 are not, 5 and 7 are prime
    @pytest.mark.parametrize("n", [8, 10, 14, 18, 64, 1024, 2048, 8192])
    def test_against_direct_sum(self, n):
        grid, c, _ = _white_noise_row(n, n)
        inside = np.random.default_rng(n + 1).uniform(-0.5, 0.5, 8)
        xs = np.concatenate((inside, [3.7, -3.7, -12.3, 0.5, -0.5]))
        err = np.abs(trig_eval(grid, trig_layout(grid, c), xs) - _direct_sum(c, xs, n))
        assert err.max() <= 1e-12 * np.abs(c).sum()

    @pytest.mark.parametrize("n", [8, 18, 1024, 8192])
    def test_exact_at_nodes(self, n):
        grid, c, values = _white_noise_row(n, 3)
        err = np.abs(trig_eval(grid, trig_layout(grid, c), grid.nodes) - values)
        assert err.max() <= 1e-12 * np.abs(c).sum()

    @pytest.mark.parametrize("count", [2048, 2049])
    def test_block_boundary(self, count):
        grid, c, _ = _white_noise_row(64, 5)
        xs = np.random.default_rng(count).uniform(-0.5, 0.5, count)
        out = trig_eval(grid, trig_layout(grid, c), xs)
        assert out.shape == (count,)
        picks = [0, 2046, 2047, count - 1]
        err = np.abs(out[picks] - _direct_sum(c, xs[picks], 64))
        assert err.max() <= 1e-12 * np.abs(c).sum()

    def test_scalar_point(self):
        # a float comes back as a float; a point set of one, and
        # evaluate_trig at a float, as a one-point array
        grid, c, values = _white_noise_row(64, 7)
        layout = trig_layout(grid, c)
        out = trig_eval(grid, layout, 0.3)
        assert isinstance(out, float)
        alone = trig_eval(grid, layout, [0.3])
        assert alone.shape == (1,)
        assert out == alone[0]
        assert evaluate_trig(DensityField(grid, values), 0.3).shape == (1,)

    def test_nyquist_only_row(self):
        grid = make_grid(16)
        c = np.zeros(9, dtype=complex)
        c[-1] = 0.7
        xs = np.linspace(-0.5, 0.5, 37)
        out = trig_eval(grid, trig_layout(grid, c), xs)
        assert np.max(np.abs(out - 0.7 * np.cos(16 * np.pi * xs))) < 1e-14

    def test_block_holds_one_phase_matrix(self):
        # a full block of 2048 points at n = 2048 needs 2 MiB of phases and
        # 1 MiB of inner sums; a second phase matrix would take it past 4 MiB
        grid, c, _ = _white_noise_row(2048, 11)
        xs = np.random.default_rng(12).uniform(-0.5, 0.5, TRIG_BLOCK)
        trig_eval(grid, trig_layout(grid, c), xs[:4])  # builds the grid's cached rows first
        tracemalloc.start()
        try:
            trig_eval(grid, trig_layout(grid, c), xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2 ** 20

    def test_blocks_hold_one_phase_matrix_at_a_time(self):
        # past one block, each block's phases go before the next block's come
        grid, c, _ = _white_noise_row(2048, 11)
        xs = np.random.default_rng(12).uniform(-0.5, 0.5, 2 * TRIG_BLOCK + 3)
        trig_eval(grid, trig_layout(grid, c), xs[:4])
        tracemalloc.start()
        try:
            trig_eval(grid, trig_layout(grid, c), xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2 ** 20

    @pytest.mark.parametrize("n, count", [(1024, 46), (2048, 64)])
    def test_exponents_per_point(self, n, count):
        # B + Q factorised phases per point, against n/2 - 1 direct ones
        assert len(make_grid(n)._trig_rows[1]) == count


class TestAntiderivative:
    def test_mean_plus_periodic(self):
        grid = make_grid(128)
        f = DensityField(grid, 1.0 - np.cos(2 * np.pi * grid.nodes))
        vals = antiderivative_at(f, [0.0, 0.25, 0.5])
        exact = lambda x: x - np.sin(2 * np.pi * x) / (2 * np.pi)
        assert abs(vals[0]) < 1e-14
        assert abs(vals[1] - exact(0.25)) < 1e-12
        assert abs(vals[2] - exact(0.5)) < 1e-12

    def test_closed_forms_across_blocks(self):
        # 5,000 points fill three 2,048-point phase matrices
        grid = make_grid(128)
        f = DensityField(grid, 1.0 - np.cos(2 * np.pi * grid.nodes))
        xs = np.linspace(-0.5, 0.5, 5000)
        assert np.max(np.abs(evaluate_trig(f, xs) - (1.0 - np.cos(2 * np.pi * xs)))) < 1e-12
        exact = xs - np.sin(2 * np.pi * xs) / (2 * np.pi)
        assert np.max(np.abs(antiderivative_at(f, xs) - exact)) < 1e-12


def _trig_sum_one_pass(grid, c, xs):
    """The trig sum as one function that lays out c and evaluates it, block
    by block: the reference for the layout-plus-kernel split."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    b, row = grid._trig_rows
    cqr = np.zeros((len(row) - b) * b, dtype=complex)
    cqr[1:grid.n // 2] = c[1:-1]
    out = np.empty(len(xs))
    for lo in range(0, len(xs), 2048):
        xb = xs[lo:lo + 2048]
        phases = np.exp(xb[:, None] * row)
        inner = phases[:, :b] @ cqr.reshape(-1, b).T
        inner *= phases[:, b:]
        out[lo:lo + 2048] = (c[0].real + 2.0 * inner.real.sum(axis=1)
                             + c[-1].real * np.cos(np.pi * grid.n * xb))
    return out


def _antiderivative_one_pass(f, xs):
    """antiderivative_at as one function, on `_trig_sum_one_pass`."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    c, n = f.coefficients, f.grid.n
    a = np.zeros_like(c)
    a[1:-1] = c[1:-1] / (2j * np.pi * f.grid.k_half[1:-1])
    periodic = _trig_sum_one_pass(f.grid, a, xs) - _trig_sum_one_pass(f.grid, a, [0.0])[0]
    return c[0].real * xs + periodic + c[-1].real * np.sin(np.pi * n * xs) / (np.pi * n)


class TestTrigLayout:
    """The layout-plus-kernel route gives the one-pass bits, point sets of
    any size and one-point float calls alike."""

    @pytest.mark.parametrize("n", [8, 1024, 2048])
    def test_matches_one_pass_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        grid = make_grid(n)
        rows = rng.normal(size=(3, n // 2 + 1)) + 1j * rng.normal(size=(3, n // 2 + 1))
        xs = rng.uniform(-2.0, 2.0, TRIG_BLOCK + 3)  # a full block and three more
        edge = xs[TRIG_BLOCK - 2:TRIG_BLOCK + 2]  # last two of a block, first two of the next
        for c in rows:
            expected = _trig_sum_one_pass(grid, c, xs)
            assert trig_eval(grid, trig_layout(grid, c), xs).tobytes() == expected.tobytes()
            layout = trig_layout(grid, c)
            blocks = [trig_eval(grid, layout, xs[:TRIG_BLOCK]),
                      trig_eval(grid, layout, xs[TRIG_BLOCK:])]
            assert np.concatenate(blocks).tobytes() == expected.tobytes()
            for x in edge.tolist():
                alone = _trig_sum_one_pass(grid, c, [x])
                assert trig_eval(grid, layout, x) == alone[0]
                assert trig_eval(grid, trig_layout(grid, c), [x]).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [8, 1024, 2048])
    def test_many_blocks_match_per_block_calls(self, n):
        # 2 TRIG_BLOCK + 3 points: two full blocks and three more in one call
        rng = np.random.default_rng(n + 2)
        grid = make_grid(n)
        c = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
        xs = rng.uniform(-2.0, 2.0, 2 * TRIG_BLOCK + 3)
        layout = trig_layout(grid, c)
        out = trig_eval(grid, layout, xs)
        blocks = [trig_eval(grid, layout, xs[lo:lo + TRIG_BLOCK])
                  for lo in range(0, len(xs), TRIG_BLOCK)]
        assert out.shape == xs.shape
        assert out.tobytes() == np.concatenate(blocks).tobytes()
        assert out.tobytes() == _trig_sum_one_pass(grid, c, xs).tobytes()
        for x in xs[TRIG_BLOCK - 1:TRIG_BLOCK + 1].tolist() + xs[-2:].tolist():
            assert trig_eval(grid, layout, x) == trig_eval(grid, layout, np.array([x]))[0]

    @pytest.mark.parametrize("n", [8, 1024, 2048])
    def test_interpolated_layouts_match_interpolated_rows(self, n):
        # the layout of ca + f (cb - ca) built from the layouts of ca and
        # cb - ca, as path advection builds its stage layouts
        rng = np.random.default_rng(n + 1)
        grid = make_grid(n)
        ca, cb = rng.normal(size=(2, n // 2 + 1)) + 1j * rng.normal(size=(2, n // 2 + 1))
        (a0, a1, a2), (d0, d1, d2) = trig_layout(grid, ca), trig_layout(grid, cb - ca)
        xs = rng.uniform(-0.5, 0.5, 16).tolist()
        for f in (0.0, 0.125, 0.5, 0.875, 1.0):
            layout = (a0 + f * d0, a1 + f * d1, a2 + f * d2)
            row = ca + np.outer([f], cb - ca)[0]
            assert [trig_eval(grid, layout, x) for x in xs] == [
                _trig_sum_one_pass(grid, row, [x])[0] for x in xs]

    @pytest.mark.parametrize("n", [8, 96, 1024, 2048])
    def test_shared_phase_vector_keeps_each_layouts_bits(self, n):
        # several layouts at one float from one phase vector, as a path
        # tracer reads u, rho and F at a snapshot, and the unit phase row
        # at 0.0 that gives an antiderivative layout its constant
        rng = np.random.default_rng(n + 3)
        grid = make_grid(n)
        fields = [DensityField(grid, values) for values in rng.normal(size=(3, n))]
        rows = [f.coefficients for f in fields] + list(
            rng.normal(size=(2, n // 2 + 1)) + 1j * rng.normal(size=(2, n // 2 + 1)))
        layouts = [trig_layout(grid, c) for c in rows]
        xs = [0.0, -0.0, -0.3, 0.5, -0.5, 0.73, -1.61, 2.25] + rng.uniform(-2.0, 2.0, 4).tolist()
        for x in xs:
            shared = trig_eval(grid, layouts, x)
            assert shared == [trig_eval(grid, layout, x) for layout in layouts]
            assert shared == [trig_eval(grid, layout, [x])[0] for layout in layouts]
            assert shared == [_trig_sum_one_pass(grid, c, [x])[0] for c in rows]
        for f in fields:
            c = f.coefficients
            a = np.zeros_like(c)
            a[1:-1] = c[1:-1] / (2j * np.pi * grid.k_half[1:-1])
            layout = trig_layout(grid, a)
            (_, constant, _), _, _ = antiderivative_layout(f)
            assert constant == -trig_eval(grid, layout, 0.0)
            assert constant == -trig_eval(grid, layout, [0.0])[0]  # the exponential route
            assert constant == -_trig_sum_one_pass(grid, a, [0.0])[0]

    @pytest.mark.parametrize("n", [8, 1024])
    def test_antiderivative_matches_one_pass_bit_for_bit(self, n):
        grid, _, values = _white_noise_row(n, 11)
        f = DensityField(grid, values)
        xs = np.random.default_rng(12).uniform(-1.0, 1.0, TRIG_BLOCK + 3)
        expected = _antiderivative_one_pass(f, xs)
        assert antiderivative_at(f, xs).tobytes() == expected.tobytes()
        parts = antiderivative_layout(f)
        for x in xs[:8].tolist() + [0.0]:
            assert antiderivative_eval(grid, parts, x) == _antiderivative_one_pass(f, [x])[0]
        assert antiderivative_eval(grid, parts, 0.0) == 0.0
