import numpy as np
import pytest

from riggedframes import (
    InvalidConfigError,
    KernelMatrix,
    MapSpec,
    TestFunction,
    analysis,
    build_grid,
    bump_dirac_map,
    bump_profile,
    dirac_derivative_map,
    dirac_map,
    derivative_coeffs,
    fourier_map,
    hermite_eval,
    l2x_norm,
    load_custom_kernel,
    sample_kernel,
    save_kernel_csv,
    weighted_dirac_map,
    default_stage,
    stage_grid,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(13.0, 26, 8)


class TestMapSpec:
    def test_weighted_requires_weight(self):
        with pytest.raises(InvalidConfigError):
            MapSpec("weighted_dirac")

    def test_bump_requires_ordered_support(self):
        with pytest.raises(InvalidConfigError):
            MapSpec("bump_dirac", bump_support=(1.0, -1.0))

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfigError):
            MapSpec("gabor")

    def test_custom_requires_path(self):
        with pytest.raises(InvalidConfigError):
            MapSpec("custom")


class TestSampling:
    def test_dirac_rows_are_basis_samples(self, grid):
        kernel = sample_kernel(dirac_map(), grid, 8)
        j = grid.node_count // 2
        expected = [hermite_eval(n, grid.nodes[j]) for n in range(8)]
        assert kernel.entries[j] == pytest.approx(expected, abs=1e-15)

    def test_dirac_center_column_odd_mode(self):
        # odd panel count and order put a node exactly at the origin
        centered = build_grid(3.0, 3, 5)
        kernel = sample_kernel(dirac_map(), centered, 4)
        j = int(np.flatnonzero(centered.nodes == 0.0)[0])
        assert kernel.entries[j, 1] == 0.0

    def test_fourier_analysis_is_eigenrelation(self, grid):
        kernel = sample_kernel(fourier_map(), grid, 8)
        sampled = analysis(kernel, TestFunction.basis(3, 8))
        assert sampled == pytest.approx(1j * hermite_eval(3, grid.nodes), abs=1e-12)
        assert np.abs(sampled) == pytest.approx(np.abs(hermite_eval(3, grid.nodes)), abs=1e-12)

    def test_weighted_rows(self, grid):
        kernel = sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 6)
        j = 17
        w = 2 + np.sin(grid.nodes[j])
        expected = [w * hermite_eval(n, grid.nodes[j]) for n in range(6)]
        assert kernel.entries[j] == pytest.approx(expected, abs=1e-14)

    def test_weighted_analysis_is_pointwise_multiplication(self, grid):
        kernel = sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 16)
        rng = np.random.default_rng(4)
        f = TestFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        sampled = analysis(kernel, f)
        expected = (2 + np.sin(grid.nodes)) * f(grid.nodes)
        assert np.abs(sampled - expected).max() <= 1e-10

    def test_bump_vanishes_outside_support(self, grid):
        kernel = sample_kernel(bump_dirac_map(-1.0, 1.0), grid, 8)
        outside = np.abs(grid.nodes) >= 1.0
        assert np.all(kernel.entries[outside] == 0.0)

    def test_bump_peak_is_one(self):
        assert bump_profile(-1.0, 1.0, 0.0) == 1.0
        assert bump_profile(2.0, 6.0, 4.0) == 1.0

    def test_derivative_norm_matches_coefficient_route(self):
        # combined truncation + quadrature error budget for a smooth function
        stage = default_stage(16)
        grid16 = stage_grid(stage)
        kernel = sample_kernel(dirac_derivative_map(), grid16, 16)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[:8] = (0.5 + 0.1j) ** np.arange(8)
        f = TestFunction(coeffs)
        df, spill = derivative_coeffs(f)
        assert spill == 0.0
        sampled_norm = l2x_norm(analysis(kernel, f), grid16)
        assert sampled_norm**2 == pytest.approx(df.norm() ** 2, abs=1e-6)

    def test_derivative_sign_convention(self, grid):
        kernel = sample_kernel(dirac_derivative_map(), grid, 4)
        # <h_0, delta'_x> = -h_0'(x) = x h_0(x)
        expected = grid.nodes * hermite_eval(0, grid.nodes)
        assert kernel.entries[:, 0] == pytest.approx(expected, abs=1e-13)


class TestCustomKernelCsv:
    def test_round_trip(self, tmp_path, grid):
        kernel = sample_kernel(dirac_map(), grid, 5)
        path = tmp_path / "kernel.csv"
        save_kernel_csv(kernel, path)
        loaded = load_custom_kernel(path, grid, 5)
        assert np.array_equal(loaded.entries, kernel.entries)

    def test_wrong_row_count(self, tmp_path, grid):
        kernel = sample_kernel(dirac_map(), grid, 5)
        path = tmp_path / "kernel.csv"
        save_kernel_csv(kernel.entries[:-1], path)
        with pytest.raises(InvalidConfigError, match="rows"):
            load_custom_kernel(path, grid, 5)

    def test_non_numeric_cell_reports_position(self, tmp_path, grid):
        kernel = sample_kernel(dirac_map(), grid, 3)
        path = tmp_path / "kernel.csv"
        save_kernel_csv(kernel, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = "oops"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidConfigError, match=r"row 2, column 4"):
            load_custom_kernel(path, grid, 3)

    def test_header_mismatch(self, tmp_path, grid):
        path = tmp_path / "kernel.csv"
        path.write_text("re0,im0\n1.0,0.0\n")
        with pytest.raises(InvalidConfigError, match="header"):
            load_custom_kernel(path, grid, 3)

    def test_save_matches_csv_writer_bytes(self, tmp_path, grid):
        import csv

        rng = np.random.default_rng(3)
        entries = np.array(sample_kernel(fourier_map(), grid, 4).entries)
        entries[:, 3] = rng.standard_normal(grid.node_count) * 10.0 ** rng.integers(
            -300, 300, grid.node_count
        ) + 1j * rng.standard_normal(grid.node_count)
        entries[0, 0] = complex(-0.0, -0.0)
        entries[1, 1] = complex(2.0**60, 1e-320)
        path = tmp_path / "kernel.csv"
        save_kernel_csv(entries, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{part}{n}" for n in range(4) for part in ("re", "im")])
            for row in entries:
                writer.writerow([f"{v:.17g}" for pair in zip(row.real, row.imag) for v in pair])
        assert path.read_bytes() == reference.read_bytes()
        loaded = load_custom_kernel(path, grid, 4)
        assert loaded.entries.dtype == complex
        assert np.array_equal(loaded.entries, entries)

    def test_wrong_cell_count_reports_row(self, tmp_path, grid):
        kernel = sample_kernel(dirac_map(), grid, 3)
        path = tmp_path / "kernel.csv"
        save_kernel_csv(kernel, path)
        lines = path.read_text().splitlines()
        lines[4] += ",0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidConfigError, match=r"row 4 has 7 cells, expected 6"):
            load_custom_kernel(path, grid, 3)
        # every row one pair too wide parses cleanly and is still refused
        wide = tmp_path / "wide.csv"
        save_kernel_csv(sample_kernel(dirac_map(), grid, 4).entries, wide)
        text = wide.read_text().splitlines()
        wide.write_text("\n".join([lines[0]] + text[1:]) + "\n")
        with pytest.raises(InvalidConfigError, match=r"row 1 has 8 cells, expected 6"):
            load_custom_kernel(wide, grid, 3)

    def test_interior_blank_line_reports_row(self, tmp_path, grid):
        kernel = sample_kernel(dirac_map(), grid, 3)
        path = tmp_path / "kernel.csv"
        save_kernel_csv(kernel, path)
        lines = path.read_text().splitlines()
        lines.insert(3, "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidConfigError, match=r"row 3 has 0 cells, expected 6"):
            load_custom_kernel(path, grid, 3)

    def test_header_only_file_is_refused_without_a_warning(self, tmp_path, grid):
        import warnings

        path = tmp_path / "kernel.csv"
        path.write_text(",".join(f"{p}{n}" for n in range(3) for p in ("re", "im")) + "\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match="0 data rows"):
                load_custom_kernel(path, grid, 3)

    def test_load_keeps_no_copy_of_the_file_text(self, tmp_path):
        """The load peaks below twice the parsed cells' bytes; reading the text
        into memory and parsing that took three times."""
        import tracemalloc

        grid = stage_grid(default_stage(64))
        path = tmp_path / "kernel.csv"
        save_kernel_csv(sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 64), path)
        cells_bytes = grid.node_count * 2 * 64 * 8
        tracemalloc.start()
        try:
            load_custom_kernel(path, grid, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * cells_bytes


class TestKernelStorage:
    def test_real_whenever_the_entries_are(self, tmp_path, grid):
        for spec in (dirac_map(), dirac_derivative_map(), weighted_dirac_map("2+sin(x)"),
                     bump_dirac_map(-1.0, 1.0)):
            assert sample_kernel(spec, grid, 6).entries.dtype == np.float64
        assert sample_kernel(fourier_map(), grid, 6).entries.dtype == complex
        real = sample_kernel(dirac_map(), grid, 6)
        assert KernelMatrix(real.entries.astype(complex), grid).entries.dtype == np.float64
        assert KernelMatrix(1j * real.entries, grid).entries.dtype == complex
        path = tmp_path / "kernel.csv"
        save_kernel_csv(real, path)
        assert load_custom_kernel(path, grid, 6).entries.dtype == np.float64

    def test_entries_read_only_and_independent_of_caller_array(self, grid):
        own = np.array(sample_kernel(dirac_map(), grid, 4).entries)
        kernel = KernelMatrix(own, grid)
        assert not kernel.entries.flags.writeable
        with pytest.raises(ValueError):
            kernel.entries[0, 0] = 1.0
        before = kernel.entries.copy()
        own[:] = 7.0
        assert np.array_equal(kernel.entries, before)
        shared = KernelMatrix(kernel.entries, grid)
        assert np.shares_memory(shared.entries, kernel.entries)


class TestFourierPhase:
    """fourier keeps the real dirac rows and its (-i)^n column phase apart;
    entries is still the complex matrix Omega."""

    def test_rows_are_the_dirac_rows_and_entries_apply_the_phase(self, grid):
        fourier = sample_kernel(fourier_map(), grid, 6)
        dirac = sample_kernel(dirac_map(), grid, 6)
        assert fourier.rows.dtype == np.float64
        assert np.array_equal(fourier.rows, dirac.rows)
        phase = (-1j) ** np.arange(6)
        assert np.array_equal(fourier.phase, phase)
        assert np.array_equal(fourier.entries, dirac.entries * phase[None, :])
        assert not fourier.entries.flags.writeable and not fourier.phase.flags.writeable

    def test_phase_must_be_unit_modulus_of_the_truncation_length(self, grid):
        rows = sample_kernel(dirac_map(), grid, 4).rows
        with pytest.raises(InvalidConfigError, match="phase"):
            KernelMatrix(rows, grid, phase=np.ones(3))
        with pytest.raises(InvalidConfigError, match="phase"):
            KernelMatrix(rows, grid, phase=np.full(4, 2.0))

    def test_save_fourier_matches_csv_writer_bytes(self, tmp_path):
        import csv

        truncation = 16
        kernel = sample_kernel(fourier_map(), stage_grid(default_stage(truncation)), truncation)
        path = tmp_path / "fourier.csv"
        save_kernel_csv(kernel, path)
        reference = tmp_path / "reference.csv"
        omega = kernel.rows * (-1j) ** np.arange(truncation)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{part}{n}" for n in range(truncation) for part in ("re", "im")])
            for row in omega:
                writer.writerow([f"{v:.17g}" for pair in zip(row.real, row.imag) for v in pair])
        assert path.read_bytes() == reference.read_bytes()


BUILTIN_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "2+sin(x)": weighted_dirac_map("2+sin(x)"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _negligible_count(rows):
    """Entries with 0 < |x| < NEGLIGIBLE * max|x|, a block of columns at a time."""
    from riggedframes.kernels import NEGLIGIBLE

    floor = NEGLIGIBLE * max(rows.max(), -rows.min())
    count = 0
    for start in range(0, rows.shape[1], 64):
        block = np.abs(rows[:, start : start + 64])
        count += int(np.count_nonzero((block > 0) & (block < floor)))
    return count


class TestNegligibleFloor:
    """Built-in rows carry no entry below NEGLIGIBLE times their largest."""

    @pytest.mark.parametrize("truncation", [512, 1024])
    def test_no_builtin_family_keeps_a_negligible_entry(self, truncation):
        grid = stage_grid(default_stage(truncation))
        for name, spec in BUILTIN_FAMILIES.items():
            rows = sample_kernel(spec, grid, truncation).rows
            assert _negligible_count(rows) == 0, name

    @pytest.mark.parametrize("family", ["dirac", "2+sin(x)", "dirac_derivative"])
    def test_zeroes_exactly_the_negligible_entries(self, family):
        from riggedframes.hermite import hermite_derivative_table, hermite_table
        from riggedframes.kernels import NEGLIGIBLE
        from riggedframes.weights import eval_weight

        truncation = 256
        grid = stage_grid(default_stage(truncation))
        spec = BUILTIN_FAMILIES[family]
        if family == "dirac_derivative":
            reference = -hermite_derivative_table(truncation, grid.nodes)
        else:
            reference = hermite_table(truncation, grid.nodes)
        if family == "2+sin(x)":
            reference *= eval_weight(spec.weight, grid.nodes)[:, None]
        negligible = np.abs(reference) < NEGLIGIBLE * np.abs(reference).max()
        assert np.count_nonzero(negligible & (reference != 0)) > 0
        rows = sample_kernel(spec, grid, truncation).rows
        expected = np.where(negligible, 0.0 * reference, reference)
        # equal to the bit: the kept entries, and the sign of every zero
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))

    def test_floors_in_place_with_block_sized_temporaries(self):
        import tracemalloc

        from riggedframes.hermite import hermite_table
        from riggedframes.kernels import _floor_negligible

        table = hermite_table(256, stage_grid(default_stage(256)).nodes)
        tracemalloc.start()
        try:
            _floor_negligible(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes / 8
        assert _negligible_count(table) == 0
