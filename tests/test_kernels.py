import numpy as np
import pytest

from riggedframes import kernels
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

    @pytest.mark.parametrize("b", [1.0, 2.5])
    def test_bump_on_a_symmetric_support_is_even_bit_for_bit(self, b):
        x = np.linspace(0.0, b, 1001)
        assert np.array_equal(bump_profile(-b, b, x), bump_profile(-b, b, -x))

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
        """What csv.writer writes with %.17g cells, for a complex kernel with
        extreme values, a real kernel (its imaginary columns all +0.0, written
        as the literal 0) and a kernel with an imaginary column of -0.0 only
        (written -0)."""
        import csv

        rng = np.random.default_rng(3)
        entries = np.array(sample_kernel(fourier_map(), grid, 4).entries)
        entries[:, 3] = rng.standard_normal(grid.node_count) * 10.0 ** rng.integers(
            -300, 300, grid.node_count
        ) + 1j * rng.standard_normal(grid.node_count)
        entries[0, 0] = complex(-0.0, -0.0)
        entries[1, 1] = complex(2.0**60, 1e-320)
        real = sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 4)
        negative_zero = np.array(real.rows, dtype=complex)
        negative_zero.imag[:, 2] = -0.0
        assert np.signbit(negative_zero[:, 2].imag).all()
        for case, kernel in (("complex", entries), ("real", real), ("negative_zero", negative_zero)):
            path = tmp_path / f"{case}.csv"
            save_kernel_csv(kernel, path)
            reference = tmp_path / f"{case}-reference.csv"
            cells = kernel.entries if case == "real" else kernel
            with open(reference, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"{part}{n}" for n in range(4) for part in ("re", "im")])
                for row in cells:
                    writer.writerow([f"{v:.17g}" for pair in zip(row.real, row.imag) for v in pair])
            assert path.read_bytes() == reference.read_bytes(), case
            loaded = load_custom_kernel(path, grid, 4)
            assert np.array_equal(loaded.entries, cells), case
        assert ",-0," in (tmp_path / "negative_zero.csv").read_text()
        assert load_custom_kernel(tmp_path / "complex.csv", grid, 4).entries.dtype == complex

    def test_save_reads_every_row_block_for_the_literal_columns(self, tmp_path):
        """The cells are formed a block of rows at a time: a column that is
        +0.0 in the first block and -0.0 in the last row only is still
        formatted, so that row writes -0, as csv.writer does."""
        import csv

        grid = stage_grid(default_stage(16))
        entries = np.array(sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 3).rows, dtype=complex)
        entries.imag[-1, 2] = -0.0
        assert grid.node_count > kernels._WRITE_LINES
        path, reference = tmp_path / "kernel.csv", tmp_path / "reference.csv"
        save_kernel_csv(entries, path)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{part}{n}" for n in range(3) for part in ("re", "im")])
            for row in entries:
                writer.writerow([f"{v:.17g}" for pair in zip(row.real, row.imag) for v in pair])
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_text().splitlines()[-1].endswith(",-0")

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

    def test_all_blank_data_lines_are_refused_without_a_warning(self, tmp_path, grid):
        import warnings

        path = tmp_path / "kernel.csv"
        path.write_bytes(b"re0,im0,re1,im1\r\n\r\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match=r"row 1 has 0 cells, expected 4"):
                load_custom_kernel(path, grid, 2)

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

    def test_real_kernel_loads_below_the_bytes_of_its_cells(self, tmp_path):
        """A kernel with every imaginary part +0.0 is parsed into real rows
        only: the load peaks below the bytes of its re/im cells, which a
        parse of all cells at once reaches by itself."""
        import tracemalloc

        grid = stage_grid(default_stage(128))
        path = tmp_path / "kernel.csv"
        kernel = sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 128)
        save_kernel_csv(kernel, path)
        cells_bytes = grid.node_count * 2 * 128 * 8
        tracemalloc.start()
        try:
            loaded = load_custom_kernel(path, grid, 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cells_bytes
        assert np.array_equal(loaded.rows, kernel.rows)

    def test_complex_kernel_keeps_signed_zeros_across_parse_blocks(self, tmp_path):
        """An imaginary part first nonzero past the first block of lines
        keeps the -0.0 of the lines before it, bit for bit."""
        grid = stage_grid(default_stage(64))
        entries = np.array(sample_kernel(dirac_map(), grid, 3).rows, dtype=complex)
        entries.imag[:, 1] = -0.0
        entries.imag[-1, 2] = 0.5
        path = tmp_path / "kernel.csv"
        save_kernel_csv(entries, path)
        loaded = load_custom_kernel(path, grid, 3).entries
        assert loaded.dtype == complex
        for part in ("real", "imag"):
            got, want = getattr(loaded, part), getattr(entries, part)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), part


class TestParseReuse:
    """load_custom_kernel keeps the rows of its last fast parse, keyed by the
    SHA-256 of the data bytes and N, and reuses them for unchanged bytes."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            calls.append(1)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        return calls

    def test_unchanged_bytes_reuse_the_rows_without_a_parse(self, tmp_path, grid, loadtxt_calls):
        entries = sample_kernel(fourier_map(), grid, 4).entries
        path, copy = tmp_path / "kernel.csv", tmp_path / "copy.csv"
        save_kernel_csv(entries, path)
        copy.write_bytes(path.read_bytes())
        first = load_custom_kernel(path, grid, 4)
        parses = len(loadtxt_calls)
        assert parses > 0
        for again in (path, copy):
            loaded = load_custom_kernel(again, grid, 4)
            assert loaded.rows is first.rows and not loaded.rows.flags.writeable
            assert loaded.map_spec.custom_kernel == str(again)
        assert len(loadtxt_calls) == parses
        # the kept rows are bit for bit what a fresh parse gives
        kernels._last_parse = None
        fresh = load_custom_kernel(path, grid, 4).rows
        assert fresh is not first.rows and len(loadtxt_calls) == 2 * parses
        assert fresh.dtype == complex and np.array_equal(fresh.view(np.int64), first.rows.view(np.int64))
        assert np.array_equal(fresh, entries)

    def test_a_same_length_rewrite_is_parsed_again(self, tmp_path, grid, loadtxt_calls):
        """Rows swapped in place keep the file's length, and its times are
        set back: the bytes differ, so the file is parsed again."""
        import os

        rows = sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 3).rows
        path = tmp_path / "kernel.csv"
        save_kernel_csv(rows, path)
        before = os.stat(path)
        load_custom_kernel(path, grid, 3)
        parses = len(loadtxt_calls)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        path.write_bytes(b"".join(lines))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        swapped = rows[[1, 0, *range(2, rows.shape[0])]]
        assert not np.array_equal(swapped, rows)
        loaded = load_custom_kernel(path, grid, 3)
        assert len(loadtxt_calls) == 2 * parses
        assert np.array_equal(loaded.rows, swapped)

    def test_a_hit_still_checks_the_header_and_the_grid(self, tmp_path, grid, loadtxt_calls):
        path = tmp_path / "kernel.csv"
        save_kernel_csv(sample_kernel(dirac_map(), grid, 3), path)
        kept = load_custom_kernel(path, grid, 3).rows
        parses = len(loadtxt_calls)
        with pytest.raises(InvalidConfigError, match="header does not match 4"):
            load_custom_kernel(path, grid, 4)
        other = build_grid(13.0, 27, 8)
        with pytest.raises(InvalidConfigError, match=f"data rows but the grid has {other.node_count} nodes"):
            load_custom_kernel(path, other, 3)
        assert len(loadtxt_calls) == parses
        assert kernels._last_parse[1] is kept

    def test_files_sent_to_the_rescan_are_never_kept(self, tmp_path, grid):
        """A blank line is refused and a file with lone-CR line ends loads
        through the rescan; neither leaves rows behind."""
        rows = sample_kernel(dirac_map(), grid, 3).rows
        path = tmp_path / "kernel.csv"
        save_kernel_csv(rows, path)
        text = path.read_bytes()
        path.write_bytes(text + b"\r\n")
        with pytest.raises(InvalidConfigError, match="has 0 cells"):
            load_custom_kernel(path, grid, 3)
        assert kernels._last_parse is None
        path.write_bytes(text.replace(b"\r\n", b"\r"))
        assert np.array_equal(load_custom_kernel(path, grid, 3).rows, rows)
        assert kernels._last_parse is None

    def test_bytes_rewritten_during_a_load_are_not_kept(self, tmp_path, grid, monkeypatch):
        """The file changes between the counting pass and the parse: the
        parse is returned, but not kept under the counting pass's key."""
        rows = sample_kernel(dirac_map(), grid, 3).rows
        path = tmp_path / "kernel.csv"
        save_kernel_csv(rows, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        parse = kernels._parse_entries

        def rewrite_first(fh, count, truncation):
            path.write_bytes(b"".join(lines))
            return parse(fh, count, truncation)

        monkeypatch.setattr(kernels, "_parse_entries", rewrite_first)
        loaded = load_custom_kernel(path, grid, 3)
        assert np.array_equal(loaded.rows, rows[[1, 0, *range(2, rows.shape[0])]])
        assert kernels._last_parse is None

    def test_importing_the_package_leaves_hashlib_unloaded(self):
        """hashlib loads OpenSSL; only a kernel file load imports it."""
        import subprocess
        import sys

        probe = "import sys, riggedframes.cli; print('_hashlib' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def test_a_hit_reads_the_data_bytes_once_with_no_line_pass(tmp_path, grid, monkeypatch):
    """A load of unchanged bytes hashes them in large chunks and returns the
    kept rows: no pass over the data lines, no np.loadtxt and no rescan.
    The header's readline is the only line read."""
    import builtins

    path = tmp_path / "kernel.csv"
    save_kernel_csv(sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 5), path)
    kept = load_custom_kernel(path, grid, 5).rows

    class NoLines:
        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def __iter__(self):
            raise AssertionError("a hit read the data bytes line by line")

    def binary_without_lines(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return NoLines(fh) if "b" in mode else fh

    def refuse(*args, **kwargs):
        raise AssertionError("a hit parsed the file")

    monkeypatch.setattr(kernels, "open", binary_without_lines, raising=False)
    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(kernels, "_scan_cells", refuse)
    assert load_custom_kernel(path, grid, 5).rows is kept
    # a miss does take the line pass, which the proxy refuses
    kernels._last_parse = None
    with pytest.raises(AssertionError, match="line by line"):
        load_custom_kernel(path, grid, 5)


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


# the maps whose rows mirror on a mirrored grid, with the sign s of each
# node pair for a weight that flips it (x) and zero rows (bump)
MIRRORED_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "x": weighted_dirac_map("x"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "exp(-x^2)": weighted_dirac_map("exp(-x^2)"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _full_grid_rows(spec, nodes, truncation):
    """The rows sampled at every node: the Hermite (or derivative) table times
    the row weight, with every entry below NEGLIGIBLE * max|entry| set to 0
    keeping its sign bit."""
    from riggedframes.hermite import hermite_derivative_table, hermite_table
    from riggedframes.kernels import NEGLIGIBLE
    from riggedframes.weights import eval_weight

    if spec.kind == "dirac_derivative":
        reference = -hermite_derivative_table(truncation, nodes)
    else:
        reference = hermite_table(truncation, nodes)
    if spec.kind == "weighted_dirac":
        reference *= eval_weight(spec.weight, nodes)[:, None]
    elif spec.kind == "bump_dirac":
        reference *= bump_profile(*spec.bump_support, nodes)[:, None]
    negligible = np.abs(reference) < NEGLIGIBLE * np.abs(reference).max()
    return np.where(negligible, 0.0 * reference, reference)


class TestMirroredSampling:
    """sample_kernel samples a mirrored map at the nodes x > 0 and writes the
    rows at x < 0 as their sign mirror: the rows are those sampled at every
    node, and the kernel records the sign of each node pair."""

    @pytest.mark.parametrize("truncation", [8, 64, 1024])
    @pytest.mark.parametrize("family", list(MIRRORED_FAMILIES))
    def test_rows_are_the_full_grid_rows_to_the_bit(self, family, truncation):
        from riggedframes.operators import coarse_synthesis_grid

        spec = MIRRORED_FAMILIES[family]
        for grid in (stage_grid(default_stage(truncation)), coarse_synthesis_grid(truncation)):
            kernel = sample_kernel(spec, grid, truncation)
            half = grid.node_count // 2
            assert kernel.signs is not None and kernel.signs.shape == (half,)
            reference = _full_grid_rows(spec, grid.nodes, truncation)
            if family == "dirac_derivative" and truncation == 1024:
                # the derivative table's sums give zeros whose sign does not
                # mirror: equal values, and equal bits wherever nonzero
                assert np.array_equal(kernel.rows, reference)
                nonzero = reference != 0
                assert np.array_equal(kernel.rows[nonzero].view(np.int64), reference[nonzero].view(np.int64))
            else:
                assert np.array_equal(kernel.rows.view(np.int64), reference.view(np.int64))
            # row(-x) = s (-1)^n row(x), with the recorded s
            parity = (-1.0) ** np.arange(truncation)
            mirrored = kernel.signs[:, None] * parity * kernel.rows[half:]
            assert np.array_equal(kernel.rows[:half][::-1], mirrored)

    @pytest.mark.parametrize(
        "spec", [weighted_dirac_map("2+sin(x)"), bump_dirac_map(-1.0, 2.0)], ids=["2+sin(x)", "bump[-1,2]"]
    )
    def test_maps_without_even_magnitude_do_not_split(self, spec):
        for truncation in (8, 64):
            grid = stage_grid(default_stage(truncation))
            kernel = sample_kernel(spec, grid, truncation)
            assert kernel.signs is None
            assert np.array_equal(kernel.rows.view(np.int64),
                                  _full_grid_rows(spec, grid.nodes, truncation).view(np.int64))

    def test_caller_built_rows_do_not_split(self):
        """Only sample_kernel records signs: a kernel built from the same rows
        and spec, the N = 1 kernel and an odd node count have none."""
        kernel = sample_kernel(dirac_map(), stage_grid(default_stage(16)), 16)
        assert kernel.signs is not None
        assert KernelMatrix(kernel.rows, kernel.grid, kernel.map_spec).signs is None
        assert sample_kernel(dirac_map(), kernel.grid, 1).signs is None
        assert sample_kernel(dirac_map(), build_grid(12.0, 25, 9), 16).signs is None

    @pytest.mark.parametrize("family", ["dirac", "x"])
    def test_samples_into_the_kernel_buffer(self, family):
        """The half is sampled straight into the kernel's buffer and mirrored
        in place: no temporary of half the kernel's size."""
        import tracemalloc

        grid = stage_grid(default_stage(256))
        tracemalloc.start()
        try:
            kernel = sample_kernel(MIRRORED_FAMILIES[family], grid, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * kernel.rows.nbytes
