"""The closed-form coarse spectra of the built-in maps on the Gauss-Hermite
coarse grid (operators._coarse_values, moments._coarse_rf) against the SVD
route they replace, on every map tools/report_bodies.py records, and the
synthesis-side answers at n_max = 1024 that the grid gives."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from riggedframes import (
    classify,
    coarse_synthesis_grid,
    default_ladder,
    default_stage,
    dirac_map,
    dual_bessel_check,
    fourier_map,
    gelfand_check,
    rf_diagnostic,
    sample_kernel,
    stage_grid,
    weighted_dirac_map,
)
from riggedframes import duality, kernels, operators
from riggedframes.moments import _coarse_rf
from riggedframes.operators import RANK_CUTOFF
from riggedframes.reporting import _parse_map, config_from_dict, run


def _report_maps():
    """{name: config "map" data} of the built-in maps tools/report_bodies.py
    records."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_bodies.py"
    spec = importlib.util.spec_from_file_location("report_bodies", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BUILTIN_MAPS


REPORT_MAP_DATA = _report_maps()
REPORT_MAPS = {name: _parse_map(data) for name, data in REPORT_MAP_DATA.items()}
# an odd N takes N - 1 nodes, where dirac_derivative's values come from its
# (N - 1) x N coefficient matrix
TRUNCATIONS = (33, 64, 512)


@pytest.mark.parametrize("n", TRUNCATIONS)
@pytest.mark.parametrize("name", list(REPORT_MAPS))
def test_closed_form_values_match_the_coarse_svd(name, n):
    spec = REPORT_MAPS[name]
    svals = operators._CoarseSVD(operators._coarse_kernel(spec, n), RANK_CUTOFF).svals
    closed = np.sort(operators._coarse_values(spec, n))[::-1]
    assert closed.shape == svals.shape == (n - n % 2,)
    assert np.abs(closed - svals).max() <= 1e-13 * svals[0]


@pytest.mark.parametrize("n", TRUNCATIONS)
@pytest.mark.parametrize("name", list(REPORT_MAPS))
def test_closed_rf_score_matches_rf_diagnostic(name, n):
    spec = REPORT_MAPS[name]
    score, worst = _coarse_rf(spec, n)
    reference_score, reference_worst = rf_diagnostic(operators._coarse_kernel(spec, n))
    assert score == reference_score
    assert abs(worst - reference_worst) <= 1e-12


@pytest.mark.parametrize(
    "name, spec", [("dirac", dirac_map()), ("fourier", fourier_map()), ("2+sin(x)", weighted_dirac_map("2+sin(x)"))]
)
def test_classify_to_1024_keeps_mu_independence(name, spec):
    """On the composite order-4 grid the coarse kernel lost rank between
    N = 512 and 1024, and with it mu_independent and riesz_basis."""
    report = classify(spec, default_ladder(1024))
    assert all(stage.mu_independent for stage in report.stages)
    assert {"mu_independent", "riesz_basis"} <= set(report.labels)
    assert report.has("gelfand_basis") == (name != "2+sin(x)")


def test_moment_solve_on_dirac_at_1024_solves_every_probe():
    config = config_from_dict({"map": {"kind": "dirac"}, "ladder": {"n_max": 1024}})
    assert run("moment-solve", config)["moment"] == {"score": 1.0, "worst_residual": 0.0}


@pytest.mark.parametrize("n", [32, 1024])
@pytest.mark.parametrize("spec", [dirac_map(), fourier_map()], ids=["dirac", "fourier"])
def test_gelfand_isometry_defect_is_an_oracle(spec, n):
    """On K = N Gauss-Hermite nodes the weighted dirac rows are orthogonal,
    so the coarse synthesis map is an isometry to rounding."""
    result = gelfand_check(sample_kernel(spec, coarse_synthesis_grid(n), n))
    assert result.gelfand
    assert result.isometry_defect <= 1e-12


def test_builtin_synthesis_side_samples_no_coarse_kernel(monkeypatch):
    """classify, the moment-solve report and dual_bessel_check read a
    built-in map's coarse spectrum in closed form: no coarse kernel is
    sampled and no SVD is taken."""
    held = sample_kernel(weighted_dirac_map("2+sin(x)"), stage_grid(default_stage(64)), 64)

    def refused(*args, **kwargs):
        raise AssertionError("a coarse kernel was sampled or factored")

    for module in (operators, duality):
        monkeypatch.setattr(module, "_coarse_kernel", refused)
    for module in (operators, kernels):
        monkeypatch.setattr(module, "sample_kernel", refused)
    monkeypatch.setattr(np.linalg, "svd", refused)
    for name in ("dirac", "dirac_derivative", "2+sin(x)", "bump[-1,2]"):
        classify(REPORT_MAPS[name], default_ladder(64))
        run("moment-solve", config_from_dict({"map": REPORT_MAP_DATA[name], "ladder": {"stages": [64]}}))
    assert dual_bessel_check(held).bessel
