"""Benchmark workloads: generated inputs, per-request reference checks and
the large-N scale sentinel.

A request is one in-process CLI call, ``riggedframes.cli.main([command,
"--config", cfg, "--output", out])``, on a config file written at set-up.
The expected outcomes are the paper's properties that the package's
acceptance checks assert.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Called through their modules, so that a traced run sees these calls too.
from riggedframes import cli, kernels, operators, quadrature

FAMILIES = {
    "dirac": {"kind": "dirac"},
    "fourier": {"kind": "fourier"},
    "dirac_derivative": {"kind": "dirac_derivative"},
    "2+sin(x)": {"kind": "weighted_dirac", "weight": "2+sin(x)"},
    "1+x^2": {"kind": "weighted_dirac", "weight": "1+x^2"},
    "bump[-1,1]": {"kind": "bump_dirac", "bump_support": [-1.0, 1.0]},
}

WHY = {
    "classify-ladder": (
        "classify on all six built-in families at n_max 256 plus 2+sin(x) at 512: the path "
        "users run most, dominated by tall SVDs along the ladder"
    ),
    "dual-reconstruct": (
        "dual and reconstruct at one stage N=512 plus a CSV custom kernel at N=256: frame "
        "operators, eigh, canonical duals and the kernel CSV paths, with no classify"
    ),
    "moment-probe": (
        "moment-solve at N=512 on four maps, one of them unsolvable: rf_diagnostic re-factors "
        "one small coarse kernel per panel probe, with no classify or dual"
    ),
}
WORKLOADS = tuple(WHY)

# Hermite recurrence underflow zeroes basis functions past |x| ~ 37.6, which
# the default grid reaches once N exceeds ~700.
SENTINEL_N = 1024
SENTINEL_TOLERANCE = 1e-10
SENTINEL_KNOWN_FAILURE = (
    "known failure while hermite_table seeds its recurrence with exp(-x^2/2), "
    "which underflows past |x| ~ 37.6"
)


@dataclass(frozen=True)
class Sizes:
    classify_n_max: int = 256
    classify_wide_n_max: int = 512
    dual_n: int = 512
    custom_n: int = 256
    moment_n: int = 512


FULL = Sizes()
# Warm-up passes and smoke tests: every request path at a few milliseconds each.
SMALL = Sizes(classify_n_max=64, classify_wide_n_max=128, dual_n=32, custom_n=16, moment_n=32)


@dataclass(frozen=True)
class Request:
    name: str
    command: str
    family: str
    config: str


def _write_config(workdir, index, family_map, ladder, seed):
    path = Path(workdir) / f"request-{index:02d}.json"
    path.write_text(json.dumps({"map": family_map, "ladder": ladder, "seed": seed}))
    return str(path)


def _custom_kernel_csv(workdir, truncation):
    """The 2+sin(x) kernel at one default stage, written in the interchange
    schema so that requests reload it through the custom-kernel path."""
    stage = quadrature.default_stage(truncation)
    spec = kernels.weighted_dirac_map("2+sin(x)")
    kernel = kernels.sample_kernel(spec, quadrature.stage_grid(stage), truncation)
    path = Path(workdir) / f"kernel-2+sin-N{truncation}.csv"
    kernels.save_kernel_csv(kernel, str(path))
    return {"kind": "custom", "custom_kernel": str(path.resolve())}


def _plan(workload, workdir, sizes):
    """(name, command, family, map, ladder) for every request of one pass."""
    if workload == "classify-ladder":
        plan = [
            (f"classify {fam} n_max={sizes.classify_n_max}", "classify", fam, FAMILIES[fam],
             {"n_max": sizes.classify_n_max})
            for fam in FAMILIES
        ]
        plan.append(
            (f"classify 2+sin(x) n_max={sizes.classify_wide_n_max}", "classify", "2+sin(x)",
             FAMILIES["2+sin(x)"], {"n_max": sizes.classify_wide_n_max})
        )
        return plan
    if workload == "dual-reconstruct":
        custom = _custom_kernel_csv(workdir, sizes.custom_n)
        maps = [(fam, FAMILIES[fam], sizes.dual_n) for fam in ("dirac", "fourier", "2+sin(x)")]
        maps.append(("custom", custom, sizes.custom_n))
        return [
            (f"{command} {fam} N={n}", command, fam, family_map, {"stages": [n]})
            for fam, family_map, n in maps
            for command in ("dual", "reconstruct")
        ]
    if workload == "moment-probe":
        return [
            (f"moment-solve {fam} N={sizes.moment_n}", "moment-solve", fam, FAMILIES[fam],
             {"stages": [sizes.moment_n]})
            for fam in ("dirac", "2+sin(x)", "dirac_derivative", "bump[-1,1]")
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def prepare(workload, seed, workdir, sizes=FULL):
    """Write the workload's inputs under ``workdir``; the seed fixes every
    config's ``seed`` field (always ten digits, so the seed's own text does
    not change report sizes)."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    return [
        Request(name, command, family,
                _write_config(workdir, i, family_map, ladder, rng.randrange(10**9, 2**31)))
        for i, (name, command, family, family_map, ladder) in enumerate(_plan(workload, workdir, sizes))
    ]


def pass_order(requests, seed, pass_index):
    """The order of one pass, fixed by the workload seed and the pass number."""
    order = list(requests)
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


PARSEVAL_LABELS = {"parseval", "gelfand_basis", "riesz_basis"}
EXPECTED_LABELS = {
    # family: (labels required, labels forbidden)
    "dirac": (PARSEVAL_LABELS, set()),
    "fourier": (PARSEVAL_LABELS, set()),
    "2+sin(x)": ({"frame", "riesz_basis"}, set()),
    "1+x^2": ({"lower_semi_frame"}, {"frame"}),
    "dirac_derivative": ({"bessel"}, {"bounded_bessel"}),
    "bump[-1,1]": ({"bounded_bessel"}, {"total"}),
}


def _at_most(value, limit):
    return value is not None and value <= limit


def _at_least(value, limit):
    return value is not None and value >= limit


def check_report(request, report):
    """Mismatches between one report and the paper's expected outcome."""
    problems = []
    family = request.family
    if request.command == "classify":
        labels = set(report["labels"] or ())
        required, forbidden = EXPECTED_LABELS[family]
        if not required <= labels:
            problems.append(f"missing labels {sorted(required - labels)}")
        if forbidden & labels:
            problems.append(f"unexpected labels {sorted(forbidden & labels)}")
        if family == "2+sin(x)":
            for stage in report["stages"]:
                if not (_at_least(stage["A"], 1.0 - 1e-9) and _at_most(stage["B"], 9.0 + 1e-9)):
                    problems.append(f"N={stage['N']} spectrum [{stage['A']}, {stage['B']}] not in [1, 9]")
    elif request.command in ("dual", "reconstruct"):
        dual = report["dual"]
        lower, upper = dual["A_theta"], dual["B_theta"]
        if family in ("dirac", "fourier"):
            ok = _at_least(lower, 1.0 - 1e-8) and _at_most(upper, 1.0 + 1e-8)
            wanted = "within 1e-8 of 1"
        else:
            ok = _at_least(lower, 1.0 / 9.0 - 1e-8) and _at_most(upper, 1.0 + 1e-8)
            wanted = "in [1/9, 1]"
        if not ok:
            problems.append(f"dual bounds [{lower}, {upper}] not {wanted}")
        if not _at_most(dual["defect"], 1e-8):
            what = "reconstruction error" if request.command == "reconstruct" else "duality defect"
            problems.append(f"{what} {dual['defect']} > 1e-8")
    elif request.command == "moment-solve":
        score, worst = report["moment"]["score"], report["moment"]["worst_residual"]
        if family == "bump[-1,1]":
            if not (score is not None and score < 1.0):
                problems.append(f"bump moment score {score} is not below 1")
        elif not (score == 1 and _at_most(worst, 1e-6)):
            problems.append(f"moment score {score}, worst residual {worst} (want 1, <= 1e-6)")
    return problems


@dataclass
class Outcome:
    request: Request
    seconds: float
    problems: list

    @property
    def ok(self):
        return not self.problems


def execute(request, output):
    """Run one request as the CLI would and check its report; the time
    covers the CLI call only."""
    argv = [request.command, "--config", request.config, "--output", output]
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        return Outcome(request, time.perf_counter() - started, [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - started
    if code != 0:
        return Outcome(request, seconds, [f"exit code {code}"])
    try:
        with open(output) as fh:
            report = json.load(fh)
        problems = check_report(request, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
    return Outcome(request, seconds, problems)


def parseval_sentinel(truncation=SENTINEL_N):
    """|S - I|max of the dirac map at one default stage; the map is Parseval,
    so anything above the tolerance is a numerical defect."""
    stage = quadrature.default_stage(truncation)
    kernel = kernels.sample_kernel(kernels.dirac_map(), quadrature.stage_grid(stage), truncation)
    matrix = operators.frame_operator(kernel).matrix
    return float(np.abs(matrix - np.eye(truncation)).max())

