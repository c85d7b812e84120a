"""Write the deterministic bodies of every report command to one JSON file.

    PYTHONPATH=src python tools/report_bodies.py OUT [N_MAX ...]

Runs classify, bounds, dual, reconstruct, moment-solve and sweep on the ten
built-in families at each N_MAX (default 64) on the default ladder, on
dirac_derivative and 2+sin(x) at one odd stage N = 33 (whose coarse grid
has N - 1 nodes), and on three custom CSV kernels at N = 32 (2+sin(x), fourier and dirac_derivative
sampled on the default stage's composite grid, which a custom kernel is
summed on: real, complex, and real with mirrored rows).  Each body is the report as the CLI emits it,
with ``timing`` and the temporary CSV path dropped; the bounds report is
also recorded in CSV, as ``.../bounds/csv``; a refused command is recorded as
``"ErrorType: message"``.  The stdout of each script under ``demos/`` is
recorded as ``demos/<stem>``, run with this interpreter and environment.
Two refusals of 2+sin(x) on stages 128, 256 and 512 are recorded: classify
with a 60-panel grid set on the middle stage, as
``2+sin(x)/middle-stage-grid/classify`` (only the final stage sets the grid,
which every stage is summed on), and with a 120-panel grid set on the final
stage, as ``2+sin(x)/final-stage-grid/classify`` (a built-in map's grid is
chosen from the map and N).  classify alone also runs on each built-in
family on the hand-written ladders [8, 16, 24] and [250, 256], whose last
step spans less than a doubling, as ``<family>/stages=8,16,24/classify``.
OUT is written with sorted keys, so two checkouts give byte-identical files
exactly when their reports agree apart from timing and their demos print
the same:

    cmp before.json after.json

    PYTHONPATH=src python tools/report_bodies.py --compare BEFORE AFTER

prints each leaf that differs between two such files as
``key/path: before -> after`` (``<absent>`` for a missing leaf), followed by
``(rel D)`` when both leaves are finite numbers, D = |after - before| / max(
|before|, |after|), and exits 1, or prints nothing and exits 0 when they
agree.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from riggedframes.errors import InvalidConfigError, NotAFrameError, NumericError
from riggedframes.kernels import (
    dirac_derivative_map,
    fourier_map,
    sample_kernel,
    save_kernel_csv,
    weighted_dirac_map,
)
from riggedframes.quadrature import default_stage, stage_grid
from riggedframes.reporting import COMMANDS, config_from_dict, emit, run

REPORT_COMMANDS = tuple(c for c in COMMANDS if c != "demo")
BUILTIN_MAPS = {
    "dirac": {"kind": "dirac"},
    "fourier": {"kind": "fourier"},
    "dirac_derivative": {"kind": "dirac_derivative"},
    "2+sin(x)": {"kind": "weighted_dirac", "weight": "2+sin(x)"},
    "1+x^2": {"kind": "weighted_dirac", "weight": "1+x^2"},
    "bump[-1,1]": {"kind": "bump_dirac", "bump_support": [-1, 1]},
    # mirrored, with a weight that changes sign at -x
    "x": {"kind": "weighted_dirac", "weight": "x"},
    # even in magnitude and negative for |x| > 1: its stage rows carry |w|,
    # its held rows w
    "1-x^2": {"kind": "weighted_dirac", "weight": "1-x^2"},
    # mirrored, with coarse singular values that cross moment-solve's 1e-10
    # cutoff mid-spectrum: its range comes from both parity blocks
    "exp(-x^2)": {"kind": "weighted_dirac", "weight": "exp(-x^2)"},
    # not even in magnitude, and 0 at -x but not at x on (1, 2): its stage S
    # has an even-odd cross block
    "bump[-1,2]": {"kind": "bump_dirac", "bump_support": [-1, 2]},
}
# an odd N takes N - 1 coarse nodes, where dirac_derivative's coarse values
# come from its (N - 1) x N coefficient matrix
ODD_N = 33
ODD_N_MAPS = ("dirac_derivative", "2+sin(x)")
CUSTOM_N = 32
CUSTOM_KERNELS = {
    "custom-real": weighted_dirac_map("2+sin(x)"),
    "custom-complex": fourier_map(),
    # a mirrored map with node pair sign s = -1: its CSV is written from a
    # parity-split sampled kernel
    "custom-derivative": dirac_derivative_map(),
}
# grids set on a built-in map's stages, each one that under-resolves its N
GRID_REFUSALS = {
    "middle-stage-grid": {"stages": [128, {"N": 256, "panels": 60}, 512]},
    "final-stage-grid": {"stages": [128, 256, {"N": 512, "panels": 120}]},
}
# ladders as a user writes them, closer than a doubling at the last step
HAND_WRITTEN_LADDERS = ((8, 16, 24), (250, 256))
TMP = "<tmp>"
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _report(command, data, tmpdir):
    """The report, or the refusal as text."""
    try:
        return run(command, config_from_dict(data))
    except (InvalidConfigError, NotAFrameError, NumericError) as exc:
        return f"{type(exc).__name__}: {exc}".replace(tmpdir, TMP)


def _body(report, tmpdir, output_format="json"):
    """The emitted report without ``timing`` (CSV has none), or the refusal."""
    if isinstance(report, str):
        return report
    text = emit(report, output_format).decode().replace(tmpdir, TMP)
    if output_format == "csv":
        return text
    body = json.loads(text)
    body.pop("timing")
    return body


def report_bodies(n_maxes):
    bodies = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        configs = {
            f"{name}/n_max={n}": {"map": spec, "ladder": {"n_max": n}}
            for n in n_maxes
            for name, spec in BUILTIN_MAPS.items()
        }
        for name in ODD_N_MAPS:
            configs[f"{name}/N={ODD_N}"] = {"map": BUILTIN_MAPS[name], "ladder": {"stages": [ODD_N]}}
        stage = default_stage(CUSTOM_N)
        for name, spec in CUSTOM_KERNELS.items():
            path = str(Path(tmpdir) / f"{name}.csv")
            save_kernel_csv(sample_kernel(spec, stage_grid(stage), CUSTOM_N), path)
            configs[f"{name}/N={CUSTOM_N}"] = {
                "map": {"kind": "custom", "custom_kernel": path},
                "ladder": {"stages": [CUSTOM_N]},
            }
        for key, data in configs.items():
            for command in REPORT_COMMANDS:
                report = _report(command, data, tmpdir)
                bodies[f"{key}/{command}"] = _body(report, tmpdir)
                if command == "bounds":
                    bodies[f"{key}/bounds/csv"] = _body(report, tmpdir, "csv")
        for name, ladder in GRID_REFUSALS.items():
            data = {"map": BUILTIN_MAPS["2+sin(x)"], "ladder": ladder}
            bodies[f"2+sin(x)/{name}/classify"] = _body(_report("classify", data, tmpdir), tmpdir)
        for stages in HAND_WRITTEN_LADDERS:
            for name, spec in BUILTIN_MAPS.items():
                data = {"map": spec, "ladder": {"stages": list(stages)}}
                key = f"{name}/stages={','.join(map(str, stages))}/classify"
                bodies[key] = _body(_report("classify", data, tmpdir), tmpdir)
    for script in sorted(DEMOS.glob("*.py")):
        run_demo = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True)
        bodies[f"demos/{script.stem}"] = run_demo.stdout
    return bodies


ABSENT = object()


def differing_leaves(before, after, path=""):
    """(path, before leaf, after leaf) for every leaf where two bodies differ;
    a dict key or list index extends the path, anything else is a leaf."""
    if isinstance(before, dict) and isinstance(after, dict):
        keys = sorted(set(before) | set(after))
        pairs = [(k, before.get(k, ABSENT), after.get(k, ABSENT)) for k in keys]
    elif isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        pairs = list(zip(range(len(before)), before, after))
    else:
        # compared as written: 1, 1.0 and true differ, NaN equals NaN
        same = ABSENT not in (before, after) and json.dumps(before) == json.dumps(after)
        return [] if same else [(path, before, after)]
    return [
        leaf
        for key, b, a in pairs
        for leaf in differing_leaves(b, a, f"{path}/{key}" if path else str(key))
    ]


def compare(before_path, after_path):
    """Print every differing leaf of two body files; 1 if any, else 0."""
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    leaves = differing_leaves(before, after)
    for path, *values in leaves:
        before_text, after_text = ("<absent>" if v is ABSENT else json.dumps(v) for v in values)
        print(f"{path}: {before_text} -> {after_text}{_relative_text(*values)}")
    return 1 if leaves else 0


def _relative_text(before, after):
    """`` (rel D)`` for two finite numeric leaves, else empty."""
    numbers = [v for v in (before, after) if type(v) in (int, float) and math.isfinite(v)]
    if len(numbers) < 2:
        return ""
    return f" (rel {abs(after - before) / max(abs(before), abs(after)):.1e})"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: report_bodies.py --compare BEFORE AFTER", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if not argv:
        print("usage: report_bodies.py OUT [N_MAX ...] | --compare BEFORE AFTER", file=sys.stderr)
        return 2
    out, n_maxes = argv[0], [int(n) for n in argv[1:]] or [64]
    with open(out, "w") as fh:
        json.dump(report_bodies(n_maxes), fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
