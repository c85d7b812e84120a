"""Run configuration, experiment orchestration, and report emission.

Reports are plain documents with a fixed key order and floats serialized at
17 significant digits, so identical configurations produce byte-identical
output (timing aside) and golden-file comparison is exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import acceptance
from .duality import DEFAULT_SEED, canonical_dual, dual_bounds, reconstruct, verify_duality
from .errors import InvalidConfigError, NotAFrameError, WeightEvalError, WeightSyntaxError
from .hermite import random_test_function
from .kernels import MapSpec, sample_kernel
from .moments import rf_diagnostic
from .operators import ClassifyThresholds, _coarse_kernel, classify
from .quadrature import (
    LadderStage,
    RefinementLadder,
    default_ladder,
    default_stage,
    stage_grid,
)
from .weights import expr_to_string, parse_weight

__all__ = [
    "COMMANDS",
    "RunConfig",
    "ReportDocument",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "run",
    "emit",
    "write_report",
]

COMMANDS = ("classify", "bounds", "dual", "reconstruct", "moment-solve", "sweep", "demo")
THRESHOLD_FIELDS = tuple(f.name for f in fields(ClassifyThresholds))
# The stage table's (column, StageDiagnostics attribute) pairs, in CSV order.
STAGE_COLUMNS = (
    ("N", "truncation"),
    ("L", "half_width"),
    ("nodes", "node_count"),
    ("A", "lower"),
    ("B", "upper"),
    ("sigma_min", "sigma_min"),
    ("sigma_max", "sigma_max"),
    ("total", "total"),
    ("mu_independent", "mu_independent"),
)


@dataclass(frozen=True)
class RunConfig:
    map_spec: MapSpec
    ladder: RefinementLadder
    thresholds: ClassifyThresholds
    seed: int
    output_path: str
    output_format: str


@dataclass(frozen=True)
class ReportDocument:
    config: dict
    stages: tuple = ()
    labels: tuple = None
    dual: dict = None
    moment: dict = None
    checks: tuple = None
    timing: float = 0.0


def load_config(path):
    """config_from_dict of the JSON file at ``path``; a file that exists but
    cannot be read as UTF-8 text is a config error naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        # bench/tests/test_bench.py pins a missing file as a raised
        # FileNotFoundError; it joins the config errors with that pin (ROADMAP)
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def _require(condition, path, message):
    if not condition:
        raise InvalidConfigError(f"{path}: {message}")


def _is_int(value):
    """An integer that is not a boolean (json's true is a Python int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite number that is not a boolean (json accepts Infinity and NaN)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _parse_map(data):
    _require(isinstance(data, dict), "map", "must be an object")
    kind = data.get("kind")
    _require(isinstance(kind, str), "map.kind", "must be a string")
    weight = None
    if data.get("weight") is not None:
        _require(isinstance(data["weight"], str), "map.weight", "must be a string")
        try:
            weight = parse_weight(data["weight"])
        except WeightSyntaxError as exc:
            raise InvalidConfigError(f"map.weight: {exc}") from exc
    support = None
    if data.get("bump_support") is not None:
        raw = data["bump_support"]
        _require(
            isinstance(raw, (list, tuple)) and len(raw) == 2 and all(map(_is_number, raw)),
            "map.bump_support",
            "must be a pair [a, b] of finite numbers",
        )
        support = (float(raw[0]), float(raw[1]))
    custom = data.get("custom_kernel")
    try:
        return MapSpec(kind, weight=weight, bump_support=support, custom_kernel=custom)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"map: {exc}") from exc


def _parse_ladder(data):
    if data is None:
        return default_ladder(32)
    _require(isinstance(data, dict), "ladder", "must be an object")
    if "n_max" in data:
        _require(
            _is_int(data["n_max"]) and data["n_max"] >= 8,
            "ladder.n_max",
            "must be an integer >= 8",
        )
        try:
            return default_ladder(data["n_max"])
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"ladder.n_max: {exc}") from exc
    if "stages" in data:
        raw = data["stages"]
        _require(isinstance(raw, list) and raw, "ladder.stages", "must be a nonempty list")
        stages = []
        for i, item in enumerate(raw):
            path = f"ladder.stages[{i}]"
            if _is_int(item):
                item = {"N": item}
            _require(isinstance(item, dict), path, "must be an int or object")
            _require("N" in item, f"{path}.N", "is required")
            n = item["N"]
            _require(_is_int(n) and n >= 1, f"{path}.N", "must be a positive integer")
            base = default_stage(n)
            half_width = item.get("L", base.half_width)
            _require(_is_number(half_width), f"{path}.L", "must be a finite number")
            panels = item.get("panels", base.panels)
            _require(_is_int(panels) and panels >= 1, f"{path}.panels", "must be a positive integer")
            order = item.get("order", base.order)
            _require(_is_int(order) and order >= 2, f"{path}.order", "must be an integer >= 2")
            try:
                stages.append(
                    LadderStage(
                        truncation=n, half_width=float(half_width), panels=panels, order=order
                    )
                )
            except InvalidConfigError as exc:
                raise InvalidConfigError(f"{path}: {exc}") from exc
        try:
            return RefinementLadder(tuple(stages))
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"ladder.stages: {exc}") from exc
    raise InvalidConfigError("ladder: needs either n_max or stages")


def _parse_thresholds(data):
    if data is None:
        return ClassifyThresholds()
    _require(isinstance(data, dict), "thresholds", "must be an object")
    unknown = set(data) - set(THRESHOLD_FIELDS)
    _require(not unknown, "thresholds", f"unknown fields {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key == "bessel_k_max":
            _require(_is_int(value) and value >= 0, f"thresholds.{key}", "must be a nonnegative integer")
            kwargs[key] = value
        else:
            _require(
                _is_number(value) and value > 0,
                f"thresholds.{key}",
                "must be a finite positive number",
            )
            kwargs[key] = float(value)
    return ClassifyThresholds(**kwargs)


def config_from_dict(data):
    _require(isinstance(data, dict), "config", "must be an object")
    _require("map" in data, "map", "is required")
    map_spec = _parse_map(data["map"])
    ladder = _parse_ladder(data.get("ladder"))
    thresholds = _parse_thresholds(data.get("thresholds"))
    seed = data.get("seed", DEFAULT_SEED)
    _require(_is_int(seed) and seed >= 0, "seed", "must be a nonnegative integer")
    output_path = None
    output_format = "json"
    if data.get("output") is not None:
        raw = data["output"]
        _require(isinstance(raw, dict), "output", "must be an object")
        output_path = raw.get("path")
        _require(output_path is None or isinstance(output_path, str), "output.path", "must be a string")
        output_format = raw.get("format", "json")
        _require(output_format in ("json", "csv"), "output.format", "must be json or csv")
    return RunConfig(map_spec, ladder, thresholds, seed, output_path, output_format)


def _echo_map(spec):
    echo = {"kind": spec.kind}
    if spec.weight is not None:
        echo["weight"] = expr_to_string(spec.weight)
    if spec.bump_support is not None:
        echo["bump_support"] = list(spec.bump_support)
    if spec.custom_kernel is not None:
        echo["custom_kernel"] = spec.custom_kernel
    return echo


def config_to_dict(config):
    """The config document of ``config``, every field explicit: the inverse
    of config_from_dict, and the ``config`` section of every report."""
    thresholds = config.thresholds
    return {
        "map": _echo_map(config.map_spec),
        "ladder": {
            "stages": [
                {"N": s.truncation, "L": s.half_width, "panels": s.panels, "order": s.order}
                for s in config.ladder.stages
            ]
        },
        "thresholds": {name: getattr(thresholds, name) for name in THRESHOLD_FIELDS},
        "seed": config.seed,
        "output": {"path": config.output_path, "format": config.output_format},
    }


def _stage_table(report):
    return tuple(
        {column: getattr(s, attribute) for column, attribute in STAGE_COLUMNS}
        for s in report.stages
    )


def _final_kernel(config):
    stage = config.ladder.final_stage
    return sample_kernel(config.map_spec, stage_grid(stage), stage.truncation)


def _dual_section(config, round_trip=False):
    """Dual bounds with the duality defect, or with the worst round-trip
    error over both reconstruction orders when ``round_trip`` is set."""
    kernel = _final_kernel(config)
    pair = canonical_dual(kernel)
    lower, upper = dual_bounds(pair)
    if round_trip:
        rng = np.random.default_rng(config.seed)
        functions = [random_test_function(kernel.truncation, rng) for _ in range(20)]
        defect = max(err for order in reconstruct(pair, functions) for _, err in order)
    else:
        defect = verify_duality(pair, 20, config.seed)
    return {"A_theta": lower, "B_theta": upper, "defect": defect}


def _moment_section(config):
    spec = config.map_spec
    custom = _final_kernel(config) if spec.kind == "custom" else None
    kernel = _coarse_kernel(spec, config.ladder.final_stage.truncation, custom)
    score, worst = rf_diagnostic(kernel)
    return {"score": score, "worst_residual": worst}


def run(command, config):
    """Execute one CLI command and assemble its report document."""
    if command not in COMMANDS:
        raise InvalidConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    started = time.perf_counter()
    stages = ()
    labels = None
    dual = None
    moment = None
    checks = None
    # the weight parses for every x, but a grid node of the ladder can still
    # land where it is non-finite (1/x at x = 0)
    try:
        if command in ("classify", "bounds", "sweep"):
            report = classify(config.map_spec, config.ladder, config.thresholds)
            stages = _stage_table(report)
            if command in ("classify", "sweep"):
                labels = tuple(report.labels)
        if command in ("dual", "reconstruct"):
            dual = _dual_section(config, round_trip=command == "reconstruct")
        if command in ("moment-solve", "sweep"):
            moment = _moment_section(config)
        if command == "sweep":
            try:
                dual = _dual_section(config)
            except NotAFrameError:
                dual = None
    except WeightEvalError as exc:
        raise InvalidConfigError(f"map.weight: {exc}") from exc
    if command == "demo":
        results = acceptance.run_all()
        checks = tuple(
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        )
    return ReportDocument(
        config=config_to_dict(config),
        stages=stages,
        labels=labels,
        dual=dual,
        moment=moment,
        checks=checks,
        timing=time.perf_counter() - started,
    )


def _json_value(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            return "null"
        return f"{value:.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit(report, output_format="json"):
    """Serialize a report: JSON with stable key order, or CSV of the stages."""
    if output_format == "json":
        document = {
            "config": report.config,
            "stages": list(report.stages),
            "labels": list(report.labels) if report.labels is not None else None,
            "dual": report.dual,
            "moment": report.moment,
        }
        if report.checks is not None:
            document["checks"] = list(report.checks)
        document["timing"] = report.timing
        return (_json_value(document) + "\n").encode()
    if output_format == "csv":
        lines = [",".join(column for column, _ in STAGE_COLUMNS)]
        for row in report.stages:
            lines.append(",".join(_json_value(v) for v in row.values()))
        return ("\n".join(lines) + "\n").encode()
    raise InvalidConfigError(f"unknown output format {output_format!r}")


def write_report(report, path, output_format="json"):
    """Atomic write: serialize to a sibling temp file, then rename over.
    On an OSError the temp file is removed and the error re-raised."""
    payload = emit(report, output_format)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
