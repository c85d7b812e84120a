import json
import math
import re
import subprocess
import sys

import pytest

from riggedframes import InvalidConfigError
from riggedframes.reporting import (
    COMMANDS,
    config_from_dict,
    config_to_dict,
    emit,
    load_config,
    run,
    write_report,
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


DIRAC_CONFIG = {"map": {"kind": "dirac"}, "ladder": {"n_max": 16}, "seed": 7}
BUILTIN_MAPS = [
    {"kind": "dirac"},
    {"kind": "fourier"},
    {"kind": "dirac_derivative"},
    {"kind": "weighted_dirac", "weight": "2+sin(x)"},
    {"kind": "weighted_dirac", "weight": "1+x^2"},
    {"kind": "bump_dirac", "bump_support": [-1, 1]},
]


class TestConfig:
    def test_minimal(self):
        config = config_from_dict({"map": {"kind": "dirac"}})
        assert config.map_spec.kind == "dirac"
        assert config.ladder.truncations == (8, 16, 32)
        assert config.seed == 20240409

    def test_weight_parse_position_in_error(self):
        with pytest.raises(InvalidConfigError, match=r"map\.weight.*offset 4"):
            config_from_dict({"map": {"kind": "weighted_dirac", "weight": "sin("}})

    def test_field_paths_in_errors(self):
        with pytest.raises(InvalidConfigError, match="map.kind"):
            config_from_dict({"map": {}})
        with pytest.raises(InvalidConfigError, match="ladder.n_max"):
            config_from_dict({"map": {"kind": "dirac"}, "ladder": {"n_max": 12}})
        with pytest.raises(InvalidConfigError, match="thresholds"):
            config_from_dict({"map": {"kind": "dirac"}, "thresholds": {"bogus": 1}})
        with pytest.raises(InvalidConfigError, match="output.format"):
            config_from_dict({"map": {"kind": "dirac"}, "output": {"format": "xml"}})

    def test_explicit_stages(self):
        config = config_from_dict(
            {"map": {"kind": "dirac"}, "ladder": {"stages": [8, {"N": 16}, {"N": 24, "order": 8}]}}
        )
        assert config.ladder.truncations == (8, 16, 24)
        assert config.ladder.final_stage.order == 8

    @pytest.mark.parametrize(
        "override, path",
        [
            ({"map": {"kind": "bump_dirac", "bump_support": ["a", 1]}}, "map.bump_support"),
            ({"map": {"kind": "bump_dirac", "bump_support": [None, 1]}}, "map.bump_support"),
            ({"ladder": {"stages": [{"N": 8, "panels": "x"}]}}, "ladder.stages[0].panels"),
            ({"ladder": {"stages": [{"N": 8, "L": "12"}]}}, "ladder.stages[0].L"),
            ({"ladder": {"stages": [8, {"N": 16, "panels": 40.7}]}}, "ladder.stages[1].panels"),
            ({"ladder": {"stages": [{"N": 8, "order": 1}]}}, "ladder.stages[0].order"),
            ({"seed": True}, "seed"),
            ({"thresholds": {"bessel_k_max": True}}, "thresholds.bessel_k_max"),
            ({"ladder": {"stages": [True]}}, "ladder.stages[0]"),
            ({"thresholds": {"rank": float("inf")}}, "thresholds.rank"),
        ],
    )
    def test_non_numbers_rejected_with_their_path(self, tmp_path, override, path):
        """Strings, booleans, fractions and json's Infinity are not the
        integers or finite numbers a field asks for."""
        data = dict({"map": {"kind": "dirac"}}, **override)
        with pytest.raises(InvalidConfigError, match=re.escape(f"{path}:")):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"ladder": {}}, "ladder: needs either n_max or stages"),
            ({"ladder": {"stages": [16, 8]}}, "ladder.stages: stage truncations must increase"),
            (
                {"ladder": {"stages": [{"N": 64, "L": 5.0}]}},
                "ladder.stages[0]: stage half_width 5.000 is below the Hermite bulk",
            ),
            (
                {"map": {"kind": "bump_dirac", "bump_support": [1, -1]}},
                "map: bump support must satisfy a < b",
            ),
            ({"ladder": {"n_max": 16, "stages": [8]}}, "ladder: takes either n_max or stages, not both"),
            (
                {"ladder": {"stages": [8, {"N": 16, "L": 20.0}, 32]}},
                "ladder.stages[1].L: only the final stage sets the grid",
            ),
        ],
        ids=["empty_ladder", "decreasing_stages", "narrow_stage", "reversed_bump", "n_max_and_stages", "middle_grid"],
    )
    def test_inconsistent_fields_rejected_with_their_path(self, override, message):
        data = dict({"map": {"kind": "dirac"}}, **override)
        with pytest.raises(InvalidConfigError, match="^" + re.escape(message)):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "override, path",
        [
            ({"sede": 3}, "sede"),
            ({"map": {"kind": "weighted_dirac", "weight": "2", "wieght": "3"}}, "map.wieght"),
            ({"ladder": {"n_max": 16, "stage": [8]}}, "ladder.stage"),
            ({"ladder": {"stages": [{"N": 16, "Panels": 3}]}}, "ladder.stages[0].Panels"),
            ({"thresholds": {"bogus": 1}}, "thresholds.bogus"),
            ({"output": {"fromat": "csv"}}, "output.fromat"),
        ],
    )
    def test_unknown_fields_rejected_with_their_path(self, override, path):
        """A misspelled or unknown key is refused, not dropped."""
        data = dict({"map": {"kind": "dirac"}}, **override)
        with pytest.raises(InvalidConfigError, match="^" + re.escape(f"{path}: unknown field") + "$"):
            config_from_dict(data)

    def test_non_json_config_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"map": ')
        with pytest.raises(InvalidConfigError, match="^" + re.escape(f"{path}: invalid JSON")):
            load_config(path)

    @pytest.mark.parametrize("map_data", BUILTIN_MAPS, ids=lambda data: data.get("weight", data["kind"]))
    def test_config_to_dict_inverts_config_from_dict(self, map_data):
        """Every field survives config_to_dict, both as a document and as the
        ``config`` section of an emitted report, on an explicit grid and on
        the default ladder.  The default final stage of an exact map (dirac,
        fourier, dirac_derivative, 1+x^2), summed on the Gauss-Hermite rule,
        is echoed with its N only; every other final stage with its grid."""
        exact = map_data.get("weight", map_data["kind"]) in ("dirac", "fourier", "dirac_derivative", "1+x^2")
        for ladder in ({"stages": [8, {"N": 16, "L": 20.5, "panels": 50, "order": 8}]}, {"n_max": 16}):
            config = config_from_dict(
                {
                    "map": map_data,
                    "ladder": ladder,
                    "thresholds": {"stability": 0.1, "growth": 1.7, "rank": 1e-8, "bessel_k_max": 3},
                    "seed": 11,
                    "output": {"path": "report.csv", "format": "csv"},
                }
            )
            assert config_from_dict(config_to_dict(config)) == config
            document = json.loads(emit(run("bounds", config)).decode())
            assert config_from_dict(document["config"]) == config
            grid_echoed = "n_max" not in ladder or not exact
            assert set(document["config"]["ladder"]["stages"][-1]) == (
                {"N", "L", "panels", "order"} if grid_echoed else {"N"}
            )

    @pytest.mark.parametrize("growth", [0.5, 1.0])
    def test_growth_at_most_one_is_refused(self, growth):
        """At growth <= 1 a flat bound series counts as growing."""
        with pytest.raises(InvalidConfigError, match=r"thresholds\.growth:"):
            config_from_dict({"map": {"kind": "dirac"}, "thresholds": {"growth": growth}})

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, case):
        from riggedframes import cli

        path = tmp_path / "config.json"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b'{"map": {"kind": "dirac\xff"}}')
        with pytest.raises(InvalidConfigError, match=re.escape(f"{path}: cannot read")):
            load_config(path)
        assert cli.main(["bounds", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: cannot read")

    def test_stages_flag_is_checked_as_the_ladder_field(self, tmp_path, capsys):
        from riggedframes import cli

        config = write_config(tmp_path, DIRAC_CONFIG)
        assert cli.main(["bounds", "--config", str(config), "--stages", "0"]) == 2
        assert "error: ladder.stages[0].N: must be a positive integer" in capsys.readouterr().err

    def test_weight_non_finite_at_a_stage_node_is_a_config_error(self, tmp_path, capsys):
        """1/x parses, but an odd node count puts a node at exactly 0."""
        from riggedframes import cli

        data = {
            "map": {"kind": "weighted_dirac", "weight": "1/x"},
            "ladder": {"stages": [{"N": 8, "panels": 21, "order": 3}]},
        }
        config = write_config(tmp_path, data)
        assert cli.main(["classify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: map.weight: ") and "x=0.0" in err

    def test_overrides(self, tmp_path):
        """--seed, --stages and --output land in the report's config section."""
        from riggedframes import cli

        config = write_config(tmp_path, DIRAC_CONFIG)
        output = tmp_path / "report.json"
        argv = ["bounds", "--config", str(config), "--seed", "1", "--stages", "8,16"]
        assert cli.main([*argv, "--output", str(output)]) == 0
        echoed = json.loads(output.read_text())["config"]
        assert echoed["seed"] == 1
        assert [stage["N"] for stage in echoed["ladder"]["stages"]] == [8, 16]
        assert echoed["output"]["path"] == str(output)

    @pytest.mark.parametrize("weight", ["1+0.00001*x^2", "10000000000000000+x^2"])
    def test_weight_literal_past_repr_range_survives_the_echo(self, tmp_path, weight):
        """repr prints these literals with an exponent, which the weight
        grammar does not read; the echoed document must still parse."""
        from riggedframes import cli

        data = {"map": {"kind": "weighted_dirac", "weight": weight}, "ladder": {"n_max": 8}}
        config = write_config(tmp_path, data)
        output = tmp_path / "report.json"
        assert cli.main(["bounds", "--config", str(config), "--output", str(output)]) == 0
        echoed = json.loads(output.read_text())["config"]
        assert config_from_dict(echoed).map_spec == load_config(config).map_spec

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        from riggedframes import cli

        config = write_config(tmp_path, dict(DIRAC_CONFIG, ladder={"n_max": 8}))
        assert cli.main(["dual", "--config", str(config), "--seed", "-5"]) == 2
        assert "error: seed:" in capsys.readouterr().err

    def test_non_string_output_path_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        from riggedframes import cli

        config = write_config(tmp_path, dict(DIRAC_CONFIG, output={"path": 5}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bounds", "--config", str(config)]) == 2
        assert "error: output.path:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [config.name]

    def test_output_naming_a_directory_is_an_output_error(self, tmp_path, capsys):
        from riggedframes import cli

        config = write_config(tmp_path, dict(DIRAC_CONFIG, ladder={"n_max": 8}))
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        assert cli.main(["bounds", "--config", str(config), "--output", str(outdir)]) == 2
        assert "error: output:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config.name, "outdir"])
        assert list(outdir.iterdir()) == []

    def test_output_in_a_missing_directory_is_an_output_error(self, tmp_path, capsys):
        from riggedframes import cli

        config = write_config(tmp_path, dict(DIRAC_CONFIG, ladder={"n_max": 8}))
        target = tmp_path / "missing" / "report.json"
        assert cli.main(["bounds", "--config", str(config), "--output", str(target)]) == 2
        assert "error: output:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [config.name]


class TestRun:
    def test_classify_dirac_labels(self, tmp_path):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        report = run("classify", config)
        assert "gelfand_basis" in report["labels"]
        assert len(report["stages"]) == 2
        row = report["stages"][0]
        assert list(row) == [
            "N", "A", "B", "sigma_min", "sigma_max", "total", "mu_independent",
        ]

    def test_bounds_has_no_labels(self, tmp_path):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        report = run("bounds", config)
        assert report["labels"] is None
        assert report["stages"]

    def test_dual_and_reconstruct_sections(self, tmp_path):
        data = dict(DIRAC_CONFIG, map={"kind": "weighted_dirac", "weight": "2+sin(x)"})
        config = load_config(write_config(tmp_path, data))
        dual = run("dual", config)["dual"]
        assert dual["A_theta"] >= 1 / 9 - 1e-8
        assert dual["B_theta"] <= 1 + 1e-8
        assert dual["defect"] <= 1e-8
        rec = run("reconstruct", config)["dual"]
        assert rec["defect"] <= 1e-8

    def test_moment_solve(self, tmp_path):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        moment = run("moment-solve", config)["moment"]
        assert moment["score"] == 1.0
        assert moment["worst_residual"] <= 1e-6

    def test_sweep_combines_sections(self, tmp_path):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        report = run("sweep", config)
        assert report["labels"] and report["dual"] and report["moment"]

    def test_sweep_dual_null_for_non_frame(self, tmp_path):
        data = dict(DIRAC_CONFIG, map={"kind": "bump_dirac", "bump_support": [-1, 1]}, ladder={"n_max": 32})
        config = load_config(write_config(tmp_path, data))
        report = run("sweep", config)
        assert report["dual"] is None

    @pytest.mark.parametrize("kind", ["dirac", "dirac_derivative"])
    def test_moment_solve_and_classify_at_two_and_three_coefficients(self, kind):
        """The coarse grid has 2 nodes at N = 2 and N = 3, never more than
        N: both maps solve every probe and are mu-independent there."""
        for n in (2, 3):
            config = config_from_dict(dict(DIRAC_CONFIG, map={"kind": kind}, ladder={"stages": [n]}))
            assert run("moment-solve", config)["moment"] == {"score": 1.0, "worst_residual": 0.0}
            assert run("classify", config)["labels"] == ["total", "mu_independent"]

    def test_synthesis_side_refuses_one_coefficient(self, tmp_path, capsys):
        """At N = 1 the one coarse node would sit at 0: classify refuses that
        stage, and so does moment-solve, with the same message."""
        from riggedframes import cli

        path = write_config(tmp_path, DIRAC_CONFIG)
        config = config_from_dict(dict(DIRAC_CONFIG, ladder={"stages": [1]}))
        for command in ("moment-solve", "classify"):
            with pytest.raises(InvalidConfigError, match="need N >= 2, got N=1"):
                run(command, config)
        assert cli.main(["moment-solve", "--config", str(path), "--stages", "1"]) == 2
        assert "need N >= 2, got N=1" in capsys.readouterr().err

    def test_unknown_command_is_refused(self):
        with pytest.raises(InvalidConfigError, match="^unknown command 'nope'"):
            run("nope", config_from_dict({"map": {"kind": "dirac"}}))

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "demo"])
    def test_determinism_modulo_timing(self, tmp_path, command):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        a = json.loads(emit(run(command, config)).decode())
        b = json.loads(emit(run(command, config)).decode())
        a.pop("timing"), b.pop("timing")
        assert a == b


class TestEmit:
    def test_empty_stage_report_is_valid_json(self):
        report = {"config": {"map": {"kind": "dirac"}}, "stages": [], "labels": None}
        parsed = json.loads(emit(report).decode())
        assert parsed["stages"] == []
        assert parsed["labels"] is None

    def test_non_finite_floats_are_null(self):
        report = {"dual": {"A_theta": math.inf, "B_theta": -math.inf, "defect": math.nan}}
        assert emit(report) == b'{"dual":{"A_theta":null,"B_theta":null,"defect":null}}\n'

    def test_json_key_order(self, tmp_path):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        payload = emit(run("classify", config)).decode()
        parsed = json.loads(payload)
        assert list(parsed) == ["config", "stages", "labels", "dual", "moment", "timing"]

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "demo"])
    def test_json_key_order_of_every_command(self, tmp_path, command):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        payload = emit(run(command, config)).decode()
        parsed = json.loads(payload)
        assert list(parsed) == ["config", "stages", "labels", "dual", "moment", "timing"]

    def test_round_trip_exact_at_17_digits(self, tmp_path):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        report = run("bounds", config)
        parsed = json.loads(emit(report).decode())
        for row, stage in zip(parsed["stages"], report["stages"]):
            for key, value in stage.items():
                if isinstance(value, float):
                    assert parsed_value_equal(row[key], value)
                else:
                    assert row[key] == value

    def test_csv_row_count(self, tmp_path):
        config = load_config(write_config(tmp_path, DIRAC_CONFIG))
        lines = emit(run("bounds", config), "csv").decode().strip().splitlines()
        assert len(lines) == len(config.ladder.truncations) + 1
        assert lines[0] == "N,A,B,sigma_min,sigma_max,total,mu_independent"

    @pytest.mark.parametrize("map_data", BUILTIN_MAPS, ids=lambda data: data.get("weight", data["kind"]))
    def test_csv_cells_parse_back_to_the_json_stage_values(self, map_data):
        report = run("bounds", config_from_dict({"map": map_data, "ladder": {"n_max": 16}}))
        stages = json.loads(emit(report).decode())["stages"]
        header, *lines = emit(report, "csv").decode().splitlines()
        assert len(lines) == len(stages)
        for line, stage in zip(lines, stages):
            cells = dict(zip(header.split(","), line.split(",")))
            assert list(cells) == list(stage)
            for key, value in stage.items():
                if isinstance(value, bool):
                    assert cells[key] == ("true" if value else "false")
                elif isinstance(value, int):
                    assert int(cells[key]) == value
                else:
                    assert float(cells[key]) == value

    def test_write_report_atomic(self, tmp_path):
        report = {"config": {}, "stages": []}
        target = tmp_path / "out.json"
        write_report(report, target)
        assert json.loads(target.read_text())["stages"] == []
        assert not (tmp_path / "out.json.tmp").exists()


def parsed_value_equal(parsed, original):
    return parsed == float(f"{original:.17g}") == original


class TestCommandLine:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "riggedframes.cli", *args], capture_output=True, text=True
        )

    def test_classify_to_file(self, tmp_path):
        config = write_config(tmp_path, DIRAC_CONFIG)
        out = tmp_path / "report.json"
        proc = self.run_cli("classify", "--config", str(config), "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "gelfand_basis" in json.loads(out.read_text())["labels"]

    def test_malformed_weight_exits_nonzero_with_position(self, tmp_path):
        config = write_config(
            tmp_path, {"map": {"kind": "weighted_dirac", "weight": "sin("}}
        )
        proc = self.run_cli("classify", "--config", str(config))
        assert proc.returncode == 2
        assert "offset 4" in proc.stderr

    def test_middle_stage_grid_exits_two_naming_the_field(self, tmp_path):
        """Every stage is summed on the final stage's grid: a grid set on an
        earlier stage (here one that under-resolves N = 256) is refused."""
        data = {
            "map": {"kind": "weighted_dirac", "weight": "2+sin(x)"},
            "ladder": {"stages": [128, {"N": 256, "panels": 60}, 512]},
        }
        proc = self.run_cli("classify", "--config", str(write_config(tmp_path, data)))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ladder.stages[1].panels: only the final stage sets the grid")

    def test_stages_and_seed_overrides(self, tmp_path):
        config = write_config(tmp_path, DIRAC_CONFIG)
        proc = self.run_cli(
            "bounds", "--config", str(config), "--stages", "8", "--format", "csv"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("8,")

    @pytest.mark.parametrize("command", ["dual", "reconstruct"])
    def test_frame_operator_past_float64_range_exits_one(self, tmp_path, command):
        """exp(x^2) at n_max 128, and a complex custom CSV of 1e160 (2+sin(x))
        exp(i x) at N=16: one error line naming N, and no warning."""
        import numpy as np

        from riggedframes import (
            KernelMatrix,
            default_stage,
            sample_kernel,
            save_kernel_csv,
            stage_grid,
            weighted_dirac_map,
        )

        grid = stage_grid(default_stage(16))
        kernel = sample_kernel(weighted_dirac_map("2+sin(x)"), grid, 16)
        path = tmp_path / "complex.csv"
        save_kernel_csv(KernelMatrix(1e160 * kernel.rows * np.exp(1j * grid.nodes)[:, None], grid), path)
        cases = {
            "N=128": {"map": {"kind": "weighted_dirac", "weight": "exp(x^2)"}, "ladder": {"n_max": 128}},
            "N=16": {"map": {"kind": "custom", "custom_kernel": str(path)}, "ladder": {"stages": [16]}},
        }
        for where, data in cases.items():
            proc = self.run_cli(command, "--config", str(write_config(tmp_path, data)))
            assert proc.returncode == 1
            assert proc.stderr == f"error: {where}: the frame operator is past float64 range\n"

    def test_missing_config_is_usage_error(self):
        proc = self.run_cli("classify")
        assert proc.returncode == 2
        assert "--config" in proc.stderr


class TestDemoExitContract:
    def test_failing_check_turns_exit_nonzero(self, monkeypatch):
        from riggedframes import acceptance, cli

        def fake_run_all():
            results = [{"name": "forced_failure", "passed": False, "detail": "synthetic"}]
            print("FAIL  forced_failure: synthetic")
            return results

        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        assert cli.main(["demo"]) == 1

    def test_all_passing_exits_zero(self, monkeypatch):
        from riggedframes import acceptance, cli

        def fake_run_all():
            return [{"name": "ok", "passed": True, "detail": "synthetic"}]

        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        assert cli.main(["demo"]) == 0


def test_main_reuses_one_parser(tmp_path, capsys):
    """The parser is built once per process: two main calls print the same
    bytes, and a bad argument returns 2 on the second call as on the first,
    with argparse's message on stderr."""
    from riggedframes import cli

    assert cli._build_parser() is cli._build_parser()
    argv = ["bounds", "--config", str(write_config(tmp_path, DIRAC_CONFIG)), "--format", "csv"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("N,A,B,")
    for _ in range(2):
        assert cli.main(["bounds", "--format", "xml"]) == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["frobnicate"], 2, "err", "invalid choice: 'frobnicate'"),
        (["bounds", "--bogus"], 2, "err", "unrecognized arguments: --bogus"),
        (["bounds", "--seed", "x"], 2, "err", "argument --seed: invalid int value: 'x'"),
        ([], 2, "err", "the following arguments are required: command"),
        (["--help"], 0, "out", "usage: riggedframes"),
    ],
)
def test_main_returns_the_argparse_exit_code(capsys, argv, code, stream, text):
    """argparse's refusals and --help come back as main's return value, with
    its usage printed, as every other refusal does; none raises."""
    from riggedframes import cli

    assert cli.main(argv) == code
    assert text in getattr(capsys.readouterr(), stream)


@pytest.mark.parametrize("command", ["dual", "reconstruct"])
def test_dual_requests_form_one_tall_frame_operator(monkeypatch, tmp_path, command):
    """One tall S for omega, and two values-only eigendecompositions of N x N
    operators: omega's bounds (canonical_dual) and theta's (the dual_bounds
    postcondition).  No eigenvectors are computed, and neither omega's
    bounds nor theta's S are re-formed from a kernel."""
    import numpy as np

    from riggedframes import operators

    counts = {"frame_operator": 0, "eigh": 0, "eigvalsh": 0}
    truncation = DIRAC_CONFIG["ladder"]["n_max"]
    frame_operator = operators.frame_operator
    decompositions = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

    def counting_frame_operator(kernel):
        counts["frame_operator"] += 1
        return frame_operator(kernel)

    def counting(name):
        def decompose(matrix, *args, **kwargs):
            # N x N operators only: leggauss takes the eigenvalues of its
            # small Jacobi matrix when the grid is built
            counts[name] += np.shape(matrix) == (truncation, truncation)
            return decompositions[name](matrix, *args, **kwargs)
        return decompose

    for name, module in list(sys.modules.items()):
        if name.startswith("riggedframes") and getattr(module, "frame_operator", None) is frame_operator:
            monkeypatch.setattr(module, "frame_operator", counting_frame_operator)
    for name in decompositions:
        monkeypatch.setattr(np.linalg, name, counting(name))
    data = dict(DIRAC_CONFIG, map={"kind": "weighted_dirac", "weight": "2+sin(x)"})
    run(command, load_config(write_config(tmp_path, data)))
    assert counts == {"frame_operator": 1, "eigh": 0, "eigvalsh": 2}



@pytest.mark.parametrize("command", ["dual", "reconstruct"])
def test_mirrored_dual_requests_factor_half_size_blocks(monkeypatch, tmp_path, command):
    """dirac's rows mirror, so its S and theta's are block diagonal by parity:
    a dual request decomposes only their N/2 x N/2 even and odd blocks (two
    eigvalsh per operator, one cholesky and one inv per block of S), never
    an N x N matrix.  The grid its stage is summed on (the 64-node
    Gauss-Hermite rule, whose nodes are the eigenvalues of an N/2 x N/2
    Jacobi matrix) is built before counting."""
    import numpy as np

    from riggedframes import operators

    truncation = 64
    config = load_config(write_config(tmp_path, dict(DIRAC_CONFIG, ladder={"n_max": truncation})))
    operators._ladder_grid(config.map_spec, config.ladder.final_stage)
    sizes = {(truncation, truncation): "N", (truncation // 2, truncation // 2): "N/2"}
    names = ("eigh", "eigvalsh", "cholesky", "inv")
    originals = {name: getattr(np.linalg, name) for name in names}
    counts = {}

    def counting(name):
        def decompose(matrix, *args, **kwargs):
            # N x N and N/2 x N/2 only: leggauss takes the eigenvalues of its
            # small Jacobi matrix when the grid is built
            size = sizes.get(np.shape(matrix))
            if size is not None:
                counts[name, size] = counts.get((name, size), 0) + 1
            return originals[name](matrix, *args, **kwargs)
        return decompose

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name))
    run(command, config)
    assert counts == {("eigvalsh", "N/2"): 4, ("cholesky", "N/2"): 2, ("inv", "N/2"): 2}

@pytest.mark.parametrize("command", ["dual", "reconstruct"])
def test_mirrored_dual_requests_sample_the_positive_nodes_once(monkeypatch, tmp_path, command):
    """A dirac dual request at N=512 runs the Hermite recurrence once, on the
    nodes x > 0 of the grid its stage is summed on (the 512-node
    Gauss-Hermite rule): the rows at x < 0 are their mirror, and nothing
    else samples.  The grid is built, with its own Hermite table, before
    counting."""
    from riggedframes import hermite, kernels, operators

    config = load_config(write_config(tmp_path, dict(DIRAC_CONFIG, ladder={"stages": [512]})))
    grid = operators._ladder_grid(config.map_spec, config.ladder.final_stage)
    calls = []
    recurrence = hermite._hermite_recurrence

    def counting(truncation, xa, rows):
        calls.append((truncation, xa.size))
        return recurrence(truncation, xa, rows)

    for module in (hermite, kernels):
        monkeypatch.setattr(module, "_hermite_recurrence", counting)
    run(command, config)
    assert grid.node_count == 512 and calls == [(512, 256)]


def test_only_the_dual_report_measures_the_duality_defect(monkeypatch):
    """canonical_dual only builds the pair: run("dual") verifies it once, with
    20 trials at the config's seed, and neither canonical_dual nor
    run("reconstruct") verifies it at all."""
    from riggedframes import DualPair, canonical_dual, duality, reporting, sample_kernel, stage_grid

    calls = []
    verify_duality = duality.verify_duality

    def spy(pair, trials, seed=duality.DEFAULT_SEED):
        calls.append((pair, trials, seed))
        return verify_duality(pair, trials, seed)

    monkeypatch.setattr(reporting, "verify_duality", spy, raising=False)
    monkeypatch.setattr(duality, "verify_duality", spy)
    config = config_from_dict(DIRAC_CONFIG)
    stage = config.ladder.final_stage
    canonical_dual(sample_kernel(config.map_spec, stage_grid(stage), stage.truncation))
    run("reconstruct", config)
    assert calls == []
    run("dual", config)
    assert len(calls) == 1
    pair, trials, seed = calls[0]
    assert isinstance(pair, DualPair) and pair.inverse is not None
    assert (trials, seed) == (20, config.seed)


@pytest.mark.parametrize("map_data", [{"kind": "weighted_dirac", "weight": "2+sin(x)"}, {"kind": "fourier"}])
def test_dual_defect_is_verify_duality_of_the_canonical_dual(map_data):
    from riggedframes import canonical_dual, operators, sample_kernel, verify_duality

    config = config_from_dict(dict(DIRAC_CONFIG, map=map_data))
    stage = config.ladder.final_stage
    kernel = sample_kernel(config.map_spec, operators._ladder_grid(config.map_spec, stage), stage.truncation)
    expected = verify_duality(canonical_dual(kernel), 20, config.seed)
    assert run("dual", config)["dual"]["defect"] == expected


def test_fourier_dual_runs_no_complex_eigendecomposition(monkeypatch, tmp_path):
    """fourier's S is its real rows' Gram under a unitary phase, so the dual
    path decomposes only real matrices."""
    import numpy as np

    seen = []
    originals = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

    def recording(name):
        def decompose(matrix, *args, **kwargs):
            seen.append((name, np.asarray(matrix).dtype))
            return originals[name](matrix, *args, **kwargs)
        return decompose

    for name in originals:
        monkeypatch.setattr(np.linalg, name, recording(name))
    data = dict(DIRAC_CONFIG, map={"kind": "fourier"})
    dual = run("dual", load_config(write_config(tmp_path, data)))["dual"]
    assert seen and all(dtype == np.float64 for _, dtype in seen)
    assert abs(dual["A_theta"] - 1.0) <= 1e-8 and abs(dual["B_theta"] - 1.0) <= 1e-8


def test_report_bodies_tool(tmp_path):
    """tools/report_bodies.py writes every report body without timing or
    temporary paths, the same bytes on every run."""
    import importlib.util
    import tempfile
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "report_bodies.py"
    spec = importlib.util.spec_from_file_location("report_bodies", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert tool.main([str(out), "16"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    bodies = json.loads(outs[0].read_text())
    # every report command, plus the bounds report in CSV, plus each demo's
    # stdout, plus bounds and dual of each map on the grid with a node at 0,
    # plus the refused middle-stage grid
    demos = sorted(tool.DEMOS.glob("*.py"))
    assert len(bodies) == (len(tool.BUILTIN_MAPS) + len(tool.ODD_N_MAPS) + len(tool.CUSTOM_KERNELS)) * (
        len(tool.REPORT_COMMANDS) + 1
    ) + len(demos) + 2 * len(tool.NODE_AT_ZERO_MAPS) + 1
    assert bodies["2+sin(x)/middle-stage-grid/classify"].startswith(
        "InvalidConfigError: ladder.stages[1].panels: "
    )
    assert bodies["dirac_derivative/N=33/classify"]["labels"] == ["total", "mu_independent"]
    grid = bodies["dirac/node-at-0/bounds"]["config"]["ladder"]["stages"][-1]
    assert grid["panels"] * grid["order"] % 2
    assert bodies["bump[-1,1]/node-at-0/dual"].startswith("NotAFrameError: ")
    assert len(demos) == 7 and all(bodies[f"demos/{d.stem}"].strip() for d in demos)
    assert bodies["dirac/n_max=16/bounds/csv"].startswith("N,A,B,")
    assert tempfile.gettempdir() not in outs[0].read_text()
    assert bodies["custom-real/N=32/dual"]["config"]["map"]["custom_kernel"].startswith("<tmp>")
    assert bodies["custom-real/N=32/classify"].startswith("InvalidConfigError: ")
    assert bodies["bump[-1,1]/n_max=16/dual"].startswith("NotAFrameError: ")
    assert all("timing" not in body for body in bodies.values() if isinstance(body, dict))


def test_report_bodies_compare(tmp_path, capsys):
    """--compare prints each differing leaf as `key/path: before -> after`,
    with the relative difference of two numbers, and exits 1, or prints
    nothing and exits 0."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "report_bodies.py"
    spec = importlib.util.spec_from_file_location("report_bodies", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = {
        "dirac/n_max=8/moment-solve": {"moment": {"score": 1.0, "worst_residual": 2e-15}},
        "dirac/n_max=8/bounds": {"stages": [{"A": 1.0}, {"A": 0.5}], "labels": ["frame"]},
        "dirac/n_max=8/classify": "InvalidConfigError: refused",
    }
    after = {
        "dirac/n_max=8/moment-solve": {"moment": {"score": 1.0, "worst_residual": 0.0}},
        "dirac/n_max=8/bounds": {"stages": [{"A": 1.0}, {"A": 0.25}], "labels": ["frame", "tight"]},
        "dirac/n_max=8/classify": {"labels": []},
        "dirac/n_max=8/dual": "NotAFrameError: singular",
    }
    files = {}
    for name, bodies in (("before", before), ("after", after)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(bodies))
    assert tool.main(["--compare", str(files["before"]), str(files["before"])]) == 0
    assert capsys.readouterr().out == ""
    assert tool.main(["--compare", str(files["before"]), str(files["after"])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'dirac/n_max=8/bounds/labels: ["frame"] -> ["frame", "tight"]',
        "dirac/n_max=8/bounds/stages/1/A: 0.5 -> 0.25 (rel 5.0e-01)",
        'dirac/n_max=8/classify: "InvalidConfigError: refused" -> {"labels": []}',
        'dirac/n_max=8/dual: <absent> -> "NotAFrameError: singular"',
        "dirac/n_max=8/moment-solve/moment/worst_residual: 2e-15 -> 0.0 (rel 1.0e+00)",
    ]
    assert tool.main(["--compare", str(files["before"])]) == 2


def test_settable_values_tool(capsys):
    """tools/settable_values.py prints one sorted module.name.param=default
    line per defaulted public parameter, then their total."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "settable_values.py"
    spec = importlib.util.spec_from_file_location("settable_values", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main() == 0
    *lines, total = capsys.readouterr().out.splitlines()
    assert total == f"total: {len(lines)}"
    assert lines == sorted(lines) and len(set(lines)) == len(lines)
    assert all(line.split("=", 1)[0].count(".") == 2 for line in lines)
    assert "operators.ClassifyThresholds.rank=1e-06" in lines
    assert "operators.mu_independence_test.threshold=1e-06" in lines
    assert not any(line.startswith("operators.totality_test.") for line in lines)
    # a ratchet: a new knob raises the total and has to edit this bound
    assert len(lines) <= 24
    assert not any(line.startswith("reporting.config_with_overrides.") for line in lines)
    assert not any(line.startswith("reporting.ReportDocument.") for line in lines)


def test_code_lines_tool(tmp_path, capsys):
    """tools/code_lines.py counts the lines holding code: a module, class
    and function docstring, comments and blank lines do not count, and a
    statement spanning lines counts each of them."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment line\n"
        "import math  # a trailing comment\n"
        "\n"
        "\n"
        "class Box:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def area(self, side):\n"
        '        """Function docstring."""\n'
        "        # a comment in the body\n"
        "        return math.prod(\n"
        "            (side, side)\n"
        "        )\n"
        "\n"
        'NAME = "a string that is code"\n'
    )
    assert tool.code_lines(fixture) == 7
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"7 {fixture}", "total: 7"]
    assert tool.main([]) == 0
    *files, total = capsys.readouterr().out.splitlines()
    assert files and total == f"total: {sum(int(line.split()[0]) for line in files)}"
