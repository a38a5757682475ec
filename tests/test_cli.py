import dataclasses
import errno
import json
import os
import re
import tomllib
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from gfclust import cli, solver, spectral
from gfclust.cli import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    emit_convergence_plot,
    grid_point_hash,
    grid_points,
    load_config,
    main,
    run_experiment,
)
from gfclust.data import SyntheticSpec
from gfclust.solver import solve_peak_bytes
from pipeline import run_in_fresh_interpreter

SMALL_SYNTHETIC = {
    "k": 3,
    "n_per_cluster": 6,
    "subspace_dim": 2,
    "view_dims": [5, 6],
    "noise_sigma": 0.05,
    "seed": 50,
}


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "dataset": {"synthetic": SMALL_SYNTHETIC},
        "solver": {"alpha": 0.5, "beta": 0.5, "eta": 0.5, "max_iter": 400},
        "repetitions": 1,
        "restarts": 5,
        "seed": 0,
        "variant": "full",
        "output_dir": "out",
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def read_results(output_dir: Path):
    results = {}
    for result_file in output_dir.glob("*/result.json"):
        results[result_file.parent.name] = json.loads(result_file.read_text())
    return results


def test_single_point_artifact_contract(tmp_path):
    config = write_config(tmp_path, repetitions=3)
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    point_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(point_dirs) == 1
    point = point_dirs[0]
    for artifact in ("result.json", "trace.csv", "consensus.csv", "plot.svg"):
        assert (point / artifact).is_file()
    assert (out / "summary.json").is_file()
    result = json.loads((point / "result.json").read_text())
    assert result["converged"] is True
    assert result["k"] == 3
    for metric in ("acc", "nmi", "ari", "f_score"):
        assert len(result["metrics"][metric]["values"]) == 3
    consensus = np.loadtxt(point / "consensus.csv", delimiter=",")
    assert consensus.shape == (18, 18)


def test_preset_sets_solver_parameters(tmp_path):
    config = write_config(tmp_path, preset="BBCsport", solver={"max_iter": 120})
    main(["run", "--config", str(config)])
    (result,) = read_results(tmp_path / "out").values()
    assert result["params"] == {"alpha": 0.2, "beta": 2.0, "eta": 0.5}
    assert PRESETS["BBCsport"] == (0.2, 2.0, 0.5)


@pytest.mark.parametrize(
    "eta,regime",
    [
        ("0.5", "maximizer"),
        ("2", "minimizer"),
        ("-1", "minimizer"),
        ("0", "constant"),
        # argparse alone would take these words for options, not values.
        ("-1e1", "minimizer"),
        ("-1E-3", "minimizer"),
    ],
)
def test_result_records_weight_regime(tmp_path, eta, regime):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--eta", eta]) == 0
    (result,) = read_results(tmp_path / "out").values()
    assert result["params"]["eta"] == float(eta)
    assert result["weight_regime"] == regime


def test_grid_sweep_and_summary_recompute(tmp_path):
    config = write_config(
        tmp_path,
        grid={"alpha": [0.1, 0.5], "beta": [0.3, 0.8]},
        repetitions=2,
    )
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    results = read_results(out)
    assert len(results) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_points"] == 4
    assert summary["n_failed"] == 0
    # best-per-metric selection must equal a recompute over the emitted files
    for metric in ("acc", "nmi", "ari", "f_score"):
        best_hash = max(results, key=lambda h: results[h]["metrics"][metric]["mean"])
        assert summary["best"][metric]["mean"] == results[best_hash]["metrics"][metric]["mean"]
        assert (
            results[summary["best"][metric]["hash"]]["metrics"][metric]["mean"]
            == summary["best"][metric]["mean"]
        )


def test_flag_overrides_beat_config(tmp_path):
    config = write_config(tmp_path, grid={"alpha": [0.1, 0.5]})
    main(
        [
            "run",
            "--config",
            str(config),
            "--alpha",
            "0.9",
            "--repetitions",
            "2",
            "--seed",
            "7",
            "--output",
            str(tmp_path / "o"),
        ]
    )
    results = read_results(tmp_path / "o")
    assert len(results) == 1  # explicit alpha collapses the alpha grid
    (result,) = results.values()
    assert result["params"]["alpha"] == 0.9
    assert result["seed"] == 7
    assert result["repetitions"] == 2


FLAG_VALUES = {
    "alpha": 0.3,
    "beta": 0.7,
    "eta": 2.0,
    "max_iter": 17,
    "eps": 1e-3,
    "seed": 5,
    "repetitions": 3,
    "variant": "frobenius",
    "k": 2,
    "normalize": "unit_row_norm",
}


@pytest.mark.parametrize("preset", [None, "HW"])
@pytest.mark.parametrize("grid", [None, "default"])
@pytest.mark.parametrize("name", cli.RUN_FLAGS)
def test_flag_builds_the_config_of_its_json_value(tmp_path, monkeypatch, name, grid, preset):
    # A solver flag beats the solver object and the preset (HW sets beta and
    # eta here) and drops its grid key; any other flag replaces its top-level value.
    solver_keys = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    assert name in solver_keys or name in {f.name for f in dataclasses.fields(ExperimentConfig)}
    built = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: built.append(cfg) or 0)
    config = write_config(tmp_path, solver={"alpha": 0.5, "max_iter": 400}, grid=grid, preset=preset)
    flag = "--" + name.replace("_", "-")
    assert main(["run", "--config", str(config), flag, str(FLAG_VALUES[name])]) == 0

    raw = json.loads(config.read_text())
    if name in solver_keys:
        raw["solver"][name] = FLAG_VALUES[name]
        if grid == "default":
            raw["grid"] = {key: "default" for key in cli.DEFAULT_GRID if key != name}
    else:
        raw[name] = FLAG_VALUES[name]
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    assert built[0] == built[1]
    assert getattr(built[0].solver if name in solver_keys else built[0], name) == FLAG_VALUES[name]


def test_flags_collapse_default_grid_and_output_is_cwd_relative(tmp_path, monkeypatch):
    from gfclust.cli import DEFAULT_ETA_GRID

    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    config = write_config(config_dir, grid="default")
    monkeypatch.chdir(tmp_path)
    argv = ["--alpha", "0.2", "--beta", "0.3", "--max-iter", "20", "--output", "rel"]
    assert main(["run", "--config", str(config), *argv]) == 0
    results = read_results(tmp_path / "rel")
    assert sorted(r["params"]["eta"] for r in results.values()) == sorted(DEFAULT_ETA_GRID)
    assert all(r["params"]["alpha"] == 0.2 and r["params"]["beta"] == 0.3 for r in results.values())
    assert not (config_dir / "rel").exists()


def test_variant_override_runs_ablation(tmp_path):
    config = write_config(tmp_path, solver={"max_iter": 300})
    main(["run", "--config", str(config), "--variant", "no_smoothing"])
    (result,) = read_results(tmp_path / "out").values()
    assert result["variant"] == "no_smoothing"
    assert result["converged"] is True


def test_exit_code_on_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_on_invalid_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "text", ['{"k": ' + "1" * 5000 + "}", "[" * 100_000], ids=["long_int", "deep"]
)
def test_exit_code_on_json_the_parser_refuses(tmp_path, capsys, text):
    # json.loads raises a plain ValueError on an integer literal of over 4300
    # digits and RecursionError on deep nesting, not a JSONDecodeError.
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "raw, message",
    [
        ([], "config must be a JSON object"),
        (
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "grid": {"alpha": []}},
            "grid lists must be non-empty",
        ),
    ],
    ids=["json_array", "empty_grid_list"],
)
def test_config_error_message(tmp_path, capsys, raw, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_k_above_the_sample_count_is_a_config_error(tmp_path, capsys):
    # Caught before any solve: every grid point would solve, then fail to
    # cluster 18 samples into 50 clusters.
    config = write_config(tmp_path, k=50)
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "config error: k=50 exceeds the 18 samples of the dataset\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("repetitions", "abc"), ("repetitions", None), ("restarts", None), ("seed", None)],
)
def test_exit_code_on_non_integer_field(tmp_path, capsys, key, value):
    config = write_config(tmp_path, **{key: value})
    assert main(["run", "--config", str(config)]) == 1
    assert f"config error: {key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [10_001, 2**70])
@pytest.mark.parametrize("key", ["repetitions", "restarts"])
def test_count_above_its_bound_is_a_config_error(key, value):
    # 2^70 clustering repetitions or k-means restarts would run until killed;
    # both counts share max_iter's bound.
    raw = {"dataset": {"synthetic": SMALL_SYNTHETIC}}
    assert getattr(ExperimentConfig.from_dict({**raw, key: 10_000}), key) == 10_000
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be in [1, 1e4], got {value}")):
        ExperimentConfig.from_dict({**raw, key: value})


def test_each_grid_point_calls_solve_once_with_its_variant(tmp_path, monkeypatch):
    # The runner has one solve entry point, gfclust.cli.solve.
    calls = []

    def recorder(ds, cfg, variant):
        calls.append((cfg.alpha, variant))
        return solver.solve(ds, cfg, variant)

    monkeypatch.setattr(cli, "solve", recorder)
    config = write_config(
        tmp_path, solver={"max_iter": 3}, grid={"alpha": [0.1, 0.5]}, variant="frobenius"
    )
    assert main(["run", "--config", str(config)]) == 0
    assert sorted(calls) == [(0.1, "frobenius"), (0.5, "frobenius")]


def spectral_recorder(monkeypatch):
    """Record each call of gfclust.cli.spectral_clustering as (n, k, seeds,
    restarts) and pass it on to the real function."""
    calls = []

    def recorder(W, k, seeds, restarts=20):
        calls.append((W.shape[0], k, list(seeds), restarts))
        return spectral.spectral_clustering(W, k, seeds, restarts=restarts)

    monkeypatch.setattr(cli, "spectral_clustering", recorder)
    return calls


def test_each_grid_point_embeds_once_for_all_repetition_seeds(tmp_path, monkeypatch):
    # One embedding per grid point, rounded by k-means for seeds
    # seed .. seed + repetitions - 1, with the configured restarts.
    calls = spectral_recorder(monkeypatch)
    config = write_config(
        tmp_path,
        solver={"max_iter": 3},
        grid={"alpha": [0.1, 0.5]},
        repetitions=3,
        restarts=4,
        seed=5,
    )
    assert main(["run", "--config", str(config)]) == 0
    assert calls == [(18, 3, [5, 6, 7], 4)] * 2
    for result in read_results(tmp_path / "out").values():
        assert len(result["metrics"]["nmi"]["values"]) == 3


def test_exit_code_on_scalar_grid_values(tmp_path, capsys):
    config = write_config(tmp_path, grid={"alpha": 0.5})
    assert main(["run", "--config", str(config)]) == 1
    assert "config error: grid alpha must be a list" in capsys.readouterr().err


def test_exit_code_on_manifest_view_without_path(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"views": [{"has_header": False}], "labels": None}))
    config = write_config(tmp_path, dataset={"manifest": str(manifest)})
    assert main(["run", "--config", str(config)]) == 1
    assert "config error: manifest view 0 needs a 'path'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "manifest_fields, view_fields, message",
    [
        ({"label": "labels.csv"}, {}, r"unknown manifest keys \['label'\]; known: \["),
        ({}, {"has_headr": True}, r"unknown manifest view 0 keys \['has_headr'\]; known: \["),
        ({}, {"has_header": "false"}, "has_header must be true or false, got 'false'"),
    ],
    ids=["label", "has_headr", "has_header_string"],
)
def test_exit_code_on_misspelt_manifest_keys(tmp_path, capsys, manifest_fields, view_fields, message):
    np.savetxt(tmp_path / "v0.csv", np.eye(6)[:, :3], delimiter=",")
    np.savetxt(tmp_path / "labels.csv", np.arange(6) % 2, fmt="%d")
    manifest = tmp_path / "manifest.json"
    view = {"path": "v0.csv", **view_fields}
    manifest.write_text(json.dumps({"views": [view], **manifest_fields}))
    config = write_config(tmp_path, dataset={"manifest": str(manifest)}, k=2)
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert re.search("config error: .*" + message, err)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_exit_code_on_huge_class_id(tmp_path, capsys):
    np.savetxt(tmp_path / "v0.csv", np.eye(3), delimiter=",")
    (tmp_path / "labels.csv").write_text("0\n1\n4611686018427387904\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"views": [{"path": "v0.csv"}], "labels": "labels.csv"}))
    config = write_config(tmp_path, dataset={"manifest": str(manifest)})
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: class ids [2, 3, 4, 5, 6, ...] (4611686018427387902 in all)")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad",
    ["config", "manifest", "view", "labels", "output_dir",
     "config_denied", "manifest_denied", "view_denied", "labels_denied"],
)  # fmt: skip
def test_exit_code_on_unreadable_input_or_output(tmp_path, capsys, monkeypatch, bad):
    np.savetxt(tmp_path / "v0.csv", np.eye(6)[:, :3], delimiter=",")
    np.savetxt(tmp_path / "labels.csv", np.arange(6) % 2, fmt="%d")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"views": [{"path": "v0.csv"}], "labels": "labels.csv"}))
    config = write_config(tmp_path, dataset={"manifest": str(manifest)})
    files = {"config": config, "manifest": manifest, "view": tmp_path / "v0.csv",
             "labels": tmp_path / "labels.csv", "output_dir": tmp_path / "out"}
    if bad == "output_dir":
        files[bad].write_text("a file")
        expected = "cannot create output_dir"
    elif bad.endswith("_denied"):
        # Every read of a file opens it through Path.open. The read is denied
        # here, since file modes do not stop a process run as root.
        denied, real_open = files[bad.removesuffix("_denied")], Path.open

        def open_unless_denied(path, *args, **kwargs):
            if path == denied:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_unless_denied)
        expected = f"cannot read {denied}: {os.strerror(errno.EACCES)}\n"
    else:
        files[bad].write_bytes(b"\xff\xfe1,2\n")
        expected = "is not UTF-8 text"
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and expected in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before and not files["output_dir"].is_dir()


def test_exit_code_when_point_directory_is_a_file(tmp_path, capsys):
    # 792d2f780e6c is the hash of alpha=0.1, beta=0.5, eta=0.5.
    config = write_config(tmp_path, solver={"alpha": 0.1, "beta": 0.5, "eta": 0.5})
    point = tmp_path / "out" / "792d2f780e6c"
    point.parent.mkdir()
    point.touch()
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create grid point directory")
    assert str(point) in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, key, json_value",
    [
        ("--alpha", "-1", "solver.alpha", -1.0),
        ("--beta", "0", "solver.beta", 0.0),
        ("--eta", "1", "solver.eta", 1.0),
        ("--eps", "0", "solver.eps", 0.0),
        ("--max-iter", "0", "solver.max_iter", 0),
        ("--k", "0", "k", 0),
        ("--repetitions", "0", "repetitions", 0),
        ("--variant", "bogus", "variant", "bogus"),
        ("--normalize", "bogus", "normalize", "bogus"),
        ("--alpha", "nan", "solver.alpha", float("nan")),
        ("--eps", "inf", "solver.eps", float("inf")),
        ("--alpha", "-inf", "solver.alpha", float("-inf")),
        # Each flag value is read as the JSON value it spells, so a value
        # of the wrong kind is the checker's error too, not argparse's.
        ("--alpha", "abc", "solver.alpha", "abc"),
        ("--max-iter", "1.5", "solver.max_iter", 1.5),
        ("--k", "3.0", "k", 3.0),
        ("--repetitions", "1e3", "repetitions", 1000.0),
        ("--seed", "", "seed", ""),
        ("--variant", "1", "variant", 1),
        # The word after a flag is its value even when it starts with "-".
        ("--variant", "-x", "variant", "-x"),
        ("--normalize", "-x", "normalize", "-x"),
        ("--alpha", "-h", "solver.alpha", "-h"),
    ],
)
def test_bad_flag_fails_like_bad_json(tmp_path, capsys, flag, value, key, json_value):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), flag, value]) == 1
    flag_err = capsys.readouterr().err
    assert flag_err.startswith("config error: ")
    assert flag_err.count("\n") == 1 and "Traceback" not in flag_err

    raw = json.loads(config.read_text())
    if key.startswith("solver."):
        raw["solver"][key.split(".")[1]] = json_value
    else:
        raw[key] = json_value
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == flag_err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["run", "--config", "CONFIG", "--alhpa", "0.5"], "unrecognized arguments: --alhpa 0.5"),
        (["run", "--config", "CONFIG", "--alpha"], "argument --alpha: expected one argument"),
        (["run", "--alpha", "0.5"], "the following arguments are required: --config"),
        (["run", "--config", "CONFIG", "--alp", "0.5"], "unrecognized arguments: --alp 0.5"),
        (["run", "--config", "CONFIG", "--alpha", "--x"], "argument --alpha: expected one argument"),
        # An unknown option is refused before -h or --help would print help.
        (["run", "--config", "CONFIG", "--alp", "-h"], "unrecognized arguments: --alp"),
        (["run", "--config", "CONFIG", "--max", "--help"], "unrecognized arguments: --max"),
        # plot's --out is no option of run, so its word is not joined to it.
        (["run", "--config", "CONFIG", "--out", "x"], "unrecognized arguments: --out x"),
        # An unknown option is named before a missing required argument.
        (["run", "--alp", "-h"], "unrecognized arguments: --alp"),
        (["run", "--alp", "0.5"], "unrecognized arguments: --alp 0.5"),
        (["--alp", "-h"], "unrecognized arguments: --alp"),
        (["plot", "--bad"], "unrecognized arguments: --bad"),
    ],
    ids=["unknown_flag", "flag_without_value", "no_config", "abbreviated_flag", "flag_before_option",
         "unknown_flag_before_help", "unknown_flag_before_long_help", "option_of_plot",
         "unknown_flag_before_help_without_config", "unknown_flag_without_config", "unknown_option_without_command",
         "unknown_option_of_plot_without_trace"],
)  # fmt: skip
def test_malformed_command_line_is_a_usage_error(tmp_path, capsys, argv, error):
    # Exit 2 is argparse's: the flag values themselves are the config checker's.
    config = str(write_config(tmp_path))
    with pytest.raises(SystemExit) as info:
        main([config if arg == "CONFIG" else arg for arg in argv])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage: gfclust ")
    assert err.splitlines()[-1].endswith("error: " + error)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["run", "--help"], ["plot", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gfclust ")


# Every option that takes a value, each with its one name.
VALUE_OPTIONS = [
    "--config", "--output", "--alpha", "--beta", "--eta", "--max-iter", "--eps", "--seed",
    "--repetitions", "--variant", "--k", "--normalize", "--out",
]  # fmt: skip


@pytest.mark.parametrize("option", VALUE_OPTIONS)
def test_value_option_takes_the_next_word_and_has_one_name(monkeypatch, capsys, option):
    # argparse neither judges the word after a value option nor reads a
    # prefix of the option's name as the option.
    assert cli.VALUE_OPTIONS == set(VALUE_OPTIONS)
    seen = {}

    def read_config(path, flags):
        seen.update(flags, config=path)
        raise ConfigError("stubbed")

    monkeypatch.setattr(cli, "load_config", read_config)
    monkeypatch.setattr(cli, "emit_convergence_plot", lambda trace, out: seen.update(out=out) or out)
    command = ["plot", "t.csv"] if option == "--out" else ["run"]
    if option not in ("--config", "--out"):
        command += ["--config", "c.json"]
    main([*command, option, "-x"])
    capsys.readouterr()
    names = {"--config": "config", "--output": "output_dir", "--out": "out"}
    key = names.get(option, option[2:].replace("-", "_"))
    assert seen[key] == (Path("-x").absolute() if option == "--output" else "-x")

    if option != "--k":  # "--" is not an option
        with pytest.raises(SystemExit) as info:
            main([*command, option, "v", option[:-1], "0.5"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gfclust ")
        assert err.splitlines()[-1].endswith(f"unrecognized arguments: {option[:-1]} 0.5")


def test_paths_starting_with_a_dash_are_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, name="-c.json")
    assert main(["run", "--config", "-c.json", "--eta", "-1e1", "--max-iter", "3", "--output", "-1e1"]) == 0
    assert (tmp_path / "-1e1" / "summary.json").is_file()
    (trace,) = (tmp_path / "-1e1").glob("*/trace.csv")
    assert main(["plot", str(trace), "--out", "-p.svg"]) == 0
    # A trace path starting with "-" is a positional word, so it follows "--".
    assert main(["plot", "--out", "-q.svg", "--", str(trace.relative_to(tmp_path))]) == 0
    assert (tmp_path / "-p.svg").read_text() == (tmp_path / "-q.svg").read_text()


@pytest.mark.parametrize(
    "manifest, synthetic",
    [(None, None), (Path("m.json"), SyntheticSpec(**SMALL_SYNTHETIC))],
    ids=["neither", "both"],
)
def test_config_built_directly_names_exactly_one_dataset(manifest, synthetic):
    with pytest.raises(ConfigError, match="dataset must specify exactly one of 'manifest' or 'synthetic'"):
        ExperimentConfig(manifest, synthetic, solver.SolverConfig(), None, Path("out"))


@pytest.mark.parametrize("eta", ["0.97", "0.98", "1.02", "1.03"])
def test_eta_near_one_is_a_config_error(tmp_path, capsys, eta):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--eta", eta]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solver config: eta must satisfy |1/(1 - eta)| <= 25")
    assert err.count("\n") == 1

    config = write_config(tmp_path, grid={"eta": [0.5, float(eta)]})
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid grid eta value {float(eta)!r}: eta must satisfy")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_eta_grid_accepts_values_outside_the_bound():
    from gfclust.cli import DEFAULT_ETA_GRID

    cfg = ExperimentConfig.from_dict(
        {"dataset": {"synthetic": SMALL_SYNTHETIC}, "grid": {"eta": [0.95, 1.05, *DEFAULT_ETA_GRID]}}
    )
    assert cfg.grid["eta"] == [0.95, 1.05, *DEFAULT_ETA_GRID]


def test_memory_guard_against_physical_memory(tmp_path, capsys, monkeypatch):
    # SMALL_SYNTHETIC: n = 18 samples, two views of 5 + 6 features.
    need = solve_peak_bytes(18, 2, 11)
    sizes = {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"config error: a solve at n=18 with 2 views needs about {need:,} bytes,"
        f" more than the {need - 1:,} bytes of physical memory\n"
    )
    assert not (tmp_path / "out").exists()

    sizes["SC_PHYS_PAGES"] = need
    assert main(["run", "--config", str(config)]) == 0


@pytest.mark.parametrize(
    "fields",
    [
        {"n_per_cluster": 2**70},
        {"view_dims": [5, 2**70]},
        {"n_per_cluster": 10**12},
        {"k": 10**8, "n_per_cluster": 1},
        {"k": 2, "n_per_cluster": 1, "view_dims": [10**6], "subspace_dim": 10**6 - 1},
    ],
)
def test_oversized_synthetic_spec_is_a_config_error(tmp_path, capsys, fields):
    # The memory guard reads the spec's shape before any of it is generated,
    # which numpy would refuse at these sizes or take long over. The last
    # spec's solve (n = 2) is small, but its basis draws are not.
    spec = {**SMALL_SYNTHETIC, **fields}
    config = write_config(tmp_path, dataset={"synthetic": spec})
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    n = spec["k"] * spec["n_per_cluster"]
    views = len(spec["view_dims"])
    if "subspace_dim" in fields:
        assert err.startswith("config error: generating the synthetic dataset needs about ")
    else:
        assert err.startswith(f"config error: a solve at n={n} with {views} views needs about ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def run_unlabeled_manifest(tmp_path, monkeypatch, *flags):
    """Run an 8-sample unlabeled manifest with ``flags``; assert that nothing
    is clustered, since nothing would score or keep the labels, and return
    the one point's result."""
    calls = spectral_recorder(monkeypatch)
    views_dir = tmp_path / "data"
    views_dir.mkdir()
    rng = np.random.default_rng(0)
    np.savetxt(views_dir / "v0.csv", rng.standard_normal((8, 3)), delimiter=",")
    manifest = views_dir / "manifest.json"
    manifest.write_text(json.dumps({"views": [{"path": "v0.csv"}], "labels": None}))
    config = write_config(
        tmp_path, dataset={"manifest": str(manifest)}, solver={"max_iter": 50}, repetitions=2
    )
    assert main(["run", "--config", str(config), *flags]) == 0
    (result,) = read_results(tmp_path / "out").values()
    assert result["metrics"] is None
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["best"] is None
    assert calls == []
    return result


def test_unlabeled_manifest_with_explicit_k(tmp_path, monkeypatch):
    assert run_unlabeled_manifest(tmp_path, monkeypatch, "--k", "2")["k"] == 2


def test_unlabeled_manifest_without_k(tmp_path, monkeypatch):
    # Only the clustering stage needs k, and it never runs here.
    assert run_unlabeled_manifest(tmp_path, monkeypatch)["k"] is None


def test_exit_code_when_all_points_fail(tmp_path, capsys, monkeypatch):
    # Every point's first Y^i system fails to factor, so every solve fails.
    def indefinite(A):
        raise np.linalg.LinAlgError("dpotrf: leading minor 1 is not positive definite")

    monkeypatch.setattr(solver, "cholesky", indefinite)
    config = write_config(tmp_path, grid={"alpha": [0.1, 0.5]})
    assert main(["run", "--config", str(config)]) == 2
    results = read_results(tmp_path / "out")
    assert len(results) == 2
    assert all("error" in r for r in results.values())
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_failed"] == 2
    assert summary["best"] is None


def polyline_point_counts(svg_text):
    return [
        len(match.strip().split(" "))
        for match in re.findall(r'points="([^"]+)"', svg_text)
    ]


def test_plot_polyline_counts_match_trace(tmp_path):
    config = write_config(tmp_path, solver={"max_iter": 500, "eps": 1e-30})
    main(["run", "--config", str(config)])
    (point_dir,) = [p for p in (tmp_path / "out").iterdir() if p.is_dir()]
    trace_rows = len((point_dir / "trace.csv").read_text().splitlines()) - 1
    assert trace_rows == 500
    counts = polyline_point_counts((point_dir / "plot.svg").read_text())
    assert counts == [500, 500]


def test_plot_single_row_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "iter,residual_C,residual_Z,gap_Y,gap_CiZi,gap_Ci1,gap_CZ,gap_C1,objective\n"
        "1,0.5,0.25,1,1,1,1,1,10\n"
    )
    out = tmp_path / "plot.svg"
    assert main(["plot", str(trace), "--out", str(out)]) == 0
    assert polyline_point_counts(out.read_text()) == [1, 1]


def test_plot_empty_trace_errors(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("iter,residual_C,residual_Z,gap_Y,gap_CiZi,gap_Ci1,gap_CZ,gap_C1,objective\n")
    assert main(["plot", str(trace), "--out", str(tmp_path / "p.svg")]) == 1
    assert "empty matrix file" in capsys.readouterr().err


FULL_HEADER = "iter,residual_C,residual_Z,gap_Y,gap_CiZi,gap_Ci1,gap_CZ,gap_C1,objective\n"


@pytest.mark.parametrize(
    "header, row, message",
    [
        (FULL_HEADER, "1,0.5\n", "row 1 has 2 cells, header has 9"),
        (FULL_HEADER, "1,nan,0.25,1,1,1,1,1,10\n", "non-finite"),
        (FULL_HEADER, "1,0.5,inf,1,1,1,1,1,10\n", "non-finite"),
        ("iter,residual_Z,gap_Y\n", "1,0.5,1\n", "trace.csv has no residual_C column"),
    ],
    ids=["short_row", "nan", "inf", "no_residual_C"],
)
def test_plot_malformed_trace_errors(tmp_path, capsys, header, row, message):
    trace = tmp_path / "trace.csv"
    trace.write_text(header + row)
    out = tmp_path / "p.svg"
    assert main(["plot", str(trace), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("plot error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("column", [2, 4], ids=["residual_C", "gap_Y"])
def test_plot_non_numeric_cell_names_file_line_and_column(tmp_path, capsys, column):
    # The plot reads the trace with the dataset CSV reader, so a cell float()
    # cannot read is one error naming where it is, in a plotted column or not.
    cells = "1,0.5,0.25,1,1,1,1,1,10".split(",")
    cells[column - 1] = "abc"
    trace = tmp_path / "trace.csv"
    trace.write_text(FULL_HEADER + ",".join(cells) + "\n")
    out = tmp_path / "p.svg"
    assert main(["plot", str(trace), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"plot error: non-numeric cell 'abc' at {trace} line 2, column {column}\n"
    assert not out.exists()


def test_trace_csv_bytes_match_a_per_value_join(tmp_path):
    # The one CSV writer must give the bytes of the per-value join it
    # replaced, kept here as the reference, on doubles at the ends of the
    # range, a negative zero and integral values.
    rng = np.random.default_rng(29)
    rows = 1100
    columns = [f.name for f in dataclasses.fields(solver.Diagnostics) if f.name != "J"]
    special = [0.1, 5e-324, 1e308, -0.0, 0.0, 1.0, 7, 2**53 + 1, -3, 1e22]
    diag = solver.Diagnostics()
    for offset, name in enumerate(columns):
        drawn = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        values = [
            special[(idx + offset) % len(special)] if idx % 3 else float(x)
            for idx, x in enumerate(drawn)
        ]
        setattr(diag, name, values)
    output = solver.SolverOutput(
        consensus_C=np.eye(2), view_C=[], gamma=np.ones(1), diagnostics=diag,
        converged=False, iterations=rows,
    )
    path = tmp_path / "trace.csv"
    cli._write_trace_csv(path, output)

    lines = [",".join(["iter", *columns])]
    for idx, row in enumerate(zip(*(getattr(diag, name) for name in columns)), start=1):
        lines.append(",".join([str(idx), *(format(x, ".17g") for x in row)]))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_plot_axis_spans_data_range(tmp_path):
    trace = tmp_path / "trace.csv"
    lines = ["iter,residual_C,residual_Z,gap_Y,gap_CiZi,gap_Ci1,gap_CZ,gap_C1,objective"]
    values = [10.0 ** (-k) for k in range(1, 6)]
    for idx, val in enumerate(values):
        lines.append(f"{idx + 1},{val},{val / 2},0,0,0,0,0,1")
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "span.svg"
    emit_convergence_plot(trace, out)
    svg = out.read_text()
    assert f">{np.log10(values[-1] / 2):.1f}<" in svg  # y-axis low label
    assert f">{np.log10(values[0]):.1f}<" in svg  # y-axis high label


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_dict({"dataset": {}})
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_dict(
            {"dataset": {"manifest": "x", "synthetic": SMALL_SYNTHETIC}}
        )
    with pytest.raises(ConfigError, match="unknown preset"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "preset": "nope"}
        )
    with pytest.raises(ConfigError, match="repetitions"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "repetitions": 0}
        )
    with pytest.raises(ConfigError, match="grid"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "grid": {"mu0": [1.0]}}
        )
    with pytest.raises(ConfigError, match="variant"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "variant": "bogus"}
        )
    with pytest.raises(ConfigError, match="solver must be a JSON object"):
        ExperimentConfig.from_dict({"dataset": {"synthetic": SMALL_SYNTHETIC}, "solver": []})
    with pytest.raises(ConfigError, match="max_iter must be an integer, got 10.5"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "solver": {"max_iter": 10.5}}
        )
    with pytest.raises(ConfigError, match="max_iter must be an integer, got True"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "solver": {"max_iter": True}}
        )
    with pytest.raises(ConfigError, match="repetitions must be an integer, got 2.5"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "repetitions": 2.5}
        )
    with pytest.raises(ConfigError, match="invalid synthetic spec: k must be an integer"):
        ExperimentConfig.from_dict({"dataset": {"synthetic": {**SMALL_SYNTHETIC, "k": 2.5}}})
    with pytest.raises(ConfigError, match="invalid grid alpha value -1.0"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "grid": {"alpha": [0.5, -1.0]}}
        )
    with pytest.raises(ConfigError, match="invalid grid eta value 1.0"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "grid": {"eta": [1.0]}}
        )
    with pytest.raises(ConfigError, match="grid alpha lists the value 0.5 more than once"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "grid": {"alpha": [0.5, 0.5, 1]}}
        )
    with pytest.raises(ConfigError, match="grid beta lists the value 1.0 more than once"):
        ExperimentConfig.from_dict(
            {"dataset": {"synthetic": SMALL_SYNTHETIC}, "grid": {"beta": [1, 2, 1.0]}}
        )
    with pytest.raises(ConfigError, match=r"unknown config keys \['repetiton'\]; known: .*'repetitions'"):
        ExperimentConfig.from_dict({"dataset": {"synthetic": SMALL_SYNTHETIC}, "repetiton": 3})
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ExperimentConfig.from_dict({"dataset": {"synthetic": SMALL_SYNTHETIC}, "seed": -1})
    with pytest.raises(ConfigError, match="manifest must be a path string"):
        ExperimentConfig.from_dict({"dataset": {"manifest": 5}})
    with pytest.raises(
        ConfigError,
        match=r"unknown dataset keys \['normalise'\]; known: \['manifest', 'synthetic'\]",
    ):
        ExperimentConfig.from_dict({"dataset": {"manifest": "x", "normalise": "unit_row_norm"}})
    with pytest.raises(ConfigError, match="output_dir must be a path string"):
        ExperimentConfig.from_dict({"dataset": {"synthetic": SMALL_SYNTHETIC}, "output_dir": 5})
    with pytest.raises(ConfigError, match="unknown preset"):
        ExperimentConfig.from_dict({"dataset": {"synthetic": SMALL_SYNTHETIC}, "preset": []})


def test_default_grid_expansion(tmp_path):
    from gfclust.cli import DEFAULT_ALPHA_BETA_GRID, DEFAULT_ETA_GRID

    config = load_config(write_config(tmp_path, grid="default"))
    points = grid_points(config)
    assert len(points) == len(DEFAULT_ALPHA_BETA_GRID) ** 2 * len(DEFAULT_ETA_GRID)
    config = load_config(write_config(tmp_path, grid={"eta": "default"}))
    points = grid_points(config)
    assert [p["eta"] for p in points] == list(DEFAULT_ETA_GRID)
    assert all(p["alpha"] == 0.5 for p in points)


def test_grid_points_product_order(tmp_path):
    config = load_config(write_config(tmp_path, grid={"alpha": [0.1, 0.2], "eta": [0.5, 2.0]}))
    points = grid_points(config)
    assert len(points) == 4
    assert points[0] == {"alpha": 0.1, "beta": 0.5, "eta": 0.5}
    assert {grid_point_hash(p) for p in points} == {grid_point_hash(p) for p in points}
    assert len({grid_point_hash(p) for p in points}) == 4


def test_grid_point_hash_ignores_int_spelling(tmp_path):
    configs = [
        write_config(tmp_path, "int.json", solver={"alpha": 1}),
        write_config(tmp_path, "float.json", solver={"alpha": 1.0}),
        write_config(tmp_path, "grid.json", grid={"alpha": [1]}),
    ]
    hashes = {grid_point_hash(p) for path in configs for p in grid_points(load_config(path))}
    assert hashes == {grid_point_hash({"alpha": 1.0, "beta": 0.5, "eta": 0.5})}


def test_run_experiment_direct_call(tmp_path):
    config = load_config(write_config(tmp_path))
    assert run_experiment(config) == 0


def test_manifest_dataset_with_normalization(tmp_path):
    from gfclust.data import SyntheticSpec, generate_synthetic, write_dataset

    ds = generate_synthetic(
        SyntheticSpec(k=2, n_per_cluster=8, subspace_dim=2, view_dims=(10, 12),
                      noise_sigma=0.05, seed=9)
    )
    manifest = write_dataset(ds, tmp_path / "data", name="synth")
    config = write_config(
        tmp_path,
        dataset={"manifest": str(manifest)},
        solver={"max_iter": 400},
        repetitions=2,
    )
    assert main(["run", "--config", str(config), "--normalize", "unit_row_norm"]) == 0
    (result,) = read_results(tmp_path / "out").values()
    assert result["normalize"] == "unit_row_norm"
    assert result["k"] == 2  # defaulted from the labels file
    assert result["n"] == 16
    assert result["metrics"] is not None
    assert result["converged"] is True


def test_console_scripts_resolve_to_callables():
    # README runs the `gfclust` console script; the other tests call main or
    # run `python -m gfclust.cli`, which bypass the entry point.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        assert callable(EntryPoint(name, target, "console_scripts").load()), name


def test_cli_process_does_not_import_scipy_optimize():
    # scipy.optimize adds about 0.3 s and 20 MB to every process start; the
    # metrics layer has its own assignment solver. A fresh interpreter also
    # catches an import deferred into a function body.
    run_in_fresh_interpreter(
        "import sys\n"
        "import gfclust.cli\n"
        "from gfclust.metrics import evaluate\n"
        "evaluate([0, 0, 1, 1, 2, 2], [1, 1, 0, 0, 2, 0])\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )


def test_cli_process_does_not_import_scipy_linalg(tmp_path):
    # The solver calls numpy's own BLAS and LAPACK, so gfclust runs without
    # scipy: here a whole run, which also catches an import deferred into a
    # function body, sees scipy as not installed.
    config = write_config(tmp_path, solver={"max_iter": 5})
    run_in_fresh_interpreter(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from gfclust.cli import main\n"
        f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
    )
    assert len(read_results(tmp_path / "out")) == 1
