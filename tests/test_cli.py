from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import heckelab.cli as cli
from heckelab.cli import RunConfig, build_parser, config_from_args, emit, main, run
from heckelab.errors import ConfigError
from heckelab.hecke import HeckeElt
from heckelab.torus import GroupKind

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DATA = Path(__file__).resolve().parent / "data"


def test_config_q4_pgl2_rejected():
    with pytest.raises(ConfigError):
        RunConfig(q=4, kinds=(GroupKind.PGL2,), suites=("blocks",))


def test_config_non_prime_power_rejected():
    with pytest.raises(ConfigError):
        RunConfig(q=6, suites=("blocks",))


def test_config_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        RunConfig(q=5, suites=("nope",))


def test_run_blocks_sl2_q3():
    cfg = RunConfig(q=3, kinds=(GroupKind.SL2,), suites=("blocks",))
    report, _ = run(cfg)
    assert report["pass"]
    assert report["suites"][0]["name"] == "blocks"


@pytest.mark.parametrize("kind", [GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2])
def test_blocks_suite_fails_on_a_corrupted_idempotent(kind, monkeypatch):
    """One coefficient of the first orbit idempotent, off by one, breaks the system."""
    real = cli.orbit_idempotent
    seen = []

    def corrupted(tctx, orbit):
        e = real(tctx, orbit)
        if not seen:
            w = min(e.terms, key=lambda w: w[2])
            e = HeckeElt(tctx, e.kind, {**e.terms, w: tctx.field.add_i(e.terms[w], 1)})
        seen.append(orbit)
        return e

    monkeypatch.setattr(cli, "orbit_idempotent", corrupted)
    report, _ = run(RunConfig(q=5, kinds=(kind,), suites=("blocks",)))
    details = report["suites"][0]["details"][str(kind)]
    assert seen and not report["pass"]
    assert details["idempotent_system"] is False and details["counts_match"]


def test_json_reproducibility():
    cfg = RunConfig(q=5, kinds=(GroupKind.SL2,), suites=("blocks", "modules"), seed=11)
    r1, _ = run(cfg)
    r2, _ = run(cfg)
    assert emit(r1, "json") == emit(r2, "json")
    parsed = json.loads(emit(r1, "json"))
    assert parsed["version"] == 1
    assert parsed["config"]["seed"] == 11


@pytest.mark.parametrize("q", [3, 5])
def test_json_report_matches_pinned(q):
    """`heckelab --q Q --format json` (all suites) reproduces its recorded report
    byte for byte; tests/data holds the reports as the CLI prints them."""
    report, _ = run(RunConfig(q=q, fmt="json"))
    assert emit(report, "json") + "\n" == (DATA / f"report_q{q}.json").read_text()


def test_cli_exit_codes():
    out = subprocess.run(
        [sys.executable, "-m", "heckelab", "--q", "4", "--group", "PGL2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "heckelab",
            "--q",
            "3",
            "--group",
            "SL2",
            "--suite",
            "blocks",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["pass"] is True


def test_parser_defaults():
    args = build_parser().parse_args(["--q", "5"])
    cfg = config_from_args(args)
    assert cfg.lmax == 6 and cfg.trunc_degree == 8 and cfg.window == 6
    assert cfg.fmt == "table"
    assert set(cfg.suites) == {"blocks", "models", "modules", "scheme", "dga", "endo"}


def test_scheme_suite_gl2_q5_table():
    cfg = RunConfig(q=5, kinds=(GroupKind.GL2,), suites=("scheme",))
    report, _ = run(cfg)
    det = report["suites"][0]["details"]["GL2"]
    assert det["modules"] == 24 and det["nodes"] == 24  # 6 per z-fiber, 4 fibers


def test_empty_suite_selection_emits_versioned_json():
    cfg = RunConfig(q=5, suites=())
    report, _ = run(cfg)
    payload = json.loads(emit(report, "json"))
    assert payload["suites"] == [] and payload["version"] == 1 and payload["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-length", "-1", "--suite", "models"],
        ["--trunc-degree", "0", "--suite", "modules"],
        ["--trunc-degree", "1", "--suite", "models"],
        ["--window", "0", "--suite", "dga"],
        ["--ambient-degree", "-2", "--suite", "blocks"],
    ],
    ids=[
        "max_length_negative",
        "trunc_degree_zero",
        "trunc_degree_one_models",
        "window_zero",
        "ambient_degree_negative",
    ],
)
def test_bad_bounds_exit_2(argv, capsys):
    assert main(["--q", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


@pytest.mark.parametrize(
    "lambdas", [["1", "1"], ["0", "4"]], ids=["repeated", "equal_mod_q_minus_1"]
)
def test_duplicate_lambda_exits_2(lambdas, capsys):
    argv = ["--q", "5"]
    for k in lambdas:
        argv += ["--lambda", k]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "same unit twice" in captured.err


def test_models_suite_reports_check_counts():
    cfg = RunConfig(q=3, kinds=(GroupKind.SL2,), suites=("models",))
    report, _ = run(cfg)
    det = report["suites"][0]["details"]["SL2"]
    assert det["models"] == 1 and det["all_pass"]
    assert (det["hom_products"], det["power_identities"], det["parity_cases"]) == (288, 12, 13)


def test_oversized_ambient_field_exits_2(capsys):
    assert main(["--q", "3", "--ambient-degree", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: field size 3^8 = 6561 exceeds the table limit 4096" in captured.err
    with pytest.raises(ConfigError):
        RunConfig(q=3, ambient_degree=8)


@pytest.mark.parametrize(
    "script,argv,message",
    [
        ("dga_report.py", ["--q", "6"], "q=6 is not a prime power"),
        ("langlands_table.py", ["--q", "6"], "q=6 is not a prime power"),
        ("langlands_table.py", ["--q", "3", "--ambient-degree", "8"], "exceeds the table limit"),
        (
            "langlands_table.py",
            ["--q", "9", "--ambient-degree", "3"],
            "ambient degree must be a positive multiple of e",
        ),
        (
            "langlands_table.py",
            ["--q", "3", "--ambient-degree", "-2"],
            "ambient degree must be a positive multiple of e",
        ),
        ("langlands_table.py", ["--q", "4", "--group", "GL2"], "p = 2 is excluded"),
        ("run_verification.py", ["--qs", "3", "6"], "q=6 is not a prime power"),
    ],
    ids=[
        "dga_report_q6",
        "langlands_table_q6",
        "langlands_table_oversized",
        "langlands_table_degree_not_multiple_of_e",
        "langlands_table_negative_degree",
        "langlands_table_even_q",
        "run_verification_q6",
    ],
)
def test_scripts_reject_bad_fields_cleanly(script, argv, message):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv], capture_output=True, text=True
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert message in out.stderr


def test_only_hecke_products_build_the_dense_torus_table(monkeypatch):
    """The |T| x |T| table is built on first use, and the suites without Hecke
    products never use it (at q = 27 it would be most of a run's memory)."""
    import heckelab.torus as torus

    def refuse(self):
        raise AssertionError("dense torus table built")

    monkeypatch.setattr(torus.TorusTable, "mul", property(refuse))
    report, _ = run(RunConfig(q=5, suites=("modules", "scheme", "dga", "endo")))
    assert report["pass"]
    with pytest.raises(AssertionError, match="dense torus table"):
        run(RunConfig(q=3, kinds=(GroupKind.SL2,), suites=("blocks",)))
