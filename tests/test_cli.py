from __future__ import annotations

import json
import runpy
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import heckelab.cli as cli
from heckelab.cli import RunConfig, build_parser, config_from_args, emit, main, run
from heckelab.errors import ConfigError, RelationViolation
from heckelab.torus import GroupKind, orbit_obj, orbit_pair

from .oracles import all_models, replace_in_source
from .test_dga import MUTATIONS as DGA_MUTATIONS
from .test_hecke import break_census
from .test_scheme import move_first_orbit

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


@pytest.mark.parametrize("field_name", ["p", "e"])
def test_config_takes_p_and_e_from_q_alone(field_name):
    """p and e are read off q; a constructor argument for either is refused,
    not overwritten."""
    with pytest.raises(TypeError):
        RunConfig(q=5, **{field_name: 7})
    config = RunConfig(q=9, suites=("blocks",))
    assert (config.p, config.e) == (3, 2)
    assert config.to_obj()["p"] == 3 and config.to_obj()["e"] == 2


# per kind: orbit_pairs builds, orbit_list_faults passes, census certificates
ONE_LIST_AND_ONE_CENSUS = (1, 2, 1)


@pytest.mark.parametrize(
    "args, built, shared",
    [
        (
            [],
            [*GroupKind, "_unit_brackets", *["_boundary_span"] * 4],
            dict.fromkeys(GroupKind, ONE_LIST_AND_ONE_CENSUS),
        ),
        (
            ["--group", "SL2", "--suite", "blocks", "--suite", "scheme"],
            [GroupKind.SL2],
            {GroupKind.SL2: ONE_LIST_AND_ONE_CENSUS},
        ),
        (["--suite", "modules", "--suite", "dga"], [], {}),
    ],
    ids=["all", "sl2_scheme", "no_reader"],
)
def test_the_run_builds_what_its_suites_share_once(args, built, shared, monkeypatch, capsys):
    """`heckelab --q 5` builds one orbit list per kind and certifies it once,
    builds one census per kind from that list and certifies it once (its
    certificate passes over the census's own lists), and builds the
    stable-endo nodes once: one set of unit brackets and one span per pair
    (i, j).  A run builds only what its suites read."""
    import heckelab.fdmod as fdmod
    import heckelab.hecke as hecke
    import heckelab.models as models

    calls, passes = [], []

    def counted(real, label, into=calls):
        def call(*args, **kwargs):
            into.append(label(*args))
            return real(*args, **kwargs)

        return call

    census = counted(cli.enumerate_supersingular, lambda t, kind: kind)
    monkeypatch.setattr(cli, "enumerate_supersingular", census)
    for name in ("_unit_brackets", "_boundary_span"):
        monkeypatch.setattr(fdmod, name, counted(getattr(fdmod, name), lambda *_, n=name: n))
    for module in (cli, hecke, models):
        for name in ("orbit_pairs", "orbit_list_faults"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, counted(real, lambda k, *_, n=name: (n, k), passes))
    check = hecke.SupersingularCensus.check
    certified = counted(check, lambda census: ("check", census.kind), passes)
    monkeypatch.setattr(hecke.SupersingularCensus, "check", certified)
    assert main(["--q", "5", "--format", "json", *args]) == 0
    capsys.readouterr()
    assert calls == built
    names = ("orbit_pairs", "orbit_list_faults", "check")
    counts = {kind: tuple(passes.count((n, kind)) for n in names) for kind in GroupKind}
    assert counts == {kind: shared.get(kind, (0, 0, 0)) for kind in GroupKind}


def test_run_blocks_sl2_q3():
    cfg = RunConfig(q=3, kinds=(GroupKind.SL2,), suites=("blocks",))
    report, _ = run(cfg)
    assert report["pass"]
    assert report["suites"][0]["name"] == "blocks"


def test_the_blocks_suite_builds_no_idempotent(monkeypatch, capsys):
    """The blocks certificate reads the premises of the decomposition, not
    the idempotents: with `idempotent` and `orbit_idempotent` raising,
    `--q 5 --suite blocks` still passes for every kind."""
    import heckelab.hecke as hecke

    def refused(*_):
        raise AssertionError("the blocks suite built an idempotent")

    monkeypatch.setattr(hecke, "idempotent", refused)
    monkeypatch.setattr(hecke, "orbit_idempotent", refused)
    assert main(["--q", "5", "--suite", "blocks", "--format", "json"]) == 0
    (blocks,) = json.loads(capsys.readouterr().out)["suites"]
    for kind in ALL_KINDS:
        assert blocks["details"][kind]["idempotent_system"] is True, kind


def test_the_blocks_suite_runs_at_q81():
    """q = 81, where |T_GL2| = 6400 and GL2 has 3240 orbits, is in reach of
    the blocks suite, and every kind passes."""
    report, _ = run(RunConfig(q=81, suites=("blocks",)))
    (blocks,) = report["suites"]
    assert report["pass"] and blocks["pass"]
    for kind in ALL_KINDS:
        details = blocks["details"][kind]
        assert details["idempotent_system"] and details["counts_match"], kind
    assert blocks["details"]["GL2"]["orbits"] == 80 * 81 // 2


def test_blocks_orbit_counts_are_checked_for_sl2(monkeypatch):
    """An SL2 orbit list that lists one regular orbit twice fails
    counts_match, and with it the suite."""
    real = cli.orbit_pairs

    def padded(kind, q):
        classes = real(kind, q)
        classes["regular"] += classes["regular"][:1]
        return classes

    monkeypatch.setattr(cli, "orbit_pairs", padded)
    report, _ = run(RunConfig(q=5, kinds=(GroupKind.SL2,), suites=("blocks",)))
    details = report["suites"][0]["details"]["SL2"]
    assert details["counts_match"] is False and not report["pass"]


def test_json_reproducibility():
    cfg = RunConfig(q=5, kinds=(GroupKind.SL2,), suites=("blocks", "modules"), seed=11)
    r1, _ = run(cfg)
    r2, _ = run(cfg)
    assert emit(r1, "json") == emit(r2, "json")
    parsed = json.loads(emit(r1, "json"))
    assert parsed["version"] == 1
    assert parsed["config"]["seed"] == 11


# `--q 27 --ambient-degree 6 --suite modules --suite scheme --suite dga
# --suite endo --window 10 --trunc-degree 16`: F_729, every census of q = 27
WIDE_Q27 = dict(
    q=27, ambient_degree=6, suites=("modules", "scheme", "dga", "endo"), window=10, trunc_degree=16
)


@pytest.mark.parametrize("q", [3, 5, 27])
def test_json_report_matches_pinned(q):
    """`heckelab --q Q --format json` (all suites at q = 3 and 5, the wide-field
    configuration above at q = 27) reproduces its recorded report byte for
    byte; tests/data holds the reports as the CLI prints them."""
    kwargs, name = (WIDE_Q27, "report_wide_q27.json") if q == 27 else (dict(q=q), f"report_q{q}.json")
    report, _ = run(RunConfig(**kwargs, fmt="json"))
    assert emit(report, "json") + "\n" == (DATA / name).read_text()


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


def test_endo_without_a_regular_gl2_orbit_exits_2(capsys):
    """At q = 2 GL2 has no regular orbit, so no supersingular module for the
    endo suite to certify."""
    assert main(["--q", "2", "--group", "GL2", "--suite", "endo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: the endo suite needs a regular GL2 orbit" in captured.err


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--suite", "dga", "--suite", "dga"], "--suite dga named more than once"),
        (["--group", "GL2", "--group", "GL2"], "--group GL2 named more than once"),
        (
            ["--group", "SL2", "--group", "GL2", "--group", "SL2", "--suite", "blocks"],
            "--group SL2 named more than once",
        ),
    ],
    ids=["repeated_suite", "repeated_group", "repeated_group_among_others"],
)
def test_repeated_group_or_suite_exits_2(argv, message, capsys):
    assert main(["--q", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err


def test_endo_details_name_the_kind_of_the_table_they_certify():
    """The endo suite certifies GL2 tables whatever `--group` says, and its
    details say so."""
    report, _ = run(RunConfig(q=5, kinds=(GroupKind.SL2,), suites=("endo",)))
    (endo,) = report["suites"]
    assert endo["pass"] and endo["details"]["kind"] == "GL2"
    assert endo["details"]["tables_verified"] == 4


def test_models_suite_reports_check_counts():
    cfg = RunConfig(q=3, kinds=(GroupKind.SL2,), suites=("models",))
    report, _ = run(cfg)
    det = report["suites"][0]["details"]["SL2"]
    assert det["models"] == 1 and det["all_pass"]
    counts = ("generator_products", "character_cases", "power_identities")
    # character cases: the certificate once for SL2 at q = 3 (q - 1 = 2 zeta
    # steps and 2 coroot elements), the class certificate's one listed orbit
    # (the sign character), and the SL2_SIGMA variant's 4 exponent
    # comparisons (the two nonzero entries of each of ts0 and ts1)
    assert tuple(det[key] for key in counts) == (35, 4 + 1 + 4, 12)
    assert "parity_cases" not in det
    assert det["variants_verified"] == 1


def test_models_counts_the_shared_checks_once():
    """At q = 5 the 16 GL2 models have 3 variants and 2 product tables (with
    and without omega): the power identities count once per variant, the
    generator products once per table or variant, the character and class
    certificates once, and the exponent comparisons once per variant."""
    report, _ = run(RunConfig(q=5, kinds=(GroupKind.GL2,), suites=("models",)))
    det = report["suites"][0]["details"]["GL2"]
    assert det["models"] == 16 and det["variants_verified"] == 3
    # 12 for GL2_REG (n <= 6, two branches) and 12 for AFF_REG (m <= 3, four
    # identities)
    assert det["power_identities"] == 24
    # per table 36 shape rows: 2 x 13 torus-generator rows and 10 quadratic
    # ones; the torus-free rows are 38 per omega variant (GL2_REG and
    # GL2_NONREG) and 12 for AFF_REG
    assert det["generator_products"] == 2 * 36 + 2 * 38 + 12
    # the certificate: 4 zeta steps and 4 coroot elements; the class
    # certificate's 10 listed orbits (6 regular, 4 trivial on the coroot
    # image); then one comparison per nonzero entry of ts0, ts1 and tw, once
    # per variant: 2 + 2 + 2 for GL2_REG, 2 + 2 for AFF_REG, 1 + 4 + 4 for
    # GL2_NONREG
    assert det["character_cases"] == (4 + 4) + 10 + 6 + 4 + 9


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
        ("dga_report.py", ["--q", "5", "--max-degree", "-1"], "--max-degree must be >= 0"),
        ("dga_report.py", ["--q", "5", "--window", "0"], "--window must be >= 1"),
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
        "dga_report_negative_degree",
        "dga_report_empty_window",
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


def test_dga_report_exits_1_on_a_failed_check(monkeypatch, capsys):
    import heckelab.dga as dga

    monkeypatch.setattr(dga, "degree0_check", lambda tctx, L: {"pass": False})
    monkeypatch.setattr(sys, "argv", ["dga_report.py", "--q", "3", "--max-degree", "0", "--window", "1"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "dga_report.py"), run_name="__main__")
    assert exit_.value.code == 1
    assert "FAIL" in capsys.readouterr().out


def test_dga_report_matches_pinned(monkeypatch, capsys):
    """`dga_report.py --q 5 --max-degree 4` prints its recorded block ranks and
    dictionary lines and exits 0."""
    monkeypatch.setattr(sys, "argv", ["dga_report.py", "--q", "5", "--max-degree", "4"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "dga_report.py"), run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == (DATA / "dga_report_q5.txt").read_text()


def test_only_hecke_products_build_torus_rows(monkeypatch):
    """Products of torus elements are computed from the exponent digits
    (`torus_mul`) inside Hecke products alone, and kept nowhere: the suites
    without Hecke products compute none, and the models suite at q = 27
    multiplies only by the identity's torus part (`hecke_mul` multiplies
    each term of the shorter side into the longer), into at most the 26
    coroot elements, never into a row over the 676 elements of the GL2
    torus."""
    import heckelab.hecke as hecke

    calls = []
    real = hecke.torus_mul

    def recorded(kind, q, s, ts):
        ts = list(ts)
        calls.append((s, len(ts)))
        return real(kind, q, s, ts)

    monkeypatch.setattr(hecke, "torus_mul", recorded)
    report, _ = run(RunConfig(q=5, suites=("modules", "scheme", "dga", "endo")))
    assert report["pass"] and not calls
    report, _ = run(RunConfig(q=27, suites=("models",)))
    assert report["pass"] and calls
    assert {s for s, _ in calls} == {0} and max(n for _, n in calls) == 26


def test_the_run_keeps_no_torus_state(monkeypatch):
    """Every suite runs at q = 27 over F_729 (`--ambient-degree 6`), and the
    run's TorusCtx holds its field, q and the zeta data alone afterwards:
    the group law, the inverse and the s0 twist are computed from the
    exponent digits where they are read, and `heckelab.torus` has no table
    of T."""
    import heckelab.torus as torus

    contexts = []
    real = cli._tctx
    monkeypatch.setattr(cli, "_tctx", lambda config: contexts.append(real(config)) or contexts[-1])
    report, _ = run(RunConfig(q=27, ambient_degree=6))
    assert report["pass"] and [s["name"] for s in report["suites"]] == list(cli.ALL_SUITES)
    (t,) = contexts
    assert set(vars(t)) == {"field", "q", "_zpow", "zeta_idx"}
    assert not hasattr(torus, "TorusTable")


def test_the_wide_field_run_builds_the_table_rows_it_reads(monkeypatch):
    """Work guard: the wide-field configuration over F_729 builds 53 of the
    729 add rows and the 27 mul rows of F_27, the other rows staying
    stand-ins (set-up alone builds 27 add rows, `test_gf.py`)."""
    contexts = []
    real = cli._tctx
    monkeypatch.setattr(cli, "_tctx", lambda config: contexts.append(real(config)) or contexts[-1])
    report, _ = run(RunConfig(**WIDE_Q27))
    assert report["pass"]
    (t,) = contexts
    assert sum(type(row) is list for row in t.field.add) == 53
    built_mul = {a for a, row in enumerate(t.field.mul) if type(row) is list}
    assert built_mul == set(t.field.subfield_indices(27))


@pytest.mark.parametrize("group", ["GL2", "SL2", "PGL2"])
def test_langlands_table_matches_pinned(group, monkeypatch, capsys):
    """`langlands_table.py --q 7 --group G` prints its recorded table."""
    monkeypatch.setattr(sys, "argv", ["langlands_table.py", "--q", "7", "--group", group])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "langlands_table.py"), run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == (DATA / f"langlands_table_q7_{group}.txt").read_text()


def test_one_supersingular_census_per_run(monkeypatch, capsys):
    """`heckelab --q 5` builds each census once, one per kind, shared by the
    models, scheme and endo suites, which read the censuses as exponent
    pairs x lambdas."""
    from heckelab.hecke import SupersingularCensus

    censuses = []
    init = SupersingularCensus.__init__

    def counting_census(self, tctx, kind, *args):
        censuses.append(kind)
        init(self, tctx, kind, *args)

    monkeypatch.setattr(SupersingularCensus, "__init__", counting_census)
    assert main(["--q", "5", "--format", "json"]) == 0
    capsys.readouterr()
    assert [censuses.count(k) for k in GroupKind] == [1, 1, 1]


def _zero_lambda(monkeypatch):
    """A GL2 census whose first lambda is 0; the other kinds take no lambda
    list."""
    real = cli.enumerate_supersingular
    monkeypatch.setattr(
        cli,
        "enumerate_supersingular",
        lambda t, kind, lambdas=None, **lists: real(t, kind, lambdas and [0, *lambdas[1:]], **lists),
    )


CENSUS_MUTATIONS = {
    "zero_lambda": _zero_lambda,
    # a GL2 pair whose second member is not the twist of its first (its
    # twisted character off by zeta at a generator, or another pair's), a
    # non-regular pair among them, and `s0_exps` the identity on GL2
    # exponent vectors (`test_hecke.break_census`)
    **{
        name: partial(break_census, name)
        for name in ("character_memo", "foreign_twist", "non_regular_pair", "identity_s0")
    },
}


@pytest.fixture
def one_zero_lambda(monkeypatch):
    _zero_lambda(monkeypatch)


def test_endo_keeps_its_report_when_a_census_module_is_broken(one_zero_lambda, capsys):
    """A zero lambda, whose T_omega is not invertible, fails
    `restriction_splits`, and the suite still reports."""
    assert main(["--q", "5", "--suite", "endo", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (endo,) = json.loads(captured.out)["suites"]
    assert endo["pass"] is False
    assert endo["details"] == {
        "kind": "GL2",
        "hom_dims_all_one": True,
        "restriction_splits": False,
        "tables_verified": 4,
    }


def test_endo_keeps_its_report_when_a_stable_endo_table_fails(monkeypatch, capsys):
    """A corrupted R table fails `stable_endo_supersingular` at every lambda:
    the suite reports each failure with its counterexample, verifies no
    table, and the run exits 1 with the report printed."""
    import heckelab.fdmod as fdmod

    reference = fdmod._r_reference_table

    def corrupted(ctx):
        labels, table = reference(ctx)
        table[("Te1", "e1")] = (0, 0, 0, 0)
        return labels, table

    monkeypatch.setattr(fdmod, "_r_reference_table", corrupted)
    assert main(["--q", "5", "--suite", "endo", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    (endo,) = report["suites"]
    assert report["pass"] is False and endo["pass"] is False
    details = endo["details"]
    assert details["tables_verified"] == 0
    assert details["failures"] == [
        {"lambda": e, "counterexample": "product Te1*e1 disagrees with R"} for e in range(4)
    ]
    assert details["hom_dims_all_one"] and details["restriction_splits"]


def test_endo_keeps_its_report_when_the_stable_endo_nodes_fail(monkeypatch, capsys):
    """A bracket without the sign (-1)^deg(f) makes the identity no chain map,
    so the lambda-free nodes fail: the suite reports that failure at every
    lambda, and the run exits 1 with the report printed."""
    import heckelab.fdmod as fdmod
    from heckelab.dga import dga_d, dga_mul, on_common_window

    def unsigned(Kj, f, Ki):
        d, left, right = on_common_window(dga_d(f), dga_mul(Kj, f), dga_mul(f, Ki))
        return d.add(left).add(right)

    monkeypatch.setattr(fdmod, "_bracket", unsigned)
    assert main(["--q", "5", "--suite", "endo", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (endo,) = json.loads(captured.out)["suites"]
    assert endo["pass"] is False and endo["details"]["tables_verified"] == 0
    assert endo["details"]["failures"] == [
        {"lambda": e, "counterexample": "e1 representative is not a chain map"} for e in range(4)
    ]


# `heckelab --q 5 --suite models`: the OS check runs at the 4 lambdas and the
# census certificate once per regular orbit (6) and per lambda (4); both
# cover the 24 census modules
Q5_OS_RESOLUTION = {
    "D": 6,
    "runs": 24,
    "module_checks": 24,
    "modules_covered": 24,
    "lambdas_resolved": 4,
    "orbit_checks": 6,
    "lambda_checks": 4,
}


def test_models_records_the_skipped_os_check_without_a_regular_orbit(capsys):
    """At q = 2 GL2 has no regular orbit, so the OS check has nothing to run
    and says why."""
    assert main(["--q", "2", "--group", "GL2", "--suite", "models", "--format", "json"]) == 0
    (models,) = json.loads(capsys.readouterr().out)["suites"]
    assert models["details"]["os_resolution"] == {
        "D": 6,
        "module_checks": 0,
        "modules_covered": 0,
        "lambdas_resolved": 0,
        "orbit_checks": 0,
        "lambda_checks": 0,
        "pass": True,
        "runs": 0,
        "skipped": "no regular GL2 orbit",
    }


def test_models_keeps_its_report_when_a_census_module_is_broken(one_zero_lambda, capsys):
    """A zero lambda, whose T_omega is not invertible, fails `os_resolution`,
    and the suite still reports."""
    assert main(["--q", "5", "--suite", "models", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (models,) = json.loads(captured.out)["suites"]
    assert models["pass"] is False
    assert models["details"]["os_resolution"] == Q5_OS_RESOLUTION | {"pass": False}
    assert all(models["details"][kind]["all_pass"] for kind in ("GL2", "SL2", "PGL2"))


def test_models_keeps_its_report_when_a_block_model_is_corrupted(monkeypatch, capsys):
    """A wrong derived image T_s0 T_s1 of the GL2_NONREG variant fails
    `verify_model` on the variant, whose check stands for every model of
    it: the suite reports `pass: false` with each model's variant, orbit and
    counterexample, keeps the other reports, and the run exits 1."""
    from heckelab import models

    t = cli._tctx(RunConfig(q=5, suites=()))
    nonreg = (mm for mm in all_models(t, GroupKind.GL2) if mm.variant == "GL2_NONREG")
    corrupted = [orbit_obj(mm.kind, 5, mm.pair) for mm in nonreg]
    post_init, shapes = models.VariantModel.__post_init__, []

    def corrupted_images(shape):
        post_init(shape)
        if shape.variant == "GL2_NONREG":
            good = shape.word_image(0, (0, 1))
            shape.word_cache[(0, (0, 1))] = good.add(good)
            shapes.append(shape)

    monkeypatch.setattr(models.VariantModel, "__post_init__", corrupted_images)
    assert main(["--q", "5", "--suite", "models", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.err == ""
    report = json.loads(captured.out)
    (models,) = report["suites"]
    assert report["pass"] is False and models["pass"] is False
    gl2 = models["details"]["GL2"]
    assert gl2["all_pass"] is False and gl2["models"] == 16
    # one shape for the variant; the four non-regular orbits of q = 5, each
    # reported with its orbit
    assert len(shapes) == 1 and len(corrupted) == 4
    assert [f["orbit"] for f in gl2["failures"]] == corrupted
    for failure in gl2["failures"]:
        assert failure["variant"] == "GL2_NONREG"
        assert failure["counterexample"].startswith(
            "GL2_NONREG: homomorphism fails on T_x T_g with x="
        )
    # the other variants of GL2 still ran once each
    assert gl2["variants_verified"] == 2
    # the other kinds, and the OS check on a regular model, keep their reports
    assert all(models["details"][kind]["all_pass"] for kind in ("SL2", "PGL2"))
    assert "failures" not in models["details"]["SL2"]
    assert models["details"]["os_resolution"] == Q5_OS_RESOLUTION | {"pass": True}


def test_models_reports_a_corrupted_shared_diagonal_on_both_models_of_the_orbit(
    monkeypatch, capsys
):
    """The first regular GL2 orbit's character pair (xi, xi^{s0}), listed
    as (xi, xi), is read by its GL2_REG and AFF_REG models: the class
    certificate does not let the variants' checks stand for them, both fail
    torus conjugation on their own, and both are reported, each with its
    orbit.  The run's one list is the GL2 census's too, so the census
    certificate fails the OS check as well."""
    from heckelab import models

    real, orbits = models.orbit_pairs, []

    def corrupted(kind, q):
        classes = real(kind, q)
        if kind is GroupKind.GL2:
            (xi, _), *rest = classes["regular"]
            classes["regular"] = ((xi, xi), *rest)
            orbits.extend([orbit_obj(kind, q, orbit_pair(kind, q, xi))] * 2)
        return classes

    monkeypatch.setattr(models, "orbit_pairs", corrupted)
    monkeypatch.setattr(cli, "orbit_pairs", corrupted)
    assert main(["--q", "5", "--suite", "models", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (models,) = json.loads(captured.out)["suites"]
    gl2 = models["details"]["GL2"]
    assert models["pass"] is False and gl2["all_pass"] is False
    assert orbits[0] == orbits[1]
    assert [(f["variant"], f["orbit"]) for f in gl2["failures"]] == [
        ("GL2_REG", orbits[0]),
        ("AFF_REG", orbits[0]),
    ]
    assert gl2["failures"][0]["counterexample"] == (
        "GL2_REG: relation(s) failed: ['ts0 torus conj', 'ts1 torus conj', 'omega conj torus']"
    )
    assert gl2["failures"][1]["counterexample"] == (
        "AFF_REG: relation(s) failed: ['ts0 torus conj', 'ts1 torus conj']"
    )
    # the variants still ran their shared checks on the other models
    assert gl2["variants_verified"] == 3
    assert models["details"]["os_resolution"] == Q5_OS_RESOLUTION | {"pass": False}


def _off_zeta_table(monkeypatch):
    """The zeta table of the run, off at exponent 2 (zeta^2 read as zeta^3)."""
    real = cli._tctx

    def tctx(config):
        t = real(config)
        t._zpow = list(t._zpow)
        t._zpow[2] = t._zpow[3]
        return t

    monkeypatch.setattr(cli, "_tctx", tctx)


def _zeroed_coroot_sum(monkeypatch):
    """The coroot sums of the quadratic relation with the entry k = 0 zeroed."""
    from heckelab import models

    real = models._characters_certified

    def certified(tctx, kind):
        sums, report = real(tctx, kind)
        return [0, *sums[1:]], report

    monkeypatch.setattr(models, "_characters_certified", certified)


# mutation -> (patch, the counterexample's text, the kinds that fail): the
# coroot sum at k = 0 is read by the models whose characters are trivial on
# the coroot image, and at q = 5 only SL2 has no model of such an orbit
ALL_KINDS = ("GL2", "SL2", "PGL2")
CHARACTER_MUTATIONS = {
    "off_zeta_table": (_off_zeta_table, "zeta table is not injective with zeta^0 = 1", ALL_KINDS),
    "zeroed_coroot_sum": (
        _zeroed_coroot_sum,
        "relation(s) failed: ['ts0 quadratic', 'ts1 quadratic']",
        ("GL2", "PGL2"),
    ),
}


@pytest.mark.parametrize("mutation", sorted(CHARACTER_MUTATIONS))
def test_character_mutations_fail_the_models_suite(mutation, monkeypatch, capsys):
    """Each mutation of the tables that turn exponent vectors into characters
    fails the models that read them: `pass: false`, exit 1, and the report
    kept, each failing model with its variant, orbit and counterexample."""
    mutate, message, kinds = CHARACTER_MUTATIONS[mutation]
    mutate(monkeypatch)
    assert main(["--q", "5", "--suite", "models", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    (models,) = report["suites"]
    assert report["pass"] is False and models["pass"] is False
    for kind in ALL_KINDS:
        details = models["details"][kind]
        assert details["all_pass"] is (kind not in kinds), kind
        for failure in details.get("failures", []):
            assert message in failure["counterexample"], (kind, failure)
    assert "os_resolution" in models["details"]


def _group_law_mod_q(monkeypatch):
    """The group law of `hecke_mul` with the last exponent digit added
    without its reduction mod q - 1: where it reaches q - 1 it is not
    wrapped."""
    import heckelab.hecke as hecke

    real = hecke.torus_mul

    def unreduced(kind, q, s, ts):
        n = q - 1
        return [m + n if s % n + t % n >= n else m for m, t in zip(real(kind, q, s, ts), ts)]

    monkeypatch.setattr(hecke, "torus_mul", unreduced)


def _twist_free(monkeypatch):
    """`hecke._single_letter` with t in place of t^{s0}: T_t T_s = T_s T_t.
    Each term is handed to the real one pre-twisted, and s0 is an
    involution."""
    import heckelab.hecke as hecke
    from heckelab.torus import s0_index

    real = hecke._single_letter

    def untwisted(tctx, kind, x, j, out, coeff):
        a, word, t = x
        real(tctx, kind, (a, word, s0_index(kind, tctx.q, t)), j, out, coeff)

    monkeypatch.setattr(hecke, "_single_letter", untwisted)


def _omega_twist_free(monkeypatch):
    """`hecke._times_omega` with t in place of t^{s0}: T_t T_omega = T_omega
    T_t.  Each term is handed to the real one pre-twisted where the power is
    odd, and s0 is an involution."""
    import heckelab.hecke as hecke
    from heckelab.torus import s0_index

    real = hecke._times_omega

    def untwisted(kind, q, x, a):
        b, word, t = x
        return real(kind, q, (b, word, s0_index(kind, q, t) if a % 2 else t), a)

    monkeypatch.setattr(hecke, "_times_omega", untwisted)


def _off_row_of_t1(wrong, monkeypatch):
    """The GL2 group law of `hecke_mul` at q = 5 off in the row of t1 =
    (1, 0): t1 t is the element with exponents wrong[t], for the exponent
    vectors t in `wrong`."""
    import heckelab.hecke as hecke
    from heckelab.torus import torus_index

    real = hecke.torus_mul

    def off(kind, q, s, ts):
        out = real(kind, q, s, ts)
        if kind is not GroupKind.GL2 or q != 5 or s != torus_index(kind, q, (1, 0)):
            return out
        index = {torus_index(kind, q, t): torus_index(kind, q, m) for t, m in wrong.items()}
        return [index.get(u, m) for m, u in zip(out, ts)]

    monkeypatch.setattr(hecke, "torus_mul", off)


# mutations of the premises of the blocks certificate -> the kinds each
# breaks: the torus law that `hecke_mul` applies (the models read it at the
# identity alone, the blocks certificate on whole rows), its twist past the
# generators, and the run's zeta table
TORUS_LAW_MUTATIONS = {
    "group_law_mod_q": (_group_law_mod_q, ALL_KINDS),
    "twist_free": (_twist_free, ALL_KINDS),
    "omega_twist_free": (_omega_twist_free, ("GL2", "PGL2")),
    "off_zeta_table": (_off_zeta_table, ALL_KINDS),
    # t1 (3, 3) sent to (3, 3), not (0, 3): (0, 3) is reached by nothing
    "one_wrong_product": (partial(_off_row_of_t1, {(3, 3): (3, 3)}), ("GL2",)),
    # t1 (3, 3) and t1 (3, 2) exchanged: the row is still a bijection of T
    "exchanged_products": (
        partial(_off_row_of_t1, {(3, 3): (0, 2), (3, 2): (0, 3)}),
        ("GL2",),
    ),
}


@pytest.mark.parametrize("mutation", sorted(TORUS_LAW_MUTATIONS))
def test_torus_law_mutations_fail_the_blocks_suite(mutation, monkeypatch):
    """A group law without its reduction, or off at one or two entries of a
    generator's row, breaks the group-law rows, a product by T_s or T_omega
    without the s0 twist breaks T_t T_g = T_g T_{t^{s0}}, and a zeta table
    off at one exponent has not the exact order q - 1: each fails
    `idempotent_system` at q = 5 for the kinds it breaks, and the list
    certificate still passes."""
    mutate, kinds = TORUS_LAW_MUTATIONS[mutation]
    mutate(monkeypatch)
    report, _ = run(RunConfig(q=5, suites=("blocks",)))
    (blocks,) = report["suites"]
    assert report["pass"] is False and blocks["pass"] is False
    for kind in ALL_KINDS:
        details = blocks["details"][kind]
        assert details["idempotent_system"] is (kind not in kinds), kind
        assert details["counts_match"], kind


def test_the_character_certificate_runs_once_per_kind_and_context(monkeypatch):
    """A full `--q 5` run certifies the characters once per (kind, TorusCtx):
    each run of the certificate makes a new report, and the verified
    variants of a kind, on the run's one context, hold one report between
    them."""
    from heckelab import models

    verify, seen = models.verify_model, []

    def recorded(mm, *shared):
        report = verify(mm, *shared)
        seen.append((mm.kind, id(mm.tctx), report["character_checks"]))
        return report

    monkeypatch.setattr(models, "verify_model", recorded)
    report, _ = run(RunConfig(q=5))
    assert report["pass"]
    runs = {id(certificate): (kind, ctx) for kind, ctx, certificate in seen}
    assert sorted(kind.value for kind, _ in runs.values()) == ["GL2", "PGL2", "SL2"]
    assert len({ctx for _, ctx in runs.values()}) == 1
    # q - 1 = 4 zeta steps and the coroot image: 4 elements, or 2 for PGL2
    # (the squares)
    cases = {kind.value: c["character_cases"] for kind, _, c in seen}
    assert cases == {"GL2": 4 + 4, "SL2": 4 + 4, "PGL2": 4 + 2}


@pytest.mark.parametrize("suite", ["models", "endo", "scheme"])
@pytest.mark.parametrize("mutation", sorted(CENSUS_MUTATIONS))
def test_census_mutations_fail_the_suites(mutation, suite, monkeypatch, capsys):
    """Each census mutation fails the run's census certificate, which the
    models suite (OS check), the endo suite (`restriction_splits`) and the
    scheme suite (GL2's `verdict`) read: `pass: false`, exit 1, and the rest
    of the report kept."""
    CENSUS_MUTATIONS[mutation](monkeypatch)
    assert main(["--q", "5", "--suite", suite, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (report,) = json.loads(captured.out)["suites"]
    assert report["pass"] is False
    details = report["details"]
    if suite == "endo":
        assert details == {
            "kind": "GL2",
            "hom_dims_all_one": True,
            "restriction_splits": False,
            "tables_verified": 4,
        }
    elif suite == "scheme":
        verdicts = {kind: details[kind]["verdict"] for kind in ("GL2", "SL2", "PGL2")}
        assert verdicts == {"GL2": False, "SL2": True, "PGL2": True}
    else:
        # the slipped-in pair is counted; the edited pairs are the run's one
        # GL2 list, and fail the GL2 models' class certificate too, as the
        # identity `s0_exps` does, which makes the census's first pair no
        # regular orbit, on whose model the OS check would run
        covered = 28 if mutation == "non_regular_pair" else 24
        assert details["os_resolution"] == Q5_OS_RESOLUTION | {
            "pass": False,
            "runs": covered,
            "module_checks": covered,
            "modules_covered": covered,
            "orbit_checks": covered // 4,
            "lambdas_resolved": 0 if mutation == "identity_s0" else 4,
        }
        passing = {"GL2": mutation == "zero_lambda", "SL2": True, "PGL2": True}
        assert {kind: details[kind]["all_pass"] for kind in passing} == passing


def _duplicate_lambda(monkeypatch):
    """The scheme suite's GL2 census with its first lambda repeated."""
    real = cli.correspondence_table

    def duplicated(census):
        if census.kind is GroupKind.GL2:
            census = replace(census, lambdas=(*census.lambdas, census.lambdas[0]))
        return real(census)

    monkeypatch.setattr(cli, "correspondence_table", duplicated)


@pytest.mark.parametrize(
    "mutate", [move_first_orbit, _duplicate_lambda], ids=["moved_orbit", "duplicate_lambda"]
)
def test_parameter_map_mutations_fail_the_scheme_suite(mutate, monkeypatch, capsys):
    mutate(monkeypatch)
    assert main(["--q", "5", "--suite", "scheme", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (scheme,) = json.loads(captured.out)["suites"]
    assert scheme["pass"] is False
    assert scheme["details"]["GL2"]["verdict"] is False
    assert scheme["details"]["SL2"]["verdict"] and scheme["details"]["PGL2"]["verdict"]


def _json_run(capsys, *args):
    """`heckelab --q 5 *args --format json`: (exit code, the one suite's
    report), with nothing on stderr."""
    code = main(["--q", "5", *args, "--format", "json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    (suite,) = json.loads(captured.out)["suites"]
    return code, suite


# verdict -> a mutation of the package code it reads: (module, function,
# source text, its replacement)
VERDICT_MUTATIONS = {
    # f g_M + g_N f = 0 in place of f g_M - g_N f = 0: Hom(chi_i, chi_i) = 0
    "modules.stable_hom_table": (
        "fdmod",
        "_hom_rows",
        "ctx.sub_i(row[k * nm + j], gn[i][k])",
        "ctx.add_i(row[k * nm + j], gn[i][k])",
    ),
    # Ext^n read off Hom(P_{n+1}, N): the resolution one step off
    "modules.ext_periodicity": (
        "fdmod",
        "ext_group",
        "for P in Ps[: top + 1]]",
        "for P in Ps[1 : top + 2]]",
    ),
    # X_2^r placed at signed X-degree +r: the induced maps lose their entries
    "modules.a_side_table": (
        "fdmod",
        "ext_nodal_line",
        "sign = 1 if other == 1 else -1",
        "sign = 1",
    ),
    # a differential that does not kill tau . tau: the ranks grow with the window
    "dga.window_stable": ("dga", *DGA_MUTATIONS["d_without_tau_skip"]),
}


@pytest.mark.parametrize("verdict", sorted(VERDICT_MUTATIONS))
def test_a_mutation_turns_the_verdict_false(verdict, monkeypatch, capsys):
    """Each of these verdicts has a mutation of the package code it reads
    that turns it false in the report: `pass: false`, exit 1, and the
    report printed."""
    import heckelab

    suite, key = verdict.split(".")
    module, func, old, new = VERDICT_MUTATIONS[verdict]
    readers = (cli,) if hasattr(cli, func) else ()
    replace_in_source(monkeypatch, getattr(heckelab, module), func, old, new, readers)
    code, report = _json_run(capsys, "--suite", suite)
    assert code == 1
    assert report["pass"] is False and report["details"][key] is False


# mutations that no report sees yet, each leaving its suite passing: (suite,
# module, function, source text, its replacement, the other modules whose
# import of the function gets the mutation).  The PR that makes a suite see one
# moves it into VERDICT_MUTATIONS.
KNOWN_BLIND = {
    # a boundary sign: f K_i subtracted in every degree (ROADMAP item 5)
    "bracket_always_subtracts_f_K": (
        "endo",
        "fdmod",
        "_bracket",
        "sign = f.ctx.neg_i(1) if f.degree % 2 == 0 else 1",
        "sign = f.ctx.neg_i(1)",
        (),
    ),
    # a zero differential, as fdmod reads it (ROADMAP item 5)
    "zero_dga_d": (
        "endo",
        "dga",
        "dga_d",
        "for (i, j, l, z), c in x.terms.items():",
        "for (i, j, l, z), c in ():",
        ("fdmod",),
    ),
    # Ext^n without the image of Hom(P_{n-1}, N): the minimal resolution of
    # chi_1 induces zero maps on Hom(P_n, chi_1), so every rank it subtracts
    # is 0 (`test_fdmod.py::test_ext_from_one_resolution_matches_the_per_degree_computation`
    # sees it)
    "ext_group_without_its_image_term": (
        "modules",
        "fdmod",
        "ext_group",
        " - (ranks[n - 1] if n else 0)",
        "",
        (),
    ),
}


@pytest.mark.parametrize("mutation", sorted(KNOWN_BLIND))
def test_a_known_blind_mutation_leaves_its_suite_passing(mutation, monkeypatch, capsys):
    """Each KNOWN_BLIND mutation still passes its suite at q = 5: exit 0 and
    `pass: true`.  This fails once a suite sees it."""
    import heckelab

    suite, module, func, old, new, readers = KNOWN_BLIND[mutation]
    readers = [getattr(heckelab, name) for name in readers]
    if hasattr(cli, func):
        readers.append(cli)
    replace_in_source(monkeypatch, getattr(heckelab, module), func, old, new, readers)
    code, report = _json_run(capsys, "--suite", suite)
    assert code == 0 and report["pass"] is True


def test_a_raising_decomposition_fails_its_draw(monkeypatch, capsys):
    """`decompose` raising RelationViolation on its third draw counts as a
    decomposition failure: the modules report is kept, with exit 1."""
    real, calls = cli.decompose, []

    def third_raises(M):
        calls.append(M)
        if len(calls) == 3:
            raise RelationViolation("decomposition certificate failed")
        return real(M)

    monkeypatch.setattr(cli, "decompose", third_raises)
    code, modules = _json_run(capsys, "--suite", "modules")
    assert code == 1 and modules["pass"] is False
    assert modules["details"] == {
        "random_decompositions": 40,
        "decomposition_failures": 1,
        "stable_hom_table": True,
        "ext_periodicity": True,
        "a_side_table": True,
    }


def test_a_raising_projective_cover_fails_its_tables(monkeypatch, capsys):
    """`projective_cover` raising RelationViolation, which `stable_hom` and
    `ext_group` read, fails those two tables: the modules report is kept,
    with exit 1."""
    from heckelab import fdmod

    def raising(N):
        raise RelationViolation("projective cover is not surjective")

    monkeypatch.setattr(fdmod, "projective_cover", raising)
    code, modules = _json_run(capsys, "--suite", "modules")
    assert code == 1 and modules["pass"] is False
    assert modules["details"] == {
        "random_decompositions": 40,
        "decomposition_failures": 0,
        "stable_hom_table": False,
        "ext_periodicity": False,
        "a_side_table": True,
    }
