import dataclasses
import io
import json
import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from anyonrep import algebra, cli
from anyonrep.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RELATION_FAILURE,
    EXIT_TOO_LARGE,
    _counts,
    build_parser,
    config_digest,
    lattice_config_from_raw,
    main,
    read_operator,
    resolve_operator,
    run_config_from,
    write_operator,
)
from anyonrep.fock import (
    DEFAULT_DIM_CAP,
    Corruption,
    LatticeConfig,
    _cached_basis,
    cached_basis,
    residual_norm,
)
from anyonrep.report import RelationReport, SuiteReports
from anyonrep.verify import SUITES, _nu_samples, run_suites


@pytest.fixture
def outdir(tmp_path):
    return tmp_path


def test_verify_default_config_passes(outdir):
    report = outdir / "report.json"
    summary = outdir / "summary.md"
    rc = main(["verify", "--suites", "central,coproduct,classical",
               "--report", str(report), "--summary", str(summary), "--quiet"])
    assert rc == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == 1
    assert payload["all_ok"] is True
    assert set(payload["suites"]) == {"central", "coproduct", "classical"}
    assert payload["config"]["M"] == 2 and payload["config"]["N"] == 1
    assert len(payload["config_hash"]) == 64
    for block in payload["suites"].values():
        for rep in block["reports"]:
            assert rep["passed"] == (rep["residual"] <= rep["tol"]) or not rep["applicable"]
    text = summary.read_text()
    assert "| relation |" in text and "eq29-gamma" in text


def _exact(obj):
    """``obj`` with each dict as its list of items and each float as its
    ``float.hex``: equal when every key is in the same place and every float
    is bit-equal, NaN and the sign of zero included."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return [(k, _exact(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    return obj


def _written(payload) -> str:
    """The report text ``cli._write_report`` writes for ``payload``, checked
    against the ``indent=2`` dump and for its layout: line 1 holds every
    top-level field but ``suites``, each suite opens on its own line, and each
    relation report is one line that parses alone (without its trailing
    comma) to that report."""
    fh = io.StringIO()
    cli._write_report(fh, payload)
    text = fh.getvalue()
    content = json.loads(text)
    assert _exact(content) == _exact(json.loads(json.dumps(payload, indent=2, default=repr)))
    lines = iter(text.splitlines())
    opening = ', "suites": {'
    head = next(lines)
    assert head.endswith(opening)
    assert _exact(json.loads(head[:-len(opening)] + "}")) == \
        _exact({k: v for k, v in content.items() if k != "suites"})
    for name, block in content["suites"].items():
        suite = json.loads("{" + next(lines) + "]}}")
        assert _exact(suite) == _exact({name: dict(block, reports=[])})
        for report in block["reports"]:
            assert _exact(json.loads(next(lines).removesuffix(","))) == _exact(report)
        assert next(lines) in ("]},", "]}}}")
    assert next(lines, None) is None
    return text


def test_report_file_holds_one_relation_report_a_line(outdir, monkeypatch):
    """The file ``verify --report`` writes is the text of ``_written``: it
    parses, key for key and float for float, to the ``indent=2`` dump of its
    payload, one relation report a line; with --q-samples 1 the q-free
    reports repeat under ``name@nu=...``."""
    report = outdir / "report.json"
    payloads = []
    write = cli._write_report
    monkeypatch.setattr(cli, "_write_report",
                        lambda fh, payload: (payloads.append(payload), write(fh, payload)))
    assert main(["verify", *SMALL, "--q-samples", "1", "--suites", "oscillators,central,quantum",
                 "--report", str(report), "--quiet"]) == EXIT_OK
    text = report.read_text()
    assert text == _written(payloads[0])
    suites = json.loads(text)["suites"]
    assert sorted(name.split("@")[0] for name in suites) == sorted(["oscillators", "central", "quantum"] * 2)
    assert text.count("\n") == 1 + sum(len(block["reports"]) + 2 for block in suites.values())


def test_report_writer_agrees_with_the_indented_dump_on_edge_values():
    """NaN, both infinities, -0.0, a subnormal, non-ASCII text, tuples,
    nested params, an empty suite and an object only ``default=repr`` can
    encode parse as they do from ``json.dumps(..., indent=2, default=repr)``."""
    reports = [
        {"relation_id": "eq7c[0,0]", "params": {"modes": ("c1(-0.5)", "b(+0.5)"),
                                                "inner": {"pairs": [(0, 1), [2, (3,)]]}},
         "residual": float("nan"), "tol": 1e-310, "passed": False},
        {"relation_id": "\u015d\u2013\u03bd \"quoted\"", "residual": float("inf"),
         "tol": -float("inf"), "wall_time": -0.0, "odd": Fraction(1, 3)},
    ]
    payload = {"schema_version": 1, "config": {"nu": -0.0, "ordering": ("sea", "empty")},
               "odd": 1 + 2j,
               "suites": {"quantum": {"ok": False, "reports": reports},
                          "central@nu=0.300000": {"ok": True, "reports": []}}}
    content = json.loads(_written(payload))
    report = content["suites"]["quantum"]["reports"][0]
    assert math.isnan(report["residual"]) and report["params"]["inner"]["pairs"] == [[0, 1], [2, [3]]]
    assert content["odd"] == "(1+2j)" and math.copysign(1, content["config"]["nu"]) == -1
    assert content["suites"]["quantum"]["reports"][1]["odd"] == "Fraction(1, 3)"


D21 = ["--M", "2", "--N", "1", "--sites", "2", "--nmax", "2"]
TIER1_FLAGS = {
    "desk-sea-M2N1": D21, "desk-sea-M2N2": ["--M", "2", "--N", "2", "--sites", "2", "--nmax", "2"],
    "desk-empty-M2N1": [*D21, "--ordering", "empty"], "desk-real-q": [*D21, "--q-real", "1.3"],
    "desk-two-sea-lines": [*D21, "--lines", "2"],
    "desk-sea-empty": [*D21, "--lines", "2", "--ordering", "sea,empty"],
    "control-disorder": [*D21, "--negative-control", "disorder"],
    "control-h0delta": [*D21, "--negative-control", "h0delta"],
    "control-qalpha": [*D21, "--negative-control", "qalpha"],
    "M1N2S2": ["--M", "1", "--N", "2", "--sites", "2", "--nmax", "2"],
    "q-samples-2": [*D21, "--q-samples", "2"],
    "M2N1S4-empty": ["--M", "2", "--N", "1", "--sites", "4", "--nmax", "1", "--ordering", "empty"],
}


@pytest.mark.parametrize("flags", TIER1_FLAGS.values(), ids=TIER1_FLAGS)
def test_no_report_field_needs_the_repr_fallback(flags):
    """Every field of every report is plain JSON with finite numbers: the
    writer's ``default=repr`` is a guard only."""
    run = run_config_from(build_parser().parse_args(["verify", *flags]))
    results = run_suites(run.lattice, run.suites, run.q_samples)
    json.dumps([vars(r) for reps in results.values() for r in reps], allow_nan=False)


def test_verify_exit_codes(capsys):
    assert main(["verify", "--M", "1", "--N", "1", "--quiet"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--sites", "10", "--suites", "central",
                 "--quiet"]) == EXIT_TOO_LARGE
    assert main(["verify", "--suites", "nosuchsuite", "--quiet"]) == EXIT_CONFIG_ERROR
    # sampling draws nu, so a real q cannot be sampled; a negative count is
    # no count: both are config errors that name the reason
    capsys.readouterr()
    assert main(["verify", "--q-real", "1.3", "--q-samples", "2",
                 "--suites", "central", "--quiet"]) == EXIT_CONFIG_ERROR
    assert "unit circle" in capsys.readouterr().err
    assert main(["verify", "--q-samples", "-1", "--suites", "central",
                 "--quiet"]) == EXIT_CONFIG_ERROR
    assert ">= 0" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_cap_below_one_is_a_config_error(outdir, capsys, source, cap):
    """A dimension cap below 1 admits no instance: the run exits 2 and names
    dim_cap, from the flag and from the config-file key alike."""
    args = ["verify", "--suites", "central", "--quiet"]
    if source == "flag":
        args += ["--dim-cap", cap]
    else:
        cfgfile = outdir / "cfg.json"
        cfgfile.write_text(json.dumps({"dim_cap": int(cap)}))
        args += ["--config", str(cfgfile)]
    assert main(args) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "dim_cap" in err and "exceeds" not in err


@pytest.mark.parametrize("args", [
    ["verify", "--suites", "central", "--sites", "4000"],
    ["export", "H:1", "--sites", "4000"],
    ["verify", "--suites", "central", "--sites", "10000000"],
    ["verify", "--suites", "central", "--lines", "1000000000"],
    ["verify", "--suites", "central", "--q-real", "1", "--nmax", "1000000000"],
], ids=["verify-4000-sites", "export-4000-sites", "1e7-sites", "1e9-lines", "1e9-nmax"])
def test_a_too_large_instance_exits_3_promptly(outdir, capsys, args):
    """The cap is decided from the mode counts and the cutoff before the
    exact dimension, the per-line ordering or the [n]_q check up to n_max is
    built, and the message names the size as 2^F * (n_max+1)^B, not as a
    number of thousands of digits."""
    start = time.perf_counter()
    assert main([*args, "-o", str(outdir / "op.txt")] if args[0] == "export"
                else [*args, "--quiet"]) == EXIT_TOO_LARGE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert re.search(r"instance too large: dimension 2\^\d+ \* \d+\^\d+ exceeds cap 100000$", err.strip())


def test_export_ignores_the_config_files_controls(outdir):
    """A config file's negative controls are a verify run's: export writes
    the same bytes with them as without, though the controlled operator
    differs."""
    spec = {"M": 2, "N": 1, "sites": 2, "nmax": 2, "q": {"nu": 0.3}}
    paths = []
    for name, extra in (("plain", {}), ("controls", {"negative_controls": ["qalpha", "disorder"]})):
        cfgfile, path = outdir / f"{name}.json", outdir / f"{name}.txt"
        cfgfile.write_text(json.dumps(dict(spec, **extra)))
        assert main(["export", "E+:0", "--config", str(cfgfile), "-o", str(path),
                     "--quiet"]) == EXIT_OK
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    cfg = lattice_config_from_raw(spec)
    controlled = dataclasses.replace(cfg, corruption=Corruption(flip_boson_disorder=True))
    assert residual_norm(resolve_operator(cfg, "E+:0")
                         - resolve_operator(controlled, "E+:0")) > 0.1


def test_the_config_block_leaves_the_controls_to_the_run_block(outdir):
    """Under a negative control the report's config block is the block
    without it: the controls are named once, in the run block."""
    payloads = []
    for flags in ([], ["--negative-control", "qalpha"]):
        report = outdir / "report.json"
        main(["verify", *SMALL, "--suites", "central", *flags, "--report", str(report),
              "--quiet"])
        payloads.append(json.loads(report.read_text()))
    plain, control = payloads
    assert control["config"] == plain["config"] and "corruption" not in plain["config"]
    assert control["run"]["negative_controls"] == ["qalpha"]
    assert control["config_hash"] != plain["config_hash"]


@pytest.mark.parametrize("command", ["verify", "export"])
def test_nu_and_q_real_are_exclusive(outdir, capsys, command):
    """A config takes one q: --nu and --q-real together are a usage error
    (exit 2) that names both flags, on verify and on export alike."""
    out = outdir / "out"
    args = (["verify", "--suites", "central", "--report", str(out)] if command == "verify"
            else ["export", "H:1", "-o", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(args + ["--nu", "0.3", "--q-real", "1.3", "--quiet"])
    assert exc.value.code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "--nu" in err and "--q-real" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,q", [(["--nu", "0.3"], {"nu": 0.3, "q_real": None}),
                                    (["--q-real", "1.3"], {"nu": None, "q_real": 1.3})])
def test_a_q_flag_overrides_the_config_file_q(outdir, flag, q):
    cfgfile, report = outdir / "cfg.json", outdir / "r.json"
    other = {"real": 1.3} if "--nu" in flag else {"nu": 0.3}
    cfgfile.write_text(json.dumps({"q": other, "suites": "central"}))
    assert main(["verify", "--config", str(cfgfile), *flag, "--report", str(report),
                 "--quiet"]) == EXIT_OK
    lattice = json.loads(report.read_text())["config"]
    assert {k: lattice[k] for k in q} == q


@pytest.mark.parametrize("flags, named", [
    (["--tol", "inf"], "tol"), (["--nu", "nan"], "nu"), (["--q-real", "inf"], "q_real"),
    (["--q-real", "1.3", "--nmax", "3000"], "n_max"), (["--nu", "1e308"], "nu"),
], ids=["tol-inf", "nu-nan", "q-real-inf", "q-real-overflow", "nu-overflow"])
@pytest.mark.parametrize("command", ["verify", "export"])
def test_non_finite_or_overflowing_numbers_exit_2(outdir, capsys, command, flags, named):
    """A tol, nu or q that is not finite, or a q whose [n]_q overflows below
    the cutoff, is a config error that names the key, on verify and export:
    an infinite tol would pass the negative control."""
    args = (["verify", "--negative-control", "qalpha", "--suites", "quantum,serre"]
            if command == "verify" else ["export", "H:1", "-o", str(outdir / "h.txt")])
    assert main([*args, *flags, "--quiet"]) == EXIT_CONFIG_ERROR
    assert named in capsys.readouterr().err


def test_a_nan_in_a_config_file_exits_2(outdir, capsys):
    """json reads NaN: a config file's non-finite q is a config error too."""
    cfgfile = outdir / "cfg.json"
    cfgfile.write_text('{"q": {"nu": NaN}, "suites": "central"}')
    assert main(["verify", "--config", str(cfgfile), "--quiet"]) == EXIT_CONFIG_ERROR
    assert "nu" in capsys.readouterr().err


def test_a_config_integer_past_the_digit_limit_exits_2(outdir, capsys):
    """json reads an integer literal of more than 4 300 digits with a plain
    ValueError: it is a config error, as a malformed file is, not a traceback."""
    cfgfile = outdir / "cfg.json"
    cfgfile.write_text('{"nmax": ' + "9" * 5000 + ', "suites": "central"}')
    assert main(["verify", "--config", str(cfgfile), "--quiet"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "4300 digits" in err and err.count("\n") == 1


def test_verify_negative_control_fails():
    rc = main(["verify", "--suites", "coproduct", "--negative-control",
               "qalpha", "--quiet"])
    assert rc == EXIT_RELATION_FAILURE


def test_repeated_names_run_once(outdir, monkeypatch):
    """A suite or negative control named twice runs once, and the report's
    run block and config hash are those of the names given once."""
    from anyonrep import verify
    calls = []
    central = verify.SUITES["central"]

    def counted(cfg):
        calls.append(cfg.corruption)
        return central(cfg)

    monkeypatch.setitem(verify.SUITES, "central", counted)
    payloads = []
    for suites, controls in (("central,central", ["qalpha", "qalpha"]),
                             ("central", ["qalpha"])):
        report = outdir / "report.json"
        flags = [a for c in controls for a in ("--negative-control", c)]
        main(["verify", "--suites", suites, *flags, "--report", str(report),
              "--quiet"])
        payloads.append(json.loads(report.read_text()))
    assert len(calls) == 2  # once per run
    twice, once = payloads
    assert twice["run"] == once["run"]
    assert twice["run"]["suites"] == ["central"]
    assert twice["run"]["negative_controls"] == ["qalpha"]
    assert twice["config_hash"] == once["config_hash"]


def test_verify_config_file_and_env(outdir, monkeypatch):
    cfgfile = outdir / "cfg.json"
    cfgfile.write_text(json.dumps({
        "M": 2, "N": 1, "sites": 2, "nmax": 2, "ordering": "sea",
        "q": {"nu": 0.3}, "suites": ["central"]}))
    assert main(["verify", "--config", str(cfgfile), "--quiet"]) == EXIT_OK
    monkeypatch.setenv("ANYONREP_CONFIG", str(cfgfile))
    assert main(["verify", "--quiet"]) == EXIT_OK
    # flags override the file
    assert main(["verify", "--config", str(cfgfile), "--M", "1", "--N", "1",
                 "--quiet"]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("key", ["n_max", "bare_cross_line"])
def test_config_file_rejects_unknown_keys(outdir, capsys, key):
    cfgfile = outdir / "cfg.json"
    cfgfile.write_text(json.dumps({"M": 2, "N": 1, key: 1,
                                   "suites": ["central"]}))
    assert main(["verify", "--config", str(cfgfile), "--quiet"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert key in err and "nmax" in err and "q_samples" in err


@pytest.mark.parametrize("key, value, named, expected", [
    ("M", "two", "M", "an integer"),
    ("nmax", 1.5, "nmax", "an integer"),
    ("lines", True, "lines", "an integer"),
    ("tol", "1e-10", "tol", "a number"),
    ("q_samples", [1], "q_samples", "an integer"),
    ("q", {"nu": "0.3"}, "nu", "a number"),
    ("ordering", 3, "ordering", "a string"),
])
def test_config_file_wrong_type_exits_2(outdir, capsys, key, value, named, expected):
    cfgfile = outdir / "cfg.json"
    cfgfile.write_text(json.dumps({"M": 2, "N": 1, "suites": ["central"],
                                   key: value}))
    assert main(["verify", "--config", str(cfgfile), "--quiet"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f'"{named}"' in err and expected in err


@pytest.mark.parametrize("suites, names", [
    ("central", ["central"]),
    ("central,coproduct", ["central", "coproduct"]),
    (["central,coproduct"], ["central", "coproduct"]),
])
def test_config_file_suites_take_the_flag_form(outdir, suites, names):
    report = outdir / "r.json"
    cfgfile = outdir / "cfg.json"
    cfgfile.write_text(json.dumps({"suites": suites,
                                   "negative_controls": "qalpha"}))
    rc = main(["verify", "--config", str(cfgfile), "--report", str(report),
               "--quiet"])
    payload = json.loads(report.read_text())
    assert payload["run"]["suites"] == names
    assert payload["run"]["negative_controls"] == ["qalpha"]
    assert rc == (EXIT_RELATION_FAILURE if "coproduct" in names else EXIT_OK)


@pytest.mark.parametrize("key, value", [
    ("suites", {"central": True}),
    ("suites", ["central", 3]),
    ("negative_controls", 5),
])
def test_config_file_name_lists_reject_other_types(outdir, capsys, key, value):
    cfgfile = outdir / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    assert main(["verify", "--config", str(cfgfile), "--quiet"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f'"{key}"' in err and '["central", "serre"]' in err


@pytest.mark.parametrize("case", ["config-dir", "config-not-utf8", "report-dir"])
def test_unreadable_inputs_are_config_errors(outdir, capsys, case):
    """A config or report path that cannot be read or written exits 2 with a
    one-line message, not a traceback with the relation-failure code."""
    (outdir / "bad.json").write_bytes(b'\xff\xfe{"M": 2}')
    flag, path = {"config-dir": ("--config", outdir),
                  "config-not-utf8": ("--config", outdir / "bad.json"),
                  "report-dir": ("--report", outdir)}[case]
    assert main(["verify", "--suites", "central", flag, str(path),
                 "--quiet"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_status_classifies_each_report_once():
    def make(**fields):
        return RelationReport("x", "-", **fields)

    cases = {"n/a": make(applicable=False, passed=False),
             "info": make(informational=True, passed=False),
             "fails-as-expected": make(expect_fail=True, passed=False),
             "UNEXPECTED-PASS": make(expect_fail=True),
             "pass": make(),
             "FAIL": make(passed=False)}
    for status, r in cases.items():
        assert r.status == status
        assert r.summary_line().endswith(status)
    assert [r.satisfied for r in cases.values()] == [True, True, True, False, True, False]
    assert _counts({"s": list(cases.values())}) == {
        "total": 6, "passed": 1, "failed": 1, "not_applicable": 1,
        "controls": 2, "informational": 1}


def test_verify_q_samples(outdir):
    report = outdir / "r.json"
    rc = main(["verify", "--suites", "central", "--q-samples", "2",
               "--report", str(report), "--quiet"])
    assert rc == EXIT_OK
    payload = json.loads(report.read_text())
    sampled = [k for k in payload["suites"] if "@nu=" in k]
    assert len(sampled) == 2


Q_FREE = ("oscillators", "undeformed", "central", "cartanweyl")
SMALL = ["--M", "2", "--N", "1", "--sites", "2", "--nmax", "2", "--nu", "0.3"]


@pytest.mark.parametrize("flags,stack", [([], {}), (["--lines", "2", "--ordering", "sea,empty"],
                                                   {"K": 2, "ordering": ("sea", "empty")})],
                         ids=["M2N1S2", "sea,empty"])
def test_q_samples_repeat_the_reports_of_a_fresh_run(outdir, flags, stack):
    """Each repeat of a q-free suite (or the oscillators' q-free block)
    equals, in every field but wall_time, the same suite run at that nu with
    cleared caches: what is checked once per basis is what every nu checks."""
    report = outdir / "r.json"
    _cached_basis.cache_clear()
    assert main(["verify", *SMALL, *flags, "--q-samples", "2", "--suites", ",".join(Q_FREE),
                 "--report", str(report), "--quiet"]) == EXIT_OK
    suites = json.loads(report.read_text())["suites"]
    cfg = LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3, **stack)

    def fields(reports):
        return [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]

    for nu in _nu_samples(cfg, 2):
        _cached_basis.cache_clear()
        fresh = run_suites(dataclasses.replace(cfg, nu=nu), Q_FREE)
        for name in Q_FREE:
            expected = json.loads(json.dumps([vars(r) for r in fresh[name]], default=repr))
            assert fields(suites[f"{name}@nu={nu:.6f}"]["reports"]) == fields(expected)


def test_q_free_parts_are_checked_once_per_basis(monkeypatch):
    """With --q-samples 2 every check of undeformed, cartanweyl, central and
    the oscillators' eq20/eq21/eq30 runs once; every check of a suite that
    reads q, and the oscillators' q-boson relations, runs at each of the
    three nu."""
    calls = Counter()

    def counting(check):
        def counted(self, relation_ids, *args, **kwargs):
            for relation_id in relation_ids:
                calls[self.suite, relation_id.split("[", 1)[0], relation_id] += 1
            return check(self, relation_ids, *args, **kwargs)
        return counted

    _cached_basis.cache_clear()
    for name in ("check_family", "check_factor_commutators"):
        monkeypatch.setattr(SuiteReports, name, counting(getattr(SuiteReports, name)))
    assert main(["verify", *SMALL, "--q-samples", "2", "--quiet"]) == EXIT_OK
    once = {(s, f) for s, f, _ in calls
            if s in ("undeformed", "cartanweyl", "central") or f in ("eq20", "eq21", "eq30")}
    assert {s for s, _ in once} == {"oscillators", "undeformed", "cartanweyl", "central"}
    assert ("oscillators", "eq30") in once
    assert {s for s, _, _ in calls} == set(SUITES) - {"classical"}
    for (suite, family, rid), n in calls.items():
        assert n == (1 if (suite, family) in once else 3), rid


def _sets_built(monkeypatch) -> list:
    """The ``deformed`` flag of every generator set built from now on, on a
    fresh basis."""
    built = []
    build = algebra.chevalley_generators
    monkeypatch.setattr(algebra, "chevalley_generators",
                        lambda cfg, basis, deformed=True, *a: built.append(deformed)
                        or build(cfg, basis, deformed, *a))
    _cached_basis.cache_clear()
    return built


def test_a_deformed_set_is_built_once_whatever_the_suite_order(monkeypatch):
    """Suites run in registry order: classical, which asks for q near 1 and so
    frees the run's deformed set, runs after every suite that reads it."""
    built = _sets_built(monkeypatch)
    assert main(["verify", *SMALL, "--suites", "quantum,classical,serre", "--quiet"]) == EXIT_OK
    assert built.count(True) == 1


def test_report_keys_follow_registry_order(outdir):
    """Out-of-order --suites: the report's suites follow registry order, base
    keys first, then each sample's; the run block and the hash keep the
    order given."""
    report = outdir / "r.json"
    given = ["cartanweyl", "classical", "quantum", "oscillators"]
    assert main(["verify", *SMALL, "--suites", ",".join(given), "--q-samples", "2",
                 "--report", str(report), "--quiet"]) == EXIT_OK
    payload = json.loads(report.read_text())
    base = [name for name in SUITES if name in given]
    nus = _nu_samples(LatticeConfig(M=2, N=1, S=2, n_max=2, nu=0.3), 2)
    assert list(payload["suites"]) == base + [f"{name}@nu={nu:.6f}" for nu in nus
                                              for name in base if name != "classical"]
    assert payload["run"]["suites"] == given
    cfg = lattice_config_from_raw({"M": 2, "N": 1, "sites": 2, "nmax": 2, "q": {"nu": 0.3}})
    assert payload["config_hash"] == config_digest(cfg, payload["run"])


def test_central_builds_no_deformed_set(monkeypatch):
    """Gamma is read from the plain set's H, which reads no q: a sampled
    central run builds the plain set once and no deformed set."""
    built = _sets_built(monkeypatch)
    assert main(["verify", "--suites", "central", "--q-samples", "2", "--quiet"]) == EXIT_OK
    assert built == [False]


def test_q_samples_build_no_config_and_key_twice(memo_builds):
    """A run keeps what a q builds until its last reader, so a full run at
    three nu builds each (config, key) once: one plain set and three deformed
    ones among them.  Past the last suite that reads a q, only the basis's
    config is left in the memo."""
    assert main(["verify", "--M", "2", "--N", "1", "--sites", "2",
                 "--q-samples", "2", "--quiet"]) == EXIT_OK
    assert memo_builds and len(set(memo_builds)) == len(memo_builds)
    sets = [key[1] for _, key in memo_builds if key[0] == "set"]
    assert sorted(sets) == [False, True, True, True]
    basis = cached_basis(memo_builds[0][0])
    assert set(basis._memo) == {basis.cfg}


def test_bulk_masks_are_built_once_per_basis(memo_builds):
    """A bulk reads no q: every suite at the three nu reads one mask per
    (bulk, factor), built under the basis's config."""
    assert main(["verify", *SMALL, "--q-samples", "2", "--quiet"]) == EXIT_OK
    masks = [(at, key) for at, key in memo_builds if key[0] == "mask"]
    assert masks and len(set(masks)) == len(masks)
    assert {at for at, _ in masks} == {cached_basis(masks[0][0]).cfg}


def test_config_defaults_are_the_dataclass_defaults():
    cfg = lattice_config_from_raw({})
    defaults = {f.name: f.default for f in dataclasses.fields(LatticeConfig)}
    for name in ("n_max", "tol", "dim_cap"):
        assert getattr(cfg, name) == defaults[name]
    assert cfg.dim_cap == DEFAULT_DIM_CAP


def test_config_hash_is_stable():
    cfg1 = lattice_config_from_raw({"M": 2, "N": 1, "q": {"nu": 0.3}})
    cfg2 = lattice_config_from_raw({"M": 2, "N": 1, "q": {"nu": 0.3}})
    assert config_digest(cfg1) == config_digest(cfg2)
    cfg3 = lattice_config_from_raw({"M": 2, "N": 1, "q": {"nu": 0.1}})
    assert config_digest(cfg1) != config_digest(cfg3)


def test_export_diagonal_cartan(outdir):
    path = outdir / "H1.txt"
    assert main(["export", "H:1", "-o", str(path), "--quiet"]) == EXIT_OK
    lines = path.read_text().strip().splitlines()
    dim, nnz = map(int, lines[0].split())
    assert dim == 144 and nnz == len(lines) - 1
    for line in lines[1:]:
        r, c, re, im = line.split()
        assert r == c  # diagonal
        assert float(im) == 0.0
        assert float(re) == int(float(re))  # integer spectrum


def test_export_q_one_collapse(outdir):
    f1 = outdir / "def.txt"
    f2 = outdir / "und.txt"
    assert main(["export", "E+:1", "--q-real", "1.0", "-o", str(f1),
                 "--quiet"]) == EXIT_OK
    assert main(["export", "e+:1", "--q-real", "1.0", "-o", str(f2),
                 "--quiet"]) == EXIT_OK
    assert f1.read_text() == f2.read_text()


@pytest.mark.parametrize("op_id", ["H:1", "h:1", "Gamma"])
def test_exports_that_read_no_q_build_no_deformed_set(outdir, monkeypatch, op_id):
    built = _sets_built(monkeypatch)
    assert main(["export", op_id, *SMALL, "-o", str(outdir / "op.txt"), "--quiet"]) == EXIT_OK
    assert built == [False]


def test_export_round_trip(outdir):
    cfg = lattice_config_from_raw({})
    for op_id in ("E+:0", "Gamma", "CW:eps1-delta1:m=1", "CWH:1:m=0"):
        op = resolve_operator(cfg, op_id)
        path = outdir / "op.txt"
        write_operator(op, str(path))
        back = read_operator(str(path))
        assert residual_norm(op - back) == 0.0


def test_export_unknown_id(outdir, capsys):
    """An unknown, malformed or out-of-range id is a config error that names
    the id, not a traceback with the relation-failure exit code."""
    path = outdir / "x.txt"
    for op_id in ("X:9", "E+:7", "CW:eps1-eps1:m=0", "H:x", "E+:", "H:1:2",
                  "CWH:x:m=0", "CWH:0:m=0", "CWH:1:m=x"):
        assert main(["export", op_id, "-o", str(path),
                     "--quiet"]) == EXIT_CONFIG_ERROR, op_id
        assert repr(op_id) in capsys.readouterr().err, op_id
        assert not path.exists()


def test_list_catalog_stable(capsys):
    assert main(["list"]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert main(["list"]) == EXIT_OK
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert "eq7c" in out1 and "Eq. (7c)" in out1
    assert "eq9-alpha0-cyclic" in out1 and "eq9-alpha0-skip" in out1
