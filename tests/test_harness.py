"""Harness and CLI tests: registry integrity, filtering, reports, exit codes."""

import inspect
import json
import re
from fractions import Fraction

import pytest

from hesse_lab import harness, hesse
from hesse_lab.cli import main
from hesse_lab.field import tower_eps


def test_registry_ids_unique_and_well_formed():
    ids = harness.check_ids()
    assert len(ids) == len(set(ids))
    assert len(ids) >= 50
    for check_id in ids:
        assert re.fullmatch(r"[a-z0-9_]+(\.[a-z0-9_]+)+", check_id)
    for check in harness.registry():
        assert check.reference.strip()


def test_every_runner_takes_no_argument():
    for check in harness.registry():
        inspect.signature(check.runner).bind()


def test_numeric_rows_fix_their_lambda_and_precision():
    # no setting of the run reaches a check: the one sampled lambda and the
    # 128 working bits are the sweep's own, and the residual is already a
    # 17-digit string; the decision itself is the exact proof on all nine
    # polars
    (row,) = [c for c in harness.registry() if c.check_id == "torsion.two"]
    result = row.runner()
    assert result.holds
    assert result.details["precision_bits"] == 128
    assert sorted(result.details) == sorted(
        ["lambda=1,line=0", "polar_discriminant", "polars", "precision_bits", "tolerance"]
    )
    assert all(isinstance(result.details[k], str) for k in ("lambda=1,line=0", "tolerance"))
    assert result.details["polars"] == 9
    assert result.details["polar_discriminant"] == "-4*t0*(27*t0^3 + t1^3)"


def test_nine_torsion_row_reports_each_proof_and_one_sample():
    # the decision is the exact proof at lambda = 1, 2 and 1/2, each giving
    # k, the shear and deg R; one 128-bit numeric sample at lambda = 1 on
    # the first contact cubic cross-checks it, its residual a 17-digit string
    (row,) = [c for c in harness.registry() if c.check_id == "torsion.nine"]
    result = row.runner()
    assert result.holds
    proof = {"k": 2, "shear": 0, "degree": 9}
    assert result.details == {
        "proofs": {"lambda=1": proof, "lambda=2": proof, "lambda=1/2": proof},
        "precision_bits": 128,
        "lambda=1,cubic=1": "2.4612746208796499e-52",
        "tolerance": "1.0e-25",
    }


def test_namespaces_present():
    ids = harness.check_ids()
    for prefix in ("hesse.", "groups.", "torsion.", "lattice."):
        assert any(i.startswith(prefix) for i in ids)
    for letter in "abcdefghijklmn":
        assert f"hesse.identity.{letter}" in ids


def test_select_preserves_registry_order():
    selected = harness.select_checks(("lattice.*",))
    ids = [c.check_id for c in selected]
    assert ids == [i for i in harness.check_ids() if i.startswith("lattice.")]


def test_select_empty_filter_keeps_everything():
    ids = tuple(c.check_id for c in harness.select_checks(()))
    assert ids == harness.check_ids()


def test_select_overlapping_filters_do_not_duplicate():
    selected = harness.select_checks(("lattice.*", "lattice.kummer"))
    ids = [c.check_id for c in selected]
    assert len(ids) == len(set(ids))


def test_unknown_filter_raises():
    with pytest.raises(ValueError):
        harness.select_checks(("no.such.check",))


def test_cli_check_takes_no_precision(capsys):
    # the numeric sweeps fix their own 128 bits and sample no lambda of the
    # caller's choosing, so argparse rejects either flag
    for flag, value in (("--precision", "64"), ("--lambda", "1")):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "torsion.two", flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_default_config_applies_overrides():
    assert harness.default_config() == harness.HarnessConfig()
    assert harness.default_config(filters=["hesse.*"]).filters == ("hesse.*",)
    with pytest.raises(TypeError):
        harness.default_config(precision_bits=192)
    with pytest.raises(TypeError):
        harness.default_config(lambdas=(Fraction(5, 3),))


def test_lattice_subset_passes():
    report = harness.run(harness.default_config(filters=("lattice.*",)))
    assert all(r.status == "pass" for r in report.results)
    assert report.exit_code == 0
    assert all(r.runtime_ms >= 0 for r in report.results)


def test_norm_twelve_absence_check_has_empty_witness():
    report = harness.run(harness.default_config(filters=("lattice.a2m3.norm12",)))
    (result,) = report.results
    assert result.status == "pass"
    assert result.witness == {"vectors": []}


def test_report_json_round_trip(tmp_path):
    report = harness.run(harness.default_config(filters=("lattice.a2m6.snf",)))
    path = tmp_path / "report.json"
    text = harness.report_json(report, str(path))
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk == json.loads(text) == harness.report_dict(report)
    assert on_disk["version"] == harness.SCHEMA_VERSION
    assert on_disk["config"] == {"filters": ["lattice.a2m6.snf"]}
    entry = on_disk["results"][0]
    assert set(entry) == {"check_id", "status", "witness", "paper_ref", "runtime_ms"}


def test_reports_deterministic_up_to_timing():
    config = harness.default_config(filters=("hesse.identity.*",))
    strip = lambda rep: [(r.check_id, r.status, r.witness) for r in rep.results]
    assert strip(harness.run(config)) == strip(harness.run(config))


def test_failing_runner_is_caught(monkeypatch):
    def boom():
        raise ZeroDivisionError("synthetic")

    fake = (harness.RegisteredCheck("fake.boom", "always explodes", boom),)
    monkeypatch.setattr(harness, "registry", lambda: fake)
    report = harness.run(harness.HarnessConfig())
    (result,) = report.results
    assert result.status == "fail"
    assert "ZeroDivisionError" in result.witness
    assert report.exit_code == 1


def test_exact_checks_report_their_reason_on_failure(monkeypatch):
    def refuse(_num, _den):
        raise ValueError("synthetic: division is not exact")

    hesse.hesse_data()  # built before the patch
    monkeypatch.setattr(hesse, "divide_exact", refuse)
    ids = ("hesse.dual_curve.m10", "hesse.halphen_cofactor", "hesse.nonic_fit")
    report = harness.run(harness.default_config(filters=ids))
    assert [r.check_id for r in report.results] == list(ids)
    for result in report.results:
        assert result.status == "fail"
        assert result.witness == "synthetic: division is not exact"
    with pytest.raises(ValueError):
        hesse.PropertyResult(False)


def test_jsonify_grammar():
    eps = tower_eps().symbol_element("eps")
    assert harness._jsonify(Fraction(1, 2)) == "1/2"
    assert harness._jsonify(eps) == "eps"
    assert harness._jsonify((1, (2, 3))) == [1, [2, 3]]
    assert harness._jsonify({"k": None}) == {"k": None}


# CLI ------------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert tuple(out) == harness.check_ids()


def test_cli_check_with_json(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["check", "lattice.*", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "8/8 checks passed" in out
    data = json.loads(path.read_text(encoding="utf-8"))
    assert [r["check_id"] for r in data["results"]] == [
        i for i in harness.check_ids() if i.startswith("lattice.")
    ]


def test_cli_check_unwritable_json_exit_two(tmp_path, capsys):
    # exit 1 means a check failed, so a report that cannot be written is an
    # error of its own
    path = tmp_path / "missing" / "r.json"
    code = main(["check", "lattice.kummer", "--json", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


def test_cli_unknown_filter_exit_two(capsys):
    assert main(["check", "no.such.*"]) == 2
    assert "matches no registered check" in capsys.readouterr().err


def test_cli_has_no_svg_subcommand(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    with pytest.raises(SystemExit) as exit_info:
        main(["plot-pencil", "--lambda", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()
