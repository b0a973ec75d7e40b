import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import superjordan
from superjordan import verify as V
from superjordan.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "superjordan" / "data"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_orbit_pass(capsys):
    assert main(["orbit", "J15"]) == 0
    out = capsys.readouterr().out
    assert "PASS orbit:J15" in out and "computed 4" in out


def test_orbit_logged_mismatch(capsys):
    # J2's printed column is a recorded erratum: reported, not failed
    assert main(["orbit", "J2"]) == 0
    out = capsys.readouterr().out
    assert "XFAIL(errata) orbit:J2" in out


def _one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out and len(captured.err.splitlines()) == 1
    return captured.err.strip()


def test_unknown_name_is_usage_error(capsys):
    assert _one_error_line(["orbit", "nope"], capsys) == "error: unknown catalog name 'nope'"


def test_cross_type_screen_is_usage_error(capsys):
    err = _one_error_line(["screen", "J1", "Jc1"], capsys)
    assert err == "error: cannot screen type (1,3) against type (2,2)"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.txt"
    err = _one_error_line(["--output", str(missing), "orbit", "J1"], capsys)
    assert err.startswith("error: ") and str(missing) in err
    assert not missing.parent.exists()


def test_catalog_root_without_type_directories_is_usage_error(tmp_path, capsys):
    # an empty root must not pass vacuously with 0/0 entries verified
    for argv in (["verify-catalog"], ["components", "22"]):
        err = _one_error_line(["--catalog", str(tmp_path)] + argv, capsys)
        assert err.startswith("error: ") and str(tmp_path / "catalog" / "type13") in err
    (tmp_path / "catalog" / "type13").mkdir(parents=True)
    (tmp_path / "catalog" / "type13" / "J1.alg").write_text((DATA / "catalog" / "type13" / "J1.alg").read_text())
    err = _one_error_line(["--catalog", str(tmp_path), "verify-catalog"], capsys)
    assert "missing or empty" in err and str(tmp_path / "catalog" / "type22") in err


def test_degenerate_all_without_witnesses_is_usage_error(tmp_path, capsys):
    # a directory that is missing or holds no .wit file must not pass vacuously
    for directory in (tmp_path / "missing", tmp_path):
        err = _one_error_line(["degenerate", "--all", str(directory)], capsys)
        assert err == f"error: {directory}: missing or empty witness directory (no .wit files)"


def test_derive(capsys):
    assert main(["derive", "J18"]) == 0
    assert capsys.readouterr().out == "PASS derive:J18 even=9 odd=0 total=9\n"
    assert main(["derive", "Jc16"]) == 0  # a family: its first sample
    assert capsys.readouterr().out == "PASS derive:Jc16 even=3 odd=2 total=5\n"


def test_screen_output(capsys):
    assert main(["screen", "J7", "J5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7
    assert all(line.startswith("PASS screen:J7-x->J5 J7 -/-> J5: ") for line in out)
    assert "PASS screen:J7-x->J5 J7 -/-> J5: orbit-dimension violation: 7 <= 12 with distinct tables" in out
    # nothing obstructs J5 -> J2, a verified witness: one INFO row, exit 0
    assert main(["screen", "J5", "J2"]) == 0
    assert capsys.readouterr().out == "INFO screen:J5-x->J2 J5 -> J2: no obstruction found\n"
    assert main(["--format", "tsv", "screen", "J5", "J2"]) == 0
    assert capsys.readouterr().out == "INFO\tscreen:J5-x->J2\tJ5 -> J2: no obstruction found\n"


def test_derive_and_screen_rows_come_from_verify(catalog, capsys):
    # the command prints the rows that superjordan.verify builds
    for argv, rows in (
        (["derive", "J18"], [V.derive_row(catalog, "J18")]),
        (["screen", "J7", "J5"], V.screen_rows(catalog, "J7", "J5")),
        (["screen", "J5", "J2"], V.screen_rows(catalog, "J5", "J2")),
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out == "".join(row.display + "\n" for row in rows)
        assert all(row.acceptable for row in rows)


def test_degenerate_single(capsys):
    wit = DATA / "witnesses" / "geo1_J5_J2.wit"
    assert main(["degenerate", str(wit)]) == 0
    out = capsys.readouterr().out
    assert "Verified (graded)" in out


def test_degenerate_failure_is_logged(capsys):
    wit = DATA / "witnesses" / "geo1_J14_J10.wit"
    assert main(["degenerate", str(wit)]) == 0
    out = capsys.readouterr().out
    assert "XFAIL(errata)" in out and "LimitMismatch" in out


def test_degenerate_unlogged_failure_fails(tmp_path, capsys):
    bad = tmp_path / "bad.wit"
    bad.write_text(
        "[degeneration]\nlabel = adhoc\nsource = J7\ntarget = J5\n"
        "basis: f1 = f1\nbasis: f2 = f2\nbasis: f3 = f3\nbasis: e = e\n"
    )
    assert main(["degenerate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_degenerate_printed_mixed_parity_basis_fails(tmp_path, capsys):
    # the printed J3 -> J1 basis mixes even and odd vectors; its erratum is
    # keyed to the stored graded basis, which passes, so this row is unlogged
    printed = tmp_path / "geo1_J3_J1_printed.wit"
    printed.write_text(
        "[degeneration]\nlabel = geo1:J3->J1-printed\nsource = J3\ntarget = J1\n"
        "basis: f1 = t*f1\nbasis: f2 = f2+f3+t*e\nbasis: f3 = f3+t*e\nbasis: e = t*e\n"
    )
    assert main(["degenerate", str(printed)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL witness:geo1:J3->J1-printed NonGradedWitness: ")
    assert main(["degenerate", str(DATA / "witnesses" / "geo1_J3_J1.wit")]) == 0
    assert capsys.readouterr().out.startswith("PASS witness:geo1:J3->J1 Verified (graded)")


def test_degenerate_broken_correction_is_not_logged(tmp_path, capsys):
    # E25 logs the printed J3 -> J1 basis; the stored graded basis is its
    # correction, so a failure of the stored basis is a FAIL, not XFAIL
    text = (DATA / "witnesses" / "geo1_J3_J1.wit").read_text()
    assert "status = published-graded" in text and "basis: f3 = f3\n" in text
    broken = tmp_path / "geo1_J3_J1.wit"
    broken.write_text(text.replace("basis: f3 = f3\n", "basis: f3 = f3 + f2\n"))
    assert main(["degenerate", str(broken)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL witness:geo1:J3->J1 SingularMatrix (graded): ")


def test_closedset_broken_correction_is_not_logged(tmp_path, capsys):
    # E8 logs the printed geo2_Jc10 certificate; the stored one is its
    # correction, so a failure of the stored certificate is a FAIL, not XFAIL
    text = (DATA / "closedsets" / "geo2_Jc10.cs").read_text()
    assert "status = corrected\n" in text and "condition: 2*c[2,3,3] = c[2,2,2]\n" in text
    broken = tmp_path / "geo2_Jc10.cs"
    broken.write_text(text.replace("2*c[2,3,3]", "3*c[2,3,3]"))
    assert main(["closedset", str(broken), "--trials", "5"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL certificate:geo2_Jc10:source Jc10 fails 3*c[2,3,3] = c[2,2,2]\n")
    # the same broken conditions stored as the printed certificate are E8
    broken.write_text(text.replace("2*c[2,3,3]", "3*c[2,3,3]").replace("status = corrected\n", ""))
    assert main(["closedset", str(broken), "--trials", "5"]) == 0
    assert capsys.readouterr().out.startswith("XFAIL(errata) certificate:geo2_Jc10:source ")


def test_check_algebra_file(tmp_path, capsys):
    path = tmp_path / "probe.alg"
    path.write_text(
        "[algebra]\nname = probe\ntype = 1,1\nproduct: e*e = e\nproduct: e*f = 2 f\n"
    )
    assert main(["check", str(path)]) == 1
    assert "FAIL identity:probe" in capsys.readouterr().out


def test_check_family_file_symbolically(tmp_path, capsys):
    # Jordan for every t != 2, so no sample value may be substituted
    path = tmp_path / "family.alg"
    path.write_text(
        "[algebra]\nname = pole\ntype = 1,2\nfamily = t\nproduct: e*e = e\n"
        "product: e*f1 = 1/2 f1\nproduct: e*f2 = 1/2 f2\nproduct: f1*f2 = 1/(t-2) e\n"
    )
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "PASS identity:pole\n"


def test_envelope(capsys):
    assert main(["envelope", "J1", "-k", "4"]) == 0
    assert "PASS envelope:J1:k=4" in capsys.readouterr().out


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out and "error:" in captured.err
    return captured.err


def test_envelope_negative_k_is_usage_error(capsys):
    assert "must be >= 0, got -1" in _usage_error(["envelope", "J1", "-k", "-1"], capsys)
    # the envelope lists 2**k masks: a large k is refused before any work
    for k in ("17", "4096"):
        assert f"must be <= 16, got {k}" in _usage_error(["envelope", "J1", "-k", k], capsys)
    assert main(["envelope", "J1", "-k", "0"]) == 0
    assert "PASS envelope:J1:k=0" in capsys.readouterr().out


def test_degenerate_needs_exactly_one_of_file_and_all(capsys):
    # a FILE given with --all DIR would be dropped silently: refuse the pair
    wit = str(DATA / "witnesses" / "geo1_J5_J2.wit")
    for argv in ([], [wit, "--all", str(DATA / "witnesses")]):
        assert "degenerate needs a file or --all DIR, not both" in _usage_error(["degenerate"] + argv, capsys)


def test_closedset_trials_below_one_is_usage_error(capsys):
    cs = str(DATA / "closedsets" / "geo1_J11.cs")
    for trials in ("0", "-3"):
        err = _usage_error(["closedset", cs, "--trials", trials], capsys)
        assert f"must be >= 1, got {trials}" in err
    assert "invalid integer 'x'" in _usage_error(["closedset", cs, "--trials", "x"], capsys)


def test_verify_all_trials_below_one_is_usage_error(capsys):
    assert "must be >= 1, got 0" in _usage_error(["verify-all", "--trials", "0"], capsys)


def test_components_and_graph(tmp_path, capsys):
    assert main(["components", "13"]) == 0
    out = capsys.readouterr().out
    assert "11 components" in out and "dimension 12" in out
    dot_path = tmp_path / "g.dot"
    assert main(["graph", "1,3", "--dot", str(dot_path)]) == 0
    text = dot_path.read_text()
    assert '"J5" -> "J2";' in text


def test_tsv_format_and_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.tsv"
    assert main(["--format", "tsv", "--output", str(out_path), "orbit", "J15"]) == 0
    assert out_path.read_text().startswith("PASS\torbit:J15")


def test_closedset(capsys):
    cs = DATA / "closedsets" / "geo1_J7.cs"
    assert main(["closedset", str(cs), "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "certificate:geo1_J7:stability 50/50" in out


def test_reports_are_deterministic(capsys):
    cs = DATA / "closedsets" / "geo1_J7.cs"
    main(["closedset", str(cs), "--trials", "40", "--seed", "3"])
    first = capsys.readouterr().out
    main(["closedset", str(cs), "--trials", "40", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def _run_module(*argv):
    """``python -m`` in a child that imports the package the tests import,
    installed or not (pytest's ``pythonpath`` reaches only this process)."""
    parent = str(Path(superjordan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [parent, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


def test_entry_point_installed():
    result = _run_module("superjordan.cli", "orbit", "Jf49")
    assert result.returncode == 0
    assert "computed 4" in result.stdout


def test_package_runs_as_a_module():
    # python -m superjordan, without an installed console script
    result = _run_module("superjordan", "verify-all", "--trials", "10", "--seed", "0")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1].endswith("hard failures: 0")
    assert any(line.startswith("PASS identity:") for line in lines)
    assert not any(line.startswith("FAIL") for line in lines)


def test_closedset_matches_certificate_sweep(catalog, capsys):
    cs = DATA / "closedsets" / "geo2_Jc10.cs"
    assert main(["closedset", str(cs), "--trials", "50"]) == 0
    printed = capsys.readouterr().out.splitlines()
    swept = [
        row.display
        for row in V.verify_certificates(catalog, trials=50)
        if row.check_id.startswith("certificate:geo2_Jc10:")
    ]
    assert any(":source" in line for line in swept)
    assert printed == swept


def test_degenerate_all_matches_witness_sweep(verified_witnesses, capsys):
    assert main(["degenerate", "--all", str(DATA / "witnesses")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [row.display for _, _, row in verified_witnesses]


def test_verify_catalog_full_report_shape(capsys):
    # identity, orbit and ambient rows, then the decomposition and even-part
    # sweeps; only the "#" summary line carries a time
    assert main(["verify-catalog", "--full"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 604
    timed = [line for line in lines if re.search(r"\d\.\ds\b", line)]
    assert timed == [line for line in lines if line.startswith("#")]
    assert len(timed) == 1 and re.fullmatch(r"# 149/149 algebras verified in \d+\.\ds", timed[0])
    sweeps = Counter(line.split()[1].split(":")[0] for line in lines if not line.startswith("#"))
    assert sweeps == {
        "identity": 149, "orbit": 151, "ambient": 5, "decomposition": 149, "even-part": 149
    }


GOLDEN = Path(__file__).resolve().parent / "data" / "verify_all_trials20_seed0.txt"


@pytest.fixture(scope="module")
def verify_all_rows(tmp_path_factory):
    """The rows of verify-all at 20 certificate trials: every line but the
    "#" lines, which carry times."""
    report = tmp_path_factory.mktemp("verify_all") / "report.txt"
    assert main(["--output", str(report), "verify-all", "--trials", "20", "--seed", "0"]) == 0
    return [line for line in report.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]


def test_verify_all_matches_golden_report(verify_all_rows):
    assert verify_all_rows == GOLDEN.read_text(encoding="utf-8").splitlines()


def test_verify_all_row_ids_are_unique(verify_all_rows):
    # a family instance's row ends its id in @p, so a failing instance is named
    ids = Counter(line.split()[1] for line in verify_all_rows)
    assert len(ids) > 1000
    assert [check_id for check_id, n in ids.items() if n > 1] == []
