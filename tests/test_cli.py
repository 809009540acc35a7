import json
import os

import pytest

from conftest import session_path
from fthresh import RingError
from fthresh.cli import Session, UsageError, emit_nu_table, main, read_nu_table, run
from fthresh.frobenius import threshold_estimate


def run_report(argv):
    code, document = run(argv)
    return code, document["report"]


def test_nu_on_regular_session():
    code, report = run_report(
        ["nu", "--session", session_path("ex-regular.json"), "--a", "m", "--J", "m", "--e", "1"]
    )
    assert code == 0
    assert report["results"]["nu"] == 2


def test_threshold_on_blowup_session():
    code, report = run_report(
        ["threshold", "--session", session_path("ex-blowup.json"), "--a", "m", "--J", "m", "--e-max", "3"]
    )
    assert code == 0
    results = report["results"]
    lower = results["lower"][0] / results["lower"][1]
    upper = results["upper"][0] / results["upper"][1]
    assert lower <= 2.5 <= upper
    assert results["guess"] == [5, 2]
    for record in results["records"]:
        assert isinstance(record["nu"], int)


def test_every_numeric_is_exact():
    code, report = run_report(
        ["threshold", "--session", session_path("ex-regular.json"), "--a", "m", "--J", "m", "--e-max", "2"]
    )

    def no_floats(node):
        if isinstance(node, float):
            raise AssertionError(f"float leaked into report: {node}")
        if isinstance(node, dict):
            for v in node.values():
                no_floats(v)
        if isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(report)


def test_check_subcommand_exit_codes():
    code, report = run_report(
        ["check", "--session", session_path("ex-regular.json"), "--name", "monotonicity",
         "--trials", "5", "--seed", "0", "--e-max", "2"]
    )
    assert code == 0 and report["results"]["verdict"] == "pass"
    code, report = run_report(
        ["check", "--session", session_path("ex-node4.json"), "--name", "colon-lemma", "--x", "x"]
    )
    assert code == 3  # in(x) is a zerodivisor on the graded fiber: inconclusive
    code, report = run_report(
        ["check", "--session", session_path("ex-regular.json"), "--name", "superficial", "--x", "x"]
    )
    assert code == 0


def test_member_subcommand_variants():
    code, report = run_report(
        ["member", "--session", session_path("ex-regular.json"), "--a", "m", "--x", "x^2"]
    )
    assert code == 0 and report["results"]["contained"] is True
    code, report = run_report(
        ["member", "--session", session_path("ex-regular.json"), "--a", "m2", "--b", "m"]
    )
    assert code == 0 and report["results"]["contained"] is False
    with pytest.raises(UsageError):
        run(["member", "--session", session_path("ex-regular.json"), "--a", "m"])


def test_check_theorem_a_through_cli():
    code, report = run_report(
        ["check", "--session", session_path("ex-regular.json"), "--name", "theoremA",
         "--trials", "3", "--seed", "0", "--e-max", "2"]
    )
    assert code == 0 and report["results"]["verdict"] == "pass"


def test_verify_gr_exit_codes():
    code, _ = run_report(
        ["verify-gr", "--session", session_path("ex-blowup.json"), "--a", "x*y", "--degree", "4"]
    )
    assert code == 0
    code, report = run_report(
        ["verify-gr", "--session", session_path("ex-blowup.json"), "--a", "z^2*w", "--degree", "4"]
    )
    assert code == 1 and not report["results"]["passed"]


def test_verify_thmA_on_blowup():
    code, report = run_report(
        ["verify-thmA", "--session", session_path("ex-blowup.json"), "--b", "b", "--e-max", "2"]
    )
    assert code == 0
    assert report["results"]["verdict"] == "pass"


def test_usage_errors():
    with pytest.raises(UsageError):
        run(["nu", "--session", session_path("ex-regular.json"), "--a", "m", "--J", "m"])  # no --e
    with pytest.raises(UsageError):
        run(["frobnicate", "--session", session_path("ex-regular.json")])
    with pytest.raises(UsageError):
        run(["dim", "--session", "/nonexistent/path.json"])


def test_malformed_session_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 2, "variables": ["x"], ')
    with pytest.raises(UsageError) as err:
        run(["dim", "--session", str(bad)])
    assert "line" in str(err.value)


@pytest.mark.parametrize(
    "document",
    [
        ["p", "variables"],
        "session",
        {"p": 2, "variables": ["x"], "ideals": ["a"]},
        {"p": 2, "variables": ["x"], "elements": "x"},
        {"p": 2, "variables": ["x"], "options": [1]},
    ],
    ids=["list", "string", "ideals-list", "elements-string", "options-list"],
)
def test_session_that_is_not_an_object_is_a_usage_error(document, tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(document))
    assert main(["dim", "--session", str(path)]) == 2
    assert "object" in json.loads(capsys.readouterr().err)["error"]


def test_report_determinism():
    argv = ["threshold", "--session", session_path("ex-regular.json"), "--a", "m", "--J", "m", "--e-max", "2"]
    _, first = run(argv)
    _, second = run(argv)
    assert json.dumps(first["report"], sort_keys=True) == json.dumps(second["report"], sort_keys=True)
    assert first["digest"] == second["digest"]


def test_report_subcommand_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run(
        ["dim", "--session", session_path("ex-regular.json"), "--out", str(out)]
    )
    assert code == 0
    code, result = run(["report", str(out)])
    assert code == 0 and result["report"]["results"]["digest_ok"]
    tampered = json.loads(out.read_text())
    tampered["report"]["results"]["dimension"] = 99
    out.write_text(json.dumps(tampered))
    code, result = run(["report", str(out)])
    assert code == 1


def test_nu_table_roundtrip(tmp_path, regular2):
    est = threshold_estimate(regular2.maximal_ideal(), regular2.maximal_ideal(), 3)
    path = tmp_path / "table.csv"
    emit_nu_table(est, str(path))
    rows = read_nu_table(str(path))
    assert [(r["e"], r["q"], r["nu"]) for r in rows] == [(r.e, r.q, r.nu) for r in est.records]
    for row, (_, lower, upper) in zip(rows, est.row_bounds()):
        assert row["lower"] == lower and row["upper"] == upper
    emit_nu_table(est, str(path))
    again = read_nu_table(str(path))
    assert again == rows
    with pytest.raises(UsageError):
        emit_nu_table(est, "")


def test_threshold_csv_flag(tmp_path):
    out = tmp_path / "nu.csv"
    code, _ = run(
        ["threshold", "--session", session_path("ex-regular.json"), "--a", "m", "--J", "m",
         "--e-max", "2", "--out", str(out)]
    )
    assert code == 0 and out.exists()
    rows = read_nu_table(str(out))
    assert [r["nu"] for r in rows] == [2, 6]


def test_all_fixture_sessions_load():
    for name in (
        "ex-regular.json",
        "ex-blowup.json",
        "ex-node4.json",
        "ex-determinantal.json",
        "ex-fermat-cubic.json",
        "ex-cusp.json",
    ):
        session = Session.load(session_path(name))
        assert session.ring.nvars >= 1
        assert "m" in session.ideals


def test_session_elements_and_inline_ideals():
    session = Session.load(session_path("ex-fermat-cubic.json"))
    assert str(session.element("u")) == "z^2"
    inline = session.ideal("x, y")
    assert sorted(str(g) for g in inline.generators) == ["x", "y"]
    with pytest.raises(UsageError):
        session.ideal("x + ")


def test_tc_and_frational_subcommands():
    code, report = run_report(
        ["tc", "--session", session_path("ex-fermat-cubic.json"), "--x", "u", "--J", "J", "--c", "c", "--e-max", "3"]
    )
    assert code == 0
    assert report["results"]["kind"] == "consistent_with_star"
    code, report = run_report(
        ["frational", "--session", session_path("ex-cusp.json"), "--J", "J", "--c", "c", "--e-max", "3"]
    )
    assert code == 0
    assert report["results"]["verdict"] == "not_certified"


def test_tc_past_the_domain_screen_bound(tmp_path, capsys):
    session = {
        "p": 65521,
        "variables": ["x", "y", "z"],
        "relations": ["x^3 + y^3 + z^3"],
        "ideals": {"J": ["x", "y"]},
        "elements": {"u": "x", "c": "1"},
        "options": {},
    }
    path = tmp_path / "fermat-65521.json"
    path.write_text(json.dumps(session))
    argv = ["tc", "--session", str(path), "--x", "u", "--J", "J", "--c", "c", "--e-max", "1"]
    assert main(argv) == 2
    assert "assume_domain" in capsys.readouterr().err
    session["options"]["assume_domain"] = True
    path.write_text(json.dumps(session))
    code, report = run_report(argv)
    assert code == 0
    assert report["results"]["kind"] == "member"
    assert "domain-asserted-by-user" in report["results"]["assumptions"]


def test_fedder_and_fpt_subcommands():
    code, report = run_report(["fedder", "--session", session_path("ex-node4.json")])
    assert code == 0 and report["results"]["f_pure"] is True
    code, report = run_report(
        ["fpt", "--session", session_path("ex-regular.json"), "--a", "m", "--e-max", "2"]
    )
    assert code == 0
    assert [r["b"] for r in report["results"]["records"]] == [2, 6]


def test_colon_lemma_on_the_determinantal_fixture_passes():
    # the rank test reads degrees <= n_max + 2, so with the session's n_max 4
    # the cone is built through degree 6 only
    code, report = run_report(
        ["check", "--session", session_path("ex-determinantal.json"), "--name", "colon-lemma",
         "--x", "x11"]
    )
    assert code == 0
    assert report["results"]["verdict"] == "pass"
    assert report["results"]["details"] == {"initial_form": "x11"}


def test_colon_lemma_past_the_matrix_bound_is_inconclusive():
    # n_max 14 needs the cone through degree 16: 194113 x 74613 cells, which
    # the check reports instead of allocating
    code, report = run_report(
        ["check", "--session", session_path("ex-determinantal.json"), "--name", "colon-lemma",
         "--x", "x11", "--degree", "14"]
    )
    assert code == 3
    assert report["results"]["verdict"] == "inconclusive"
    assert "194113 x 74613" in report["results"]["details"]["reason"]


@pytest.mark.parametrize(
    "argv,path,value",
    [
        (["hilbert", "--degree", "0"], ("values",), [1]),
        (["check", "--name", "colon-lemma", "--x", "x", "--degree", "0"], ("inputs", "n_max"), "0"),
        (["check", "--name", "monotonicity", "--trials", "0"], ("details", "checked"), 0),
        (["threshold", "--a", "m", "--J", "m", "--max-denominator", "0"], ("guess",), None),
        (["fpt", "--a", "m", "--max-denominator", "0"], ("guess",), None),
        (["ord", "--x", "x", "--degree", "0"], None, RingError),
        (["initial", "--x", "x", "--degree", "0"], None, RingError),
    ],
    ids=["hilbert", "colon-lemma", "monotonicity", "threshold", "fpt", "ord", "initial"],
)
def test_zero_option_is_a_value(argv, path, value):
    # a numeric option given as 0 reaches the library; it is not replaced by
    # the session option or the command default
    argv = argv[:1] + ["--session", session_path("ex-regular.json")] + argv[1:]
    if value is RingError:
        with pytest.raises(RingError):
            run(argv)
        return
    code, report = run_report(argv)
    node = report["results"]
    for key in path:
        node = node[key]
    assert node == value


def test_fpt_e_max_below_one_is_a_usage_error(capsys):
    argv = ["fpt", "--session", session_path("ex-regular.json"), "--a", "m", "--e-max", "0"]
    assert main(argv) == 2
    assert "e_max must be at least 1" in capsys.readouterr().err


def test_superficial_negative_degree_is_a_usage_error(capsys):
    # c_max = -1 tries no c, so a fail verdict would carry no witness
    argv = ["check", "--session", session_path("ex-regular.json"), "--name", "superficial",
            "--x", "x", "--degree", "-1"]
    assert main(argv) == 2
    assert "c_max must be at least 0" in capsys.readouterr().err


# A flag placed before the command (`--session s dim`) is accepted, and so is a
# `--` separator in a session command's argv; every argv below is refused.
@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate", "--session", "SESSION"],
        ["dim"],
        ["report"],
        ["report", "REPORT", "--session", "SESSION"],
        ["report", "REPORT", "--a", "m"],
        ["nu", "REPORT", "--session", "SESSION", "--a", "m", "--J", "m", "--e", "1"],
        ["nu", "--session", "SESSION", "--a", "m", "--J", "m", "--e", "x"],
    ],
    ids=["unknown-command", "no-session", "report-no-path", "report-session", "report-flag",
         "path-after-command", "non-integer"],
)
def test_argv_contract(argv, tmp_path):
    stored = tmp_path / "report.json"
    run(["dim", "--session", session_path("ex-regular.json"), "--out", str(stored)])
    names = {"SESSION": session_path("ex-regular.json"), "REPORT": str(stored)}
    with pytest.raises(UsageError) as err:
        run([names.get(token, token) for token in argv])
    assert str(err.value).startswith("invalid arguments")


# `report` on a file it cannot read or parse is a usage error (exit 2), not a
# traceback with exit 1, which would read as "digest check failed"
@pytest.mark.parametrize(
    "content",
    [None, b"", b'{"report": {', b"\x80{}", b"[1, 2]", b'"report"'],
    ids=["missing", "empty", "truncated", "not-utf8", "list", "string"],
)
def test_unreadable_report_is_a_usage_error(content, tmp_path, capsys):
    stored = tmp_path / "report.json"
    if content is not None:
        stored.write_bytes(content)
    assert main(["report", str(stored)]) == 2
    assert "report file" in json.loads(capsys.readouterr().err)["error"]


def test_report_out_writes_the_document(tmp_path):
    stored, checked = tmp_path / "report.json", tmp_path / "checked.json"
    run(["dim", "--session", session_path("ex-regular.json"), "--out", str(stored)])
    code, document = run(["report", str(stored), "--out", str(checked)])
    assert code == 0 and document["report"]["results"]["digest_ok"]
    assert json.loads(checked.read_text()) == document


def test_flags_before_the_command():
    first = ["dim", "--session", session_path("ex-regular.json")]
    _, canonical = run_report(first)
    code, moved = run_report(first[1:] + first[:1])
    assert code == 0 and moved["results"] == canonical["results"]
