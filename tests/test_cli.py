"""CLI surface: subcommands, formats, exit codes, pipelining."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from speclap import cli, designs, nlspec
from speclap.cli import build_parser, main
from speclap.families import parse_family
from speclap.graph import from_graph6
from speclap.linalg import format_value
from speclap.nlspec import l_spectrum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def fresh(*argv):
    """Exit code, stdout and stderr of `python -m speclap argv` in a new
    interpreter, with SPECLAP_TOL unset and runtime warnings as errors."""
    import speclap

    src = os.path.dirname(os.path.dirname(speclap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("SPECLAP_TOL", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "speclap", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- spectrum / construct -------------------------------------------------


def test_spectrum_family_token(capsys):
    code, out, _ = run(capsys, "spectrum", "K4")
    assert code == 0
    assert out.strip() == "1.333333333^3, " + format_value(
        l_spectrum(parse_family("K4")).values[-1]
    )
    # rounding noise on the zero eigenvalue prints as 0
    code, out, _ = run(capsys, "spectrum", "P4")
    assert (code, out) == (0, "2, 1.5, 0.5, 0\n")


def test_spectrum_paper_precision(capsys):
    code, out, _ = run(capsys, "spectrum", "U2:1", "--paper-precision")
    assert code == 0
    assert out.strip() == "1.7287, 1.5000, 0.7713, 0.0000"


def test_spectrum_json_and_adjacency(capsys):
    code, out, _ = run(capsys, "spectrum", "C4", "--format", "json", "--adjacency")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["l_spectrum"]["pairs"][0][0] == pytest.approx(2.0)
    assert data["adjacency_spectrum"]["pairs"][0][0] == pytest.approx(2.0)


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "K4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value,multiplicity"
    assert lines[1] == "1.333333333,3"


def test_spectrum_from_stdin_lines(capsys, monkeypatch):
    from speclap.graph import to_graph6
    from speclap.families import cycle, path

    feed(monkeypatch, to_graph6(cycle(4)) + "\n" + to_graph6(path(3)) + "\n")
    code, out, _ = run(capsys, "spectrum", "--paper-precision")
    assert code == 0
    assert out.strip().split("\n") == ["2.0000, 1.0000^2, 0.0000", "2.0000, 1.0000, 0.0000"]


def test_construct_graph6_default(capsys):
    code, out, _ = run(capsys, "construct", "C5")
    assert code == 0
    assert from_graph6(out.strip()) == parse_family("C5")


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "P3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and sorted(map(tuple, data["edges"])) == [(0, 1), (1, 2)]


def test_construct_text(capsys):
    code, out, _ = run(capsys, "construct", "K3", "--format", "text")
    assert code == 0
    assert "n=3" in out and "(0,1)" in out


FAMILY_TOKENS = [
    "K2",
    "K5",
    "Kmulti:2,3",
    "Kmulti:2,2,2",
    "Kmulti:1,1,4",
    "C3",
    "C6",
    "P2",
    "P5",
    "U1",
    "U2:2",
    "U3:1,2",
    "U4:1,1,1",
    "U5:1",
    "U6:2,1",
    "U7",
    "U8:1",
    "U9:1,1",
    "U10",
    "U11:1",
    "U12:1,2",
    "U13",
    "U14",
    "thm41:1",
    # 63 and 64 vertices: graph6 with the '~' order header
    "U4:20,20,20",
    "thm41:8",
]


@pytest.mark.parametrize("token", FAMILY_TOKENS)
def test_construct_spectrum_round_trip(token, capsys, monkeypatch):
    """Piping construct into spectrum matches the in-process spectrum."""
    code, out, _ = run(capsys, "construct", token)
    assert code == 0
    feed(monkeypatch, out)
    code, piped, _ = run(capsys, "spectrum")
    assert code == 0
    direct = l_spectrum(parse_family(token))
    expected = ", ".join(
        format_value(v) if m == 1 else f"{format_value(v)}^{m}" for v, m in direct.pairs
    )
    assert piped.strip() == expected


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "out.g6"
    code, out, _ = run(capsys, "construct", "C4", "-o", str(target))
    assert code == 0 and out == ""
    assert from_graph6(target.read_text().strip()) == parse_family("C4")
    # an existing file is replaced whole, through a symlink to it
    link = tmp_path / "link.g6"
    link.symlink_to(target)
    code, _, _ = run(capsys, "construct", "K3", "-o", str(link))
    assert code == 0 and link.is_symlink()
    assert from_graph6(target.read_text().strip()) == parse_family("K3")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.g6", "out.g6"]


def test_output_failures_are_io_errors_leaving_no_temp_file(capsys, tmp_path):
    (tmp_path / "dir").mkdir()
    for target in [tmp_path / "missing" / "out.g6", tmp_path / "dir", f"{tmp_path}/new/"]:
        code, out, err = run(capsys, "construct", "C4", "-o", str(target))
        assert (code, out) == (3, ""), target
        assert err.startswith("error: [Errno") and err.rstrip().endswith(f"'{target}'")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_output_write_failure_leaves_old_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "out.g6"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, "construct", "C4", "-o", str(target))
    assert code == 3 and "No space left" in err and str(target) in err
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.g6"]


HUGE_TOKENS = [
    "K99999999",
    "Kmulti:1,99999999",
    "C99999999",
    "P99999999",
    "U2:99999999",
    "U4:1,1,99999999",
    "U6:99999999,1",
    "thm41:1024",
    "thm41:9",  # 72 vertices: the first t past the cap
    # more digits than int() reads by default
    pytest.param("K" + "9" * 5000, id="K-5000-digits"),
    pytest.param("U4:1,1," + "9" * 5000, id="U4-5000-digits"),
    pytest.param("C" + "0" * 5000 + "65", id="C-5000-zeros"),
]


@pytest.mark.parametrize("token", HUGE_TOKENS)
def test_huge_family_token_is_refused_before_building(token, capsys):
    # every command that reads a graph token names the cap
    for argv in (("construct", token), ("spectrum", token), ("verify", "lemma22", token)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, ""), argv
        assert "vertex count must be in [0, 64]" in err, argv


@pytest.mark.parametrize(
    "token, message",
    [
        ("U4:1", "U4 takes 3 parameter(s), got 1"),
        ("thm41:0", "t must be >= 1"),
        ("U99", "unknown unicyclic family 'U99'"),
        ("Kmulti:0,3", "part sizes must be positive"),
        ("zzz", "cannot read 'zzz' as a family name or graph6 string"),
    ],
)
def test_family_token_errors_name_the_family_fault(token, message, capsys):
    """A token of a family's form that the family cannot build gets the
    family's own error; a token of no family's form gets the generic one."""
    for argv in (("spectrum", token), ("verify", "lemma22", token)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_graph_tokens_decode_as_family_then_graph6():
    assert cli._graph_from_token("P4") == parse_family("P4")
    g6 = "E?Bw"  # a graph6 string that is no family name
    assert cli._graph_from_token(g6) == from_graph6(g6)


# -- hadamard / design ----------------------------------------------------


def test_hadamard_sylvester_text(capsys):
    code, out, _ = run(capsys, "hadamard", "--method", "sylvester", "--order", "4")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "++++"
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)


def test_hadamard_paley_json(capsys):
    code, out, _ = run(capsys, "hadamard", "--method", "paley1", "--q", "7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8 and len(data["rows"]) == 8


def test_hadamard_check_round_trip(capsys, monkeypatch):
    code, out, _ = run(capsys, "hadamard", "--method", "paley2", "--q", "5")
    feed(monkeypatch, out)
    code, out, _ = run(capsys, "hadamard", "--check")
    assert code == 0
    assert json.loads(out) == {"hadamard": True, "order": 12, "normalized": False}


def test_hadamard_check_rejects_non_hadamard(capsys, monkeypatch):
    feed(monkeypatch, "++\n++\n")
    code, out, _ = run(capsys, "hadamard", "--check")
    assert code == 1
    assert json.loads(out)["hadamard"] is False


def test_hadamard_normalize_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "hadamard", "--method", "paley1", "--q", "3")
    feed(monkeypatch, out)
    code, out, _ = run(capsys, "hadamard", "--normalize")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "++++" and all(r[0] == "+" for r in rows)


def test_hadamard_usage_errors(capsys):
    code, _, err = run(capsys, "hadamard", "--method", "sylvester")
    assert code == 2 and "order" in err
    code, _, err = run(capsys, "hadamard", "--method", "paley1", "--q", "8")
    assert code == 2
    code, _, err = run(capsys, "hadamard", "--method", "sylvester", "--order", "12")
    assert code == 2


def test_hadamard_order_cap(capsys, monkeypatch):
    # at the cap: built, printed and checked
    code, out, _ = run(capsys, "hadamard", "--method", "sylvester", "--order", "512")
    assert code == 0 and len(out.split()) == 512
    feed(monkeypatch, out)
    code, checked, _ = run(capsys, "hadamard", "--check")
    assert (code, json.loads(checked)["order"]) == (0, 512)
    # one past the cap, for each route in; --check too, as no verdict is given
    feed(monkeypatch, "\n".join(["+" * 513] * 513))
    for argv in [
        ("--method", "sylvester", "--order", "1024"),
        ("--method", "paley1", "--q", "523"),  # order 524
        ("--method", "paley2", "--q", "257"),  # order 516
        ("--method", "paley1", "--q", str(10**18 + 3)),
        ("--check",),
    ]:
        code, out, err = run(capsys, "hadamard", *argv)
        assert (code, out) == (2, ""), argv
        assert "exceeds 512" in err, argv


def test_design_to_design_example(capsys, monkeypatch):
    code, out, _ = run(capsys, "hadamard", "--method", "paley1", "--q", "7")
    feed(monkeypatch, out)
    code, out, _ = run(capsys, "design", "--to-design")
    assert code == 0
    assert out.strip() == "2-(7, 3, 1) design, symmetric"


def test_design_json_complement_validate_pipeline(capsys, monkeypatch):
    code, h_out, _ = run(capsys, "hadamard", "--method", "sylvester", "--order", "8")
    feed(monkeypatch, h_out)
    code, d_out, _ = run(capsys, "design", "--to-design", "--format", "json")
    assert code == 0
    feed(monkeypatch, d_out)
    code, c_out, _ = run(capsys, "design", "--complement", "--format", "json")
    assert code == 0
    comp = json.loads(c_out)
    assert (comp["v"], comp["k"], comp["lambda"]) == (7, 4, 2)
    feed(monkeypatch, c_out)
    code, v_out, _ = run(capsys, "design", "--validate")
    assert code == 0
    report = json.loads(v_out)
    assert report["valid"] and report["symmetric"]


def test_design_incidence_graph_pipes_to_spectrum(capsys, monkeypatch):
    code, h_out, _ = run(capsys, "hadamard", "--method", "paley1", "--q", "7")
    feed(monkeypatch, h_out)
    code, d_out, _ = run(capsys, "design", "--to-design", "--format", "json")
    feed(monkeypatch, d_out)
    code, g_out, _ = run(capsys, "design", "--incidence-graph")
    assert code == 0
    g = from_graph6(g_out.strip())
    assert g.n == 14
    feed(monkeypatch, g_out)
    code, s_out, _ = run(capsys, "spectrum", "--adjacency", "--paper-precision")
    assert code == 0
    assert "3.0000" in s_out and "-3.0000" in s_out


def test_design_validate_bad_json(capsys, monkeypatch):
    feed(monkeypatch, '{"v": 2, "b": 1, "r": 1, "k": 1, "lambda": 0, "incidence": ["10", "01"]}')
    code, out, _ = run(capsys, "design", "--validate")
    assert code == 1
    assert json.loads(out)["valid"] is False
    # malformed JSON shapes: invalid for --validate, usage errors otherwise
    for text in ["5", "[null]", '{"incidence": [1, 2]}', '{"incidence": [null]}']:
        feed(monkeypatch, text)
        code, out, _ = run(capsys, "design", "--validate")
        assert code == 1 and json.loads(out)["valid"] is False, text
        for action in ("--complement", "--incidence-graph"):
            feed(monkeypatch, text)
            code, _, err = run(capsys, "design", action)
            assert code == 2 and err.startswith("error:"), (text, action)


def test_design_json_size_is_capped(capsys, monkeypatch):
    """An incidence matrix over MAX_HADAMARD_ORDER rows or columns is refused
    before the matrix is built: invalid for --validate, a usage error for
    the other actions.  512 rows pass the cap."""
    cap = designs.MAX_HADAMARD_ORDER
    over = [["1" * 3] * (cap + 1), ["1" * (cap + 1)] * 3]
    for rows in over:
        text = json.dumps({"incidence": rows})
        feed(monkeypatch, text)
        code, out, _ = run(capsys, "design", "--validate")
        assert code == 1
        assert json.loads(out) == {
            "valid": False,
            "error": f"incidence matrix exceeds {cap} rows or columns",
        }
        for action in ("--complement", "--incidence-graph"):
            feed(monkeypatch, text)
            code, _, err = run(capsys, "design", action)
            assert code == 2 and "exceeds" in err, action
    feed(monkeypatch, json.dumps({"incidence": ["1" * 3] * cap}))
    code, out, _ = run(capsys, "design", "--validate")
    assert code == 0 and json.loads(out)["v"] == cap


def test_design_requires_exactly_one_action(capsys, monkeypatch):
    feed(monkeypatch, "")
    code, _, err = run(capsys, "design")
    assert code == 2 and "exactly one" in err
    feed(monkeypatch, "")
    code, _, err = run(capsys, "design", "--to-design", "--validate")
    assert code == 2


# -- verify ----------------------------------------------------------------


def test_verify_thm41(capsys):
    code, out, _ = run(capsys, "verify", "thm41", "--t", "2")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == "thm41:2"
    assert data["report"]["pass"] is True


def test_verify_thm41_requires_t(capsys):
    code, _, err = run(capsys, "verify", "thm41")
    assert code == 2 and "--t" in err
    code, _, err = run(capsys, "verify", "lemma22", "C4", "--t", "1")
    assert code == 2


def test_verify_each_suite_on_fitting_graph(capsys):
    fitting = {
        "lemma22": "C6",
        "eq1": "K4",
        "three-ev": "Kmulti:2,2,2",
        "four-ev": "P4",
        "lemma23": "Kmulti:2,3",
        "lemma24": "C5",
        "thm21": "Kmulti:3,3",
        "cor21": "Kmulti:2,3",
        "cor20": "C5",
        "bipartite-factorization": "Kmulti:2,3",
    }
    for suite, token in fitting.items():
        code, out, _ = run(capsys, "verify", suite, token)
        assert code == 0, (suite, token)
        data = json.loads(out)
        assert data["report"]["pass"] is True, (suite, token)
        assert data["report"]["applicable"] is True, (suite, token)


def test_verify_inapplicable_is_success(capsys):
    for suite, token in [
        ("lemma24", "P5"),
        ("bipartite-factorization", "C5"),
        ("bipartite-factorization", "?"),  # the empty graph
    ]:
        code, out, _ = run(capsys, "verify", suite, token)
        assert code == 0, suite
        assert json.loads(out)["report"]["applicable"] is False, suite


def test_verify_eq1_on_k1_is_inapplicable_strict_json(capsys):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    code, out, err = run(capsys, "verify", "eq1", "@")
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=reject)["report"]
    assert report["applicable"] is False
    assert report["results"][0]["witness"]["reason"] == "needs at least one edge"


def test_verify_eq1_without_zero_cluster_is_inapplicable(capsys):
    # at --tol 0.5 the zero eigenvalue of P5 merges with its neighbours
    code, out, err = run(capsys, "verify", "eq1", "P5", "--tol", "0.5")
    assert code == 0 and err == ""
    report = json.loads(out)["report"]
    assert report["applicable"] is False
    assert report["results"][0]["check"] == "precondition"


def test_verify_tol_reaches_suite(capsys, monkeypatch):
    # at --tol 0.8 C5 clusters to two values, so it is no 3-value graph
    code, out, _ = run(capsys, "verify", "three-ev", "C5", "--tol", "0.8")
    assert code == 0
    assert json.loads(out)["report"]["applicable"] is False
    monkeypatch.setenv("SPECLAP_TOL", "0.8")
    code, out2, _ = run(capsys, "verify", "three-ev", "C5")
    assert (code, out2) == (0, out)


def test_verify_suite_choices_are_the_registry():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert set(suite.choices) == set(nlspec.SUITES) | {"thm41"}


def test_verify_multiple_graphs_from_stdin(capsys, monkeypatch):
    from speclap.graph import to_graph6

    lines = "\n".join(to_graph6(parse_family(t)) for t in ["C4", "C6", "P5"])
    feed(monkeypatch, lines + "\n")
    code, out, _ = run(capsys, "verify", "lemma22")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 3
    assert all(entry["report"]["pass"] for entry in data)


def test_verify_rejects_disconnected_for_eq1(capsys, monkeypatch):
    feed(monkeypatch, "A?\n")  # two isolated vertices
    code, _, err = run(capsys, "verify", "eq1")
    assert code == 2 and "connected" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma99", "C4"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- one parser per process -------------------------------------------------


def test_main_reuses_one_parser(capsys, monkeypatch):
    run(capsys, "construct", "C4")  # builds the parser if no call has yet

    def refuse():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for argv in [
        ("spectrum", "P4"),
        ("construct", "K3", "--format", "json"),
        ("hadamard", "--method", "sylvester", "--order", "4"),
        ("verify", "lemma22", "C6"),
        ("enumerate", "--scan", "connected", "--nmax", "3"),
    ]:
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
    monkeypatch.undo()
    assert build_parser() is not build_parser()


def test_no_state_leaks_between_calls(capsys, monkeypatch):
    code, default, _ = fresh("verify", "three-ev", "C5")
    assert code == 0 and json.loads(default)["report"]["applicable"] is True
    code, coarse, _ = run(capsys, "verify", "three-ev", "C5", "--tol", "0.8")
    assert json.loads(coarse)["report"]["applicable"] is False
    assert run(capsys, "verify", "three-ev", "C5") == (0, default, "")
    # SPECLAP_TOL is read on every call, not once
    monkeypatch.setenv("SPECLAP_TOL", "0.8")
    assert run(capsys, "verify", "three-ev", "C5") == (0, coarse, "")
    monkeypatch.delenv("SPECLAP_TOL")
    assert run(capsys, "verify", "three-ev", "C5") == (0, default, "")
    # a usage error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma99", "C4"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "verify", "lemma22", "C6") == fresh("verify", "lemma22", "C6")


VALUES = [
    "K4", "C5", "P4", "U2:1", "Kmulti:2,3", "thm41:1", "@", "C~", "1e-3", "nan",
    "distinct:3", "distinct-with-one:3",
]
LINES = ["++", "+-", "-+", "--", '{"incidence": ["110", "011", "101"]}', "[1]", "C~", "Bw", "@", "DQc"]
# no "/": every path the property makes up is relative, inside its own
# temporary directory
GARBAGE = st.text(st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)), max_size=12)
VALUE = (st.sampled_from(VALUES) | st.integers(-3, 5).map(str) | GARBAGE).filter(
    lambda tok: not tok.startswith(("-h", "--h"))  # --help exits 0 by design
)


def _arg(action):
    """Tokens for one argument of a subcommand: a switch alone, or a value
    (one of its choices or any VALUE) after its flag, if it has one."""
    if action.nargs == 0:
        return st.just([action.option_strings[0]])
    value = VALUE | st.sampled_from(list(action.choices)) if action.choices else VALUE
    return value.map(lambda v: [*action.option_strings[:1], v])


def _command_argv(name, parser):
    args = [a for a in parser._actions if a.dest != "help"]
    # the scans' default orders take seconds; start from small ones
    head = [name, "--nmax", "4", "--n", "4"] if name == "enumerate" else [name]
    return st.lists(st.sampled_from(args).flatmap(_arg), max_size=4).map(
        lambda parts: head + [tok for part in parts for tok in part]
    )


SUBCOMMANDS = next(a for a in build_parser()._actions if a.dest == "command").choices
ARGV = st.one_of(
    st.lists(VALUE, max_size=4),
    *(_command_argv(name, parser) for name, parser in SUBCOMMANDS.items()),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV, lines=st.lists(st.sampled_from(LINES) | GARBAGE, max_size=4))
def test_garbage_input_never_escapes_as_a_traceback(argv, lines):
    out, err = io.StringIO(), io.StringIO()
    old_stdin, old_cwd = sys.stdin, os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        try:
            sys.stdin = io.StringIO("\n".join(lines))
            os.chdir(work)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, lines, err.getvalue())
        else:
            assert code in (0, 1, 2, 3), (argv, lines)
        finally:
            sys.stdin = old_stdin
            os.chdir(old_cwd)


# -- enumerate ---------------------------------------------------------------


def test_enumerate_connected_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--scan", "connected", "--nmax", "4")
    assert code == 0
    data = json.loads(out)
    assert data["scan"] == "connected"
    assert data["counts"]["4"]["connected"] == 38
    assert len(data["hits"]) == 3  # P3; K_{1,3} and C4
    code, out, _ = run(
        capsys, "enumerate", "--scan", "connected", "--nmax", "4", "--format", "csv"
    )
    rows = out.strip().split("\n")[1:]
    c4 = [r for r in rows if list(from_graph6(r.split(",")[1]).degrees()) == [2] * 4]
    assert len(c4) == 1 and c4[0].endswith(",2:1 1:2 0:1")


def test_enumerate_unicyclic_csv(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--scan",
        "unicyclic",
        "--param-max",
        "8",
        "--predicate",
        "distinct:3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,graph6,distinct_count,spectrum"
    assert len(lines) == 3  # C4 and C5


def test_enumerate_unicyclic_param_max_is_bounded(capsys):
    # U4(21,21,21) would have 66 vertices
    code, out, err = run(capsys, "enumerate", "--scan", "unicyclic", "--param-max", "21")
    assert code == 2 and out == ""
    assert "param_max must be in 1..20" in err


def test_enumerate_jobs_deterministic(capsys):
    # --jobs is accepted and ignored
    code, serial, _ = run(capsys, "enumerate", "--scan", "connected", "--nmax", "5")
    code, parallel, _ = run(
        capsys, "enumerate", "--scan", "connected", "--nmax", "5", "--jobs", "2"
    )
    assert serial == parallel


def test_enumerate_bipartite_pendant_fixed_predicate(capsys):
    code, out, _ = run(capsys, "enumerate", "--scan", "bipartite-pendant", "--n", "4")
    assert code == 0
    assert len(json.loads(out)["hits"]) == 1
    code, _, err = run(
        capsys,
        "enumerate",
        "--scan",
        "bipartite-pendant",
        "--n",
        "4",
        "--predicate",
        "distinct:3",
    )
    assert code == 2 and "fixed predicate" in err


# -- tolerances and error mapping -------------------------------------------


def test_cluster_tol_flag_and_env(capsys, monkeypatch):
    # a coarse tolerance merges 0 with 0.691^2 on C5, leaving two clusters
    code, out, _ = run(capsys, "spectrum", "C5", "--tol", "0.75")
    assert code == 0
    assert len(out.strip().split(", ")) == 2
    monkeypatch.setenv("SPECLAP_TOL", "0.75")
    code, out2, _ = run(capsys, "spectrum", "C5")
    assert out2 == out
    # --tol wins over the environment
    monkeypatch.setenv("SPECLAP_TOL", "1e-6")
    code, out3, _ = run(capsys, "spectrum", "C5", "--tol", "0.75")
    assert out3 == out
    # a tolerance that is not positive and finite is a usage error for
    # every command that clusters, whether or not the suite reads it
    for argv in [
        ("verify", "lemma22", "Kmulti:2,3"),
        ("verify", "thm21", "Kmulti:2,3"),
        ("spectrum", "C5"),
        ("enumerate", "--scan", "connected", "--nmax", "3"),
    ]:
        for bad in ["-1", "0", "nan", "inf"]:
            code, out, err = run(capsys, *argv, "--tol", bad)
            assert (code, out) == (2, ""), (argv, bad)
            assert "--tol must be positive" in err
    for bad in ["-1", "nan", "inf"]:
        monkeypatch.setenv("SPECLAP_TOL", bad)
        code, _, err = run(capsys, "spectrum", "C5")
        assert code == 2 and "SPECLAP_TOL" in err, bad


def test_module_entry_point_runs_without_warnings():
    import speclap

    src = os.path.dirname(os.path.dirname(speclap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "speclap.cli", "spectrum", "P4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_entry_point_runs_without_warnings():
    code, out, err = fresh("spectrum", "P4")
    assert (code, out, err) == (0, "2, 1.5, 0.5, 0\n", "")


def test_unreadable_token_is_usage_error(capsys):
    for token in ("ZZZ:9", "X65"):
        code, _, err = run(capsys, "spectrum", token)
        assert code == 2 and "family name or graph6" in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "spectrum", "--file", "/nonexistent/path.g6")
    assert code == 3


def test_empty_stdin_is_usage_error(capsys, monkeypatch):
    feed(monkeypatch, "")
    code, _, err = run(capsys, "spectrum")
    assert code == 2 and "no input" in err
