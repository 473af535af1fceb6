"""Command line: exit codes, output shapes, JSON mode."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coherekit.cli import main

MP_DOC = """\
atoms A C H
assess P(A given H) = 1/2
assess P(C given (A given H)) = 1/2
query extend C
"""

OVERCOMMITTED_DOC = MP_DOC.replace("query extend C", "assess P(C) = 9/10")

NESTED_TRIPLE_DOC = """\
atoms A C H
assess P(A given H) = 1/2
assess P(C given (A given H)) = 1/2
assess P(C given (!A given H)) = 1/2
"""


@pytest.fixture
def write(tmp_path):
    def _write(text, name="assessment.cohere"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def test_check_coherent(write, capsys):
    code = main(["check", write(NESTED_TRIPLE_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "coherent"


def test_check_incoherent_with_witness(write, capsys):
    code = main(["check", write(OVERCOMMITTED_DOC)])
    out = capsys.readouterr().out
    assert code == 1
    assert "incoherent" in out
    assert "P(C)" in out


def test_check_json(write, capsys):
    code = main(["check", write(OVERCOMMITTED_DOC), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["coherent"] is False
    assert payload["witness"]["subset"] == [0, 1, 2]


def test_extend_uses_query_target(write, capsys):
    code = main(["extend", write(MP_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower 1/4" in out
    assert "upper 3/4" in out
    assert "certified-by-LP" in out


def test_extend_explicit_target_json(write, capsys):
    code = main(["extend", write(MP_DOC), "--target", "C", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload == {
        "target": "P(C)",
        "lower": "1/4",
        "upper": "3/4",
        "exactness": "certified-by-LP",
    }


def test_extend_without_target_fails(write, capsys):
    doc = MP_DOC.replace("query extend C\n", "")
    code = main(["extend", write(doc)])
    assert code == 2
    assert "target" in capsys.readouterr().err


def test_extend_empty_target_fails(write, capsys):
    """An empty `--target` is an expression that fails to parse, not a
    request for the file's query target."""
    code = main(["extend", write(MP_DOC), "--target="])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected an expression, found 'end of line'" in captured.err


def test_table_empty_target_fails(write, capsys):
    """An empty `--target` is an expression that fails to parse, not a
    request for the family table."""
    code = main(["table", write(MP_DOC), "--target="])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected an expression, found 'end of line'" in captured.err


def test_mp_command(capsys):
    code = main(["mp", "--x", "1/2", "--y", "1/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1/4, 3/4]" in out
    assert "agreed" in out


def test_mp_classical_json(capsys):
    code = main(["mp", "--x", "3/4", "--y", "1/3", "--classical", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["lower"] == "1/4"
    assert payload["upper"] == "1/2"
    assert payload["engine_cross_check"] == "agreed"


def test_mp_rejects_out_of_range(capsys):
    code = main(["mp", "--x", "3/2", "--y", "1/2"])
    assert code == 2
    assert "outside" in capsys.readouterr().err


def test_mp_disagreement_is_an_internal_error(capsys, monkeypatch):
    """A closed form that disagrees with the engine is a bug, not invalid
    input: exit 4, one `internal error:` line, and nothing on stdout."""
    from coherekit import cli
    from coherekit.propagation import ExtensionInterval

    wrong = ExtensionInterval(Fraction(0), Fraction(1), "closed-form")
    monkeypatch.setattr(cli, "mp_bounds", lambda x, y: wrong)
    assert main(["mp", "--x", "1/2", "--y", "1/2", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: closed-form bounds [0, 1] disagree with the engine "
        "[1/4, 3/4] (certified-by-LP)\n"
    )


def test_dutchbook_none(write, capsys):
    code = main(["dutchbook", write(NESTED_TRIPLE_DOC)])
    assert code == 0
    assert "none" in capsys.readouterr().out


def test_dutchbook_found_json(write, capsys):
    code = main(["dutchbook", write(OVERCOMMITTED_DOC), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    book = payload["dutch_book"]
    assert book["subset"] == [0, 1, 2]
    assert len(book["stakes"]) == 3
    assert book["epsilon"] != "0"


def test_table_target_five_rows(write, capsys):
    code = main(
        ["table", write(MP_DOC), "--target", "(C given (A given H))", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["rows"]) == 5
    regions = {row["region"] for row in payload["rows"]}
    assert "A & H & C" in regions
    assert "!A & H" in regions


def test_table_target_seven_rows_for_nested_pair(write, capsys):
    doc = "atoms A B H K\n"
    code = main(
        [
            "table",
            write(doc),
            "--target",
            "((B given K) given (A given H))",
            "--json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["rows"]) == 7


def test_table_target_leaves_out_empty_regions(write, capsys):
    """An unconditional event C is C given TOP, whose called-off region
    !TOP holds no world: its table shows the two rows C and !C."""
    doc = write("atoms C H\n")
    assert main(["table", doc, "--target", "C", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [
        {"region": "C & TOP", "payoff": "1"},
        {"region": "!C & TOP", "payoff": "0"},
    ]
    assert main(["table", doc, "--target", "C"]) == 0
    out = capsys.readouterr().out
    assert out == "payoff table of P(C)\n  x1 = P(C)\n  C & TOP   ->  1\n  !C & TOP  ->  0\n"


def test_table_family_matrix(write, capsys):
    code = main(["table", write(MP_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "x1 = P(A given H)" in out
    assert "called off" in out
    assert "A C H" in out


def test_parse_error_exit_code(write, capsys):
    code = main(["check", write("atoms A\nassess P(A = 1\n")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_impossible_conditioning_exit_code(write, capsys):
    code = main(["check", write("atoms A\nassess P(A given BOT) = 1\n")])
    assert code == 2


def test_missing_file(capsys):
    code = main(["check", "/nonexistent/path.cohere"])
    assert code == 2


def test_non_utf8_document(tmp_path, capsys):
    path = tmp_path / "latin1.cohere"
    path.write_bytes(b"atoms A\nassess P(A) = 1/2 \xff\n")
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_cap_exit_code(write, capsys, monkeypatch):
    monkeypatch.setenv("COHERE_SUBSET_CAP", "2")
    code = main(["check", write(NESTED_TRIPLE_DOC)])
    assert code == 3
    monkeypatch.setenv("COHERE_SUBSET_CAP", "12")
    assert main(["check", write(NESTED_TRIPLE_DOC)]) == 0


def test_non_integer_cap_exit_code(write, capsys, monkeypatch):
    monkeypatch.setenv("COHERE_SUBSET_CAP", "abc")
    assert main(["check", write(NESTED_TRIPLE_DOC)]) == 2
    assert "COHERE_SUBSET_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_non_positive_cap_exit_code(cap, write, capsys, monkeypatch):
    """A cap below 1 is an invalid setting, not a family that exceeds it."""
    monkeypatch.setenv("COHERE_SUBSET_CAP", cap)
    assert main(["check", write("atoms A H\nassess P(A given H) = 1/2\n")]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_zero_denominator_exit_code(write, capsys):
    assert main(["check", write("atoms A\nassess P(A) = 1/0\n")]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["abc", "1/0"])
def test_mp_rejects_malformed_value(x, capsys):
    assert main(["mp", "--x", x, "--y", "1/2"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter reads integers of any length",
)
def test_value_with_too_many_digits_exit_code(write, capsys):
    """int() refuses strings longer than sys.get_int_max_str_digits()
    (4300 by default), in a document value and in `cohere mp`."""
    value = "1/" + "9" * (sys.get_int_max_str_digits() + 700)
    assert main(["check", write(f"atoms A H\nassess P(A given H) = {value}\n")]) == 2
    assert main(["mp", "--x", value, "--y", "1/2"]) == 2
    message = f"value has too many digits ({len(value)} characters)"
    assert capsys.readouterr().err.splitlines() == [
        f"error: 2:23: {message}",
        f"error: {message}",
    ]


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter reads integers of any length",
)
def test_tolerance_with_too_many_digits_exit_code(write, capsys):
    exponent = "9" * (sys.get_int_max_str_digits() + 700)
    for tol in (f"2^-{exponent}", exponent):
        assert main(["extend", write(MP_DOC), "--tol", tol]) == 2
        error = f"error: tolerance exponent has too many digits ({len(exponent)})\n"
        assert capsys.readouterr().err == error


PRODUCT_RULE_DOC = """\
atoms A B H K
assess P(A given H) = 1/2
assess P((B given K) given (A given H)) = 1/3
query extend (A given H) and (B given K)
"""


@pytest.mark.parametrize("doc", [MP_DOC, PRODUCT_RULE_DOC], ids=["lp", "search"])
def test_tolerance_exponent_above_256_exit_code(write, capsys, doc):
    """Bisection to 2^-K takes K steps on ever longer rationals, so K is
    held to 0..256 on every target, whether or not its path reads it."""
    assert main(["extend", write(doc), "--tol", "2^-257"]) == 2
    assert capsys.readouterr().err == "error: tolerance exponent 257 lies outside 0..256\n"
    assert main(["extend", write(doc), "--tol", "2^-256"]) == 0
    assert capsys.readouterr().err == ""


# 1/10^2500: each input value is short enough to read, but the products
# that the commands print have 5001-digit denominators, more than one
# int-to-str conversion allows by default.
LONG = "1/1" + "0" * 2500
LONG_SQUARED = "1/1" + "0" * 5000


def test_mp_prints_long_products(capsys):
    assert main(["mp", "--x", LONG, "--y", LONG]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"conclusion bounds: [{LONG_SQUARED}, ")
    assert main(["mp", "--x", LONG, "--y", LONG, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["x"], payload["lower"]) == (LONG, LONG_SQUARED)
    # x·y + 1 - x = (10^5000 - 10^2500 + 1) / 10^5000
    assert payload["upper"] == "9" * 2500 + "0" * 2499 + "1/1" + "0" * 5000


def test_extend_prints_long_products(write, capsys):
    doc = write(MP_DOC.replace("1/2", LONG))
    assert main(["extend", doc, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lower"] == LONG_SQUARED
    assert main(["extend", doc]) == 0
    assert f"lower {LONG_SQUARED}\n" in capsys.readouterr().out


def test_dutchbook_prints_long_products(write, capsys):
    """P(A|H) = P((B|K)|(A|H)) = 1/10^2500 force the conjunction to
    1/10^5000; at 0 the sure gain is that product."""
    doc = write(
        "atoms A B H K\n"
        f"assess P(A given H) = {LONG}\n"
        f"assess P((B given K) given (A given H)) = {LONG}\n"
        "assess P((A given H) and (B given K)) = 0\n"
    )
    assert main(["dutchbook", doc, "--json"]) == 1
    book = json.loads(capsys.readouterr().out)["dutch_book"]
    assert book["epsilon"] == LONG_SQUARED
    assert main(["dutchbook", doc]) == 1
    assert f"guaranteed gain: {LONG_SQUARED}\n" in capsys.readouterr().out


NESTED_TOO_DEEPLY = {
    "parentheses": "atoms A H\nassess P(" + "(" * 3000 + "A" + ")" * 3000 + " given H) = 1/2\n",
    "negations": "atoms A H\nassess P(" + "!" * 3000 + "A given H) = 1/2\n",
    "conjuncts": "atoms A H\nassess P(" + " & ".join(["A"] * 5000) + " given H) = 1/2\n",
    "definitions": "atoms A H\ndefine D1 = A\n"
    + "".join(f"define D{k} = D{k - 1} & A\n" for k in range(2, 1501))
    + "assess P(D1500 given H) = 1/2\n",
}


@pytest.mark.parametrize("command", ["check", "dutchbook", "table"])
@pytest.mark.parametrize("shape", sorted(NESTED_TOO_DEEPLY))
def test_deeply_nested_input_exit_code(shape, command, write, capsys):
    """Only expressions, events and definitions recurse with the depth of
    the input; too deep a nesting is invalid input, not an internal error."""
    assert main([command, write(NESTED_TOO_DEEPLY[shape])]) == 2
    assert capsys.readouterr().err == "error: the input is nested too deeply\n"


def test_extend_point_interval_from_a_partition(write, capsys):
    doc = "atoms A B\nassess P(A & B) = 1/7\nassess P(A & !B) = 1/7\nquery extend A\n"
    assert main(["extend", write(doc), "--json"]) == 0
    out = capsys.readouterr().out
    assert '"lower": "2/7"' in out
    assert json.loads(out)["upper"] == "2/7"


class TamperingMissed(BaseException):
    """A tamper helper left the result it changed as it was.  Not an
    `Exception`, so that neither the library nor `cli.main` turns it into
    the internal error that the tests expect from a failed re-check."""


def _changed(result, corrupted):
    """`corrupted`, which must differ from `result`; the check raises,
    not asserts, because `python -O` strips assert statements."""
    if corrupted == result:
        raise TamperingMissed(result)
    return corrupted


def _corrupted(simplex_minimize):
    """The simplex with the right status and doubled, wrong weights: the
    numerators of each objective's solution doubled over the same
    denominator.  It takes and passes on every keyword of the real one,
    so that a call the library makes cannot fail on the signature."""

    def corrupted(matrix, rhs, costs, multipliers=False, further=()):
        result = simplex_minimize(matrix, rhs, costs, multipliers=multipliers, further=further)
        results = list(result) if further else [result]
        for index, (status, solution, *rest) in enumerate(results):
            if solution is None:
                continue
            numerators, denominator = solution
            doubled = ([2 * w for w in numerators], denominator)
            results[index] = _changed(results[index], (status, doubled, *rest))
        return results if further else results[0]

    return corrupted


def test_failed_certificate_exits_internal_error(write, capsys, monkeypatch):
    from coherekit import linprog

    monkeypatch.setattr(linprog, "simplex_minimize", _corrupted(linprog.simplex_minimize))
    assert main(["check", write(NESTED_TRIPLE_DOC)]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("internal error:")
    assert "exact re-check" in err
    assert "\n" not in err


def test_certificate_check_survives_optimization(write):
    """`python -O` strips assert statements; the re-checks must still fire."""
    script = (
        "import sys\n"
        "from coherekit import cli, linprog\n"
        "from test_cli import _corrupted\n"
        "linprog.simplex_minimize = _corrupted(linprog.simplex_minimize)\n"
        "sys.exit(cli.main(['check', sys.argv[1]]))\n"
    )
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, write(NESTED_TRIPLE_DOC)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert "internal error" in done.stderr
    assert "exact re-check" in done.stderr


def _corrupted_multipliers(simplex_minimize, objective=0):
    """The simplex with the right status and solution and wrong row
    multipliers for the objective numbered `objective` of each system
    that asks for them (0 for `costs`, then those of `further`): duals
    shifted by one (each numerator by its denominator), Farkas vectors
    negated.  A system with fewer objectives is left as it is."""

    def corrupted(matrix, rhs, costs, multipliers=False, further=()):
        result = simplex_minimize(matrix, rhs, costs, multipliers=multipliers, further=further)
        if not multipliers or objective > len(further):
            return result
        results = list(result) if further else [result]
        status, solution, value, pi = results[objective]
        if status == "unbounded":
            return result
        numerators, denominator = pi
        if status == "optimal":
            numerators = [p + denominator for p in numerators]
        else:
            numerators = [-p for p in numerators]
        results[objective] = _changed(
            results[objective], (status, solution, value, (numerators, denominator))
        )
        return results if further else results[0]

    return corrupted


@pytest.mark.parametrize(
    "command, doc, objective",
    [("extend", MP_DOC, 0), ("check", OVERCOMMITTED_DOC, 0), ("extend", MP_DOC, 1)],
    ids=["endpoint", "separator", "upper-endpoint"],
)
def test_multiplier_checks_survive_optimization(write, command, doc, objective):
    """Interval endpoints, both of the one system that solves them, and
    incoherent verdicts are re-checked with their LP multipliers under
    `python -O` too."""
    script = (
        "import sys\n"
        "from coherekit import cli, linprog\n"
        "from test_cli import _corrupted_multipliers\n"
        "real = linprog.simplex_minimize\n"
        "linprog.simplex_minimize = _corrupted_multipliers(real, int(sys.argv[3]))\n"
        "sys.exit(cli.main([sys.argv[1], sys.argv[2]]))\n"
    )
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, command, write(doc), str(objective)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert "internal error" in done.stderr
    assert "fails its exact re-check" in done.stderr


def _fresh_process(argv):
    """Exit code and standard output of `cohere ARGV` in a new interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "coherekit.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout


def test_consecutive_calls_match_fresh_processes(write, capsys):
    """The parser is built once per process, and each call of `main` still
    reads only its own arguments: a flag or option of one call (`--json`,
    `--target`, `--classical`) does not carry over to the next, whatever
    the subcommand."""
    mp = write(MP_DOC)
    calls = [
        ["extend", mp, "--target", "C given A", "--json"],
        ["extend", mp],
        ["check", mp, "--json"],
        ["check", mp],
        ["table", mp, "--target", "C"],
        ["table", mp, "--json"],
        ["mp", "--x", "1/3", "--y", "2/5", "--classical", "--json"],
        ["mp", "--x", "1/3", "--y", "2/5"],
    ]
    for argv in calls:
        code = main(argv)
        assert (code, capsys.readouterr().out) == _fresh_process(argv), argv


# -- pinned outputs -------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "cli_output"
GOLDEN_DOCS = {
    "mp": MP_DOC,
    "overcommitted": OVERCOMMITTED_DOC,
    "nested": NESTED_TRIPLE_DOC,
    "product": PRODUCT_RULE_DOC,
}
GOLDEN_COMMANDS = {
    "check": ["check", "FILE"],
    "dutchbook": ["dutchbook", "FILE"],
    "extend": ["extend", "FILE"],
    "table": ["table", "FILE"],
    "table-target": ["table", "FILE", "--target", "(C given (A given H))"],
}
# The exit code of each command on each document, in the order of
# GOLDEN_COMMANDS; the `--json` form exits as the text form does.
GOLDEN_EXITS = {
    "mp": (0, 0, 0, 0, 0),
    "overcommitted": (1, 1, 2, 0, 0),
    "nested": (0, 0, 2, 0, 0),
    "product": (0, 0, 0, 0, 2),
}
GOLDEN_CASES = [
    (f"{doc}-{command}", doc, argv, code)
    for doc, codes in GOLDEN_EXITS.items()
    for (command, argv), code in zip(GOLDEN_COMMANDS.items(), codes)
] + [
    ("mp-x1_3-y3_4", None, ["mp", "--x", "1/3", "--y", "3/4"], 0),
    ("mp-x1_3-y3_4-classical", None, ["mp", "--x", "1/3", "--y", "3/4", "--classical"], 0),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "name, doc, argv, code", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_output_is_pinned(name, doc, argv, code, as_json, write, capsys):
    """Every command prints exactly its recorded standard output, kept in
    `tests/cli_output/<case>.txt`, in the text form and the `--json` form."""
    if doc is not None:
        argv = [write(GOLDEN_DOCS[doc]) if arg == "FILE" else arg for arg in argv]
    if as_json:
        argv, name = argv + ["--json"], name + "-json"
    assert main(argv) == code
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
