import contextlib
import io
import json
import signal
import sys
import time
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from katsura.cli import build_parser, main
from katsura.decisions import analyze
from katsura.errors import LETTER_BUDGET
from katsura.parsing import NESTING_LIMIT, format_group, parse_matrix_file

E1_DOC = '{"N": 2, "A": [[2,1],[1,2]], "B": [[1,1],[1,1]]}'
D2_DOC = '{"N": 1, "A": [[2]], "B": [[1]]}'
FLIP_DOC = '{"N": 2, "A": [[0,1],[1,0]], "B": [[0,1],[1,0]]}'


@pytest.fixture
def e1_file(tmp_path):
    p = tmp_path / "e1.json"
    p.write_text(E1_DOC)
    return str(p)


@pytest.fixture
def d2_file(tmp_path):
    p = tmp_path / "d2.json"
    p.write_text(D2_DOC)
    return str(p)


def run(capsys, *argv):
    # a bad command line exits from inside argument parsing, with the code a
    # shell would see
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys, e1_file):
        code, out, _ = run(capsys, "validate", e1_file)
        assert code == 0 and out.strip() == "ok"

    def test_condition_0_violation(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"N":1,"A":[[0]],"B":[[0]]}')
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        payload = json.loads(err)
        assert payload["kind"] == "validation"
        assert "row 1 of A is zero" in payload["message"]

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"N": ')
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2
        assert json.loads(err)["kind"] == "parse"


class TestAnalyze:
    def test_text_report(self, capsys, e1_file):
        code, out, _ = run(capsys, "analyze", e1_file)
        assert code == 0
        assert "simple" in out and "yes" in out

    def test_json_report(self, capsys, e1_file):
        code, out, _ = run(capsys, "analyze", e1_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["simple"]["value"] == "yes"
        assert doc["purely_infinite_simple"]["value"] == "yes"
        assert doc["kgroups"] == {"k0": "Z", "k1": "Z"}
        assert all("reasons" in v for k, v in doc.items() if k not in ("kgroups", "notes"))

    @pytest.mark.parametrize("doc", [E1_DOC, '{"N": 2, "A": [[2,1],[1,2]], "B": [[1,0],[0,1]]}'])
    def test_json_bytes_match_dataclass_fields(self, capsys, tmp_path, doc):
        # the report built field by field, with reasons from dataclasses.asdict;
        # the second pair lacks condition E, so it carries unknown verdicts
        report = analyze(parse_matrix_file(doc))
        expected = {
            name: {"value": v.value, "reasons": [asdict(r) for r in v.reasons]}
            for name, v in report.verdict_fields().items()
        }
        expected["kgroups"] = {"k0": format_group(report.kgroups.k0), "k1": format_group(report.kgroups.k1)}
        if report.notes:
            expected["notes"] = list(report.notes)
        p = tmp_path / "pair.json"
        p.write_text(doc)
        code, out, _ = run(capsys, "analyze", str(p), "--json")
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_simple_no(self, capsys, tmp_path):
        p = tmp_path / "flip.json"
        p.write_text(FLIP_DOC)
        code, out, _ = run(capsys, "analyze", str(p), "--json")
        assert code == 0
        assert json.loads(out)["simple"]["value"] == "no"

    def test_cap_flags_removed(self, capsys, e1_file):
        with pytest.raises(SystemExit):
            main(["analyze", e1_file, "--depth-cap", "8"])
        with pytest.raises(SystemExit):
            main(["analyze", e1_file, "--probe-l", "2"])
        capsys.readouterr()

    def test_strict_unknown_exit(self, capsys, tmp_path):
        p = tmp_path / "b0.json"
        p.write_text('{"N":1,"A":[[2]],"B":[[0]]}')
        code, out, _ = run(capsys, "analyze", str(p), "--strict")
        assert code == 3
        code, _, _ = run(capsys, "analyze", str(p))
        assert code == 0


class TestKGroups:
    def test_text(self, capsys, e1_file):
        code, out, _ = run(capsys, "kgroups", e1_file)
        assert code == 0
        assert "K0 = Z" in out and "K1 = Z" in out

    def test_json_cuntz(self, capsys, tmp_path):
        p = tmp_path / "o3.json"
        p.write_text('{"N":1,"A":[[3]],"B":[[0]]}')
        code, out, _ = run(capsys, "kgroups", str(p), "--json")
        assert code == 0
        assert json.loads(out) == {"k0": "Z/2", "k1": "0"}


class TestRealize:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "realize", "--k0", "Z/2", "--k1", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == [[2, 3], [1, 2]]
        assert doc["certificate"]["k0"] == "Z/2"

    def test_mismatch_exit_1(self, capsys):
        code, _, err = run(capsys, "realize", "--k0", "Z", "--k1", "0")
        assert code == 1
        assert json.loads(err)["kind"] == "unrealizable"


class TestElementCommands:
    def test_normalize_semigroupoid(self, capsys, e1_file):
        code, out, _ = run(capsys, "normalize", "g(1,1,3).g(1,2,1)", e1_file)
        assert code == 0 and out.strip() == "g(1,1,1).g(1,2,2)"

    def test_normalize_isg(self, capsys, e1_file):
        code, out, _ = run(capsys, "normalize", "s(1,1,1).u(1)^2", e1_file)
        assert code == 0 and out.strip() == "s(1,1,1).u(1)^2"

    def test_mul_orthogonal(self, capsys, e1_file):
        code, out, _ = run(capsys, "mul", "q(1)", "q(2)", e1_file)
        assert code == 0 and out.strip() == "0"

    def test_mul_semigroupoid_undefined(self, capsys, e1_file):
        code, out, _ = run(capsys, "mul", "h(2)", "g(1,2,1)", e1_file)
        assert code == 0 and out.strip() == "undefined"

    def test_lcm(self, capsys, e1_file):
        code, out, _ = run(capsys, "lcm", "g(1,1,1)", "g(1,1,3)", e1_file)
        assert code == 0 and out.strip() == "g(1,1,3)"
        code, out, _ = run(capsys, "lcm", "g(1,1,1)", "g(1,1,2)", e1_file)
        assert code == 0 and out.strip() == "none"

    def test_semantic_error_exit_1(self, capsys, e1_file):
        code, _, err = run(capsys, "normalize", "s(1,3,1)", e1_file)
        assert code == 1
        assert json.loads(err)["kind"] == "semantic"

    def test_parse_error_exit_2(self, capsys, e1_file):
        code, _, err = run(capsys, "normalize", "s(1,", e1_file)
        assert code == 2
        payload = json.loads(err)
        assert payload["kind"] == "parse" and "position" in payload


class TestActionCommands:
    def test_act_on_prefix(self, capsys, e1_file):
        code, out, _ = run(capsys, "act", "s(2,1,1)", "[(1,1,2)]", e1_file)
        assert code == 0
        assert out.strip() == "[(2,1,1), (1,1,2)] residual 0"

    def test_act_zero(self, capsys, e1_file):
        code, out, _ = run(capsys, "act", "q(2)", "[(1,1,1)]", e1_file)
        assert code == 0 and out.strip() == "0"

    def test_act_need_longer(self, capsys, e1_file):
        code, out, _ = run(capsys, "act", "s(1,1,1)*.s(1,1,1)*", "[(1,1,1)]", e1_file)
        assert code == 0 and out.strip() == "need-longer-prefix"

    def test_act_on_periodic(self, capsys, d2_file):
        code, out, _ = run(capsys, "act", "u(1)", "[] ~ [(1,1,1)]", d2_file, "--depth", "3")
        assert code == 0
        assert out.strip() == "[(1,1,2), (1,1,1), (1,1,1)]"

    def test_fixedpoint(self, capsys, d2_file):
        code, out, _ = run(capsys, "fixedpoint", "s(1,1,1).u(1)", d2_file, "--depth", "4")
        assert code == 0
        assert out.strip() == "[(1,1,1), (1,1,2), (1,1,2), (1,1,2)]"

    def test_fixedpoint_none(self, capsys, d2_file):
        code, out, _ = run(capsys, "fixedpoint", "s(1,1,1).s(1,1,2)*", d2_file, "--depth", "4")
        assert code == 0 and out.strip() == "none"

    def test_germ_eq(self, capsys, e1_file):
        code, out, _ = run(
            capsys, "germ-eq", "s(1,1,1)", "s(1,1,2)", e1_file, "--at", "[] ~ [(1,1,1)]"
        )
        assert code == 0 and out.strip() == "not-equal"

    def test_germ_eq_equal(self, capsys, e1_file):
        code, out, _ = run(
            capsys, "germ-eq", "q(1)", "q(1)", e1_file, "--at", "[] ~ [(1,1,1)]"
        )
        assert code == 0 and out.strip() == "equal"

    def test_germ_eq_zero(self, capsys, e1_file):
        code, out, err = run(capsys, "germ-eq", "0", "q(1)", e1_file, "--at", "[] ~ [(1,1,1)]")
        assert code == 1 and out == ""
        assert err == '{"kind": "domain", "message": "zero carries no germ"}\n'

    def test_germ_eq_depth_cap_retired(self, capsys, e1_file):
        # germ-eq is exact and has no cap to set
        code, out, err = run(
            capsys, "germ-eq", "q(1)", "q(1)", e1_file, "--at", "[] ~ [(1,1,1)]", "--depth-cap", "8"
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["kind"] == "parse"


class TestParserReuse:
    """`main` builds its parser once per process and reuses it, so each call
    must print and exit exactly as it would on a freshly built parser,
    whatever calls came before it."""

    def test_sequence_matches_fresh_parsers(self, capsys, e1_file, d2_file, tmp_path):
        b0 = tmp_path / "b0.json"
        b0.write_text('{"N":1,"A":[[2]],"B":[[0]]}')
        point = "[] ~ [(1,1,1)]"
        sequence = [
            ["analyze", e1_file, "--no-such-flag"],
            ["analyze", e1_file, "--json"],
            ["act", "u(1)", point, d2_file, "--depth", "5"],
            ["act", "u(1)", point, d2_file],
            ["analyze", str(b0), "--strict"],
            ["analyze", str(b0)],
        ]
        alone = []
        for argv in sequence:
            build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        parser = build_parser()
        for argv in sequence + sequence[::-1]:
            assert run(capsys, *argv) == alone[sequence.index(argv)]
        assert build_parser() is parser
        assert [code for code, _, _ in alone] == [2, 0, 0, 0, 3, 0]
        assert json.loads(alone[0][2])["kind"] == "parse"
        # the explicit --depth does not stick: the default 16 comes back
        assert alone[2][1].count("(") == 5 and alone[3][1].count("(") == 16


class TestNegativeDepth:
    def assert_rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["kind"] == "parse"

    def test_act_depth(self, capsys, d2_file):
        self.assert_rejected(capsys, "act", "u(1)", "[] ~ [(1,1,1)]", d2_file, "--depth", "-1")

    def test_fixedpoint_depth(self, capsys, d2_file):
        self.assert_rejected(capsys, "fixedpoint", "s(1,1,1).u(1)", d2_file, "--depth", "-3")

    def test_germ_eq_depth_cap(self, capsys, e1_file):
        # germ-eq has no cap, so a negative one is refused with the flag
        self.assert_rejected(
            capsys, "germ-eq", "q(1)", "q(1)", e1_file, "--at", "[] ~ [(1,1,1)]", "--depth-cap", "-1"
        )

    def test_non_integer_depth(self, capsys, d2_file):
        self.assert_rejected(capsys, "fixedpoint", "s(1,1,1).u(1)", d2_file, "--depth", "abc")

    def test_unknown_flag(self, capsys, e1_file):
        self.assert_rejected(capsys, "analyze", e1_file, "--no-such-flag")


class TestMissingFile:
    def test_io_error(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/x.json")
        assert code == 1
        assert json.loads(err)["kind"] == "io"

    def test_directory_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path))
        assert code == 1
        assert json.loads(err)["kind"] == "io"

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"N": 1, "A": [[2]], "B": [[1]]} \xe9')
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2
        assert json.loads(err)["kind"] == "parse"

    def test_rows_that_are_not_arrays(self, capsys, tmp_path):
        p = tmp_path / "flat.json"
        p.write_text('{"N": 2, "A": [1, 2], "B": [[1, 1], [1, 1]]}')
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert json.loads(err) == {"kind": "structural", "message": "A and B must be arrays of arrays"}


@pytest.fixture
def digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("the interpreter sets no limit on integer digits")
    return limit


class TestDigitLimit:
    """Integers past the interpreter's limit on decimal digits give the
    one-line JSON error, never a traceback."""

    def assert_error(self, capsys, kind, code, *argv):
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["kind"] == kind
        return payload["message"]

    def test_group_literal(self, capsys, digit_limit):
        nines = "9" * (digit_limit + 700)
        message = self.assert_error(capsys, "parse", 2, "realize", "--k0", f"Z/{nines}", "--k1", "0")
        assert f"at most {digit_limit} digits" in message

    def test_exponent_literal(self, capsys, digit_limit, e1_file):
        nines = "9" * (digit_limit + 700)
        message = self.assert_error(capsys, "parse", 2, "normalize", f"u(1)^{nines}", e1_file)
        assert f"at most {digit_limit} digits" in message

    def test_matrix_file_entry(self, capsys, digit_limit, tmp_path):
        p = tmp_path / "big.json"
        nines = "9" * (digit_limit + 700)
        p.write_text(f'{{"N": 2, "A": [[2, {nines}], [1, 2]], "B": [[1, 1], [1, 1]]}}')
        message = self.assert_error(capsys, "parse", 2, "analyze", str(p))
        assert f"at most {digit_limit} digits" in message

    def test_answer_too_long_to_print(self, capsys, digit_limit, tmp_path):
        # the torsion of coker(I - A) is d^2 - 3d + 1, about twice as long as d
        d = "9" * (digit_limit - 300)
        p = tmp_path / "wide.json"
        p.write_text(f'{{"N": 2, "A": [[{d}, {d}], [1, {d}]], "B": [[1, 1], [1, 1]]}}')
        message = self.assert_error(capsys, "domain", 1, "kgroups", str(p))
        assert f"more than {digit_limit} digits" in message

    @pytest.mark.parametrize("atom", ["u(1)", "h(1)"])
    def test_exponent_too_long_to_print(self, capsys, digit_limit, e1_file, atom):
        # each literal fits the limit, their sum has one digit more
        power = f"{atom}^{'9' * digit_limit}"
        message = self.assert_error(capsys, "domain", 1, "normalize", f"{power}.{power}", e1_file)
        assert f"more than {digit_limit} digits" in message

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_fixed_cylinder_exponent_too_long_to_print(self, capsys, digit_limit, tmp_path, flag):
        # the escape names u(1)^l with l = q^2, twice as long as q
        q = "7" * (digit_limit // 2 + 50)
        p = tmp_path / "chain.json"
        p.write_text(f'{{"N":3,"A":[[0,{q},0],[0,0,{q}],[0,0,2]],"B":[[0,1,0],[0,0,1],[0,0,2]]}}')
        message = self.assert_error(capsys, "domain", 1, "analyze", str(p), *flag)
        assert f"more than {digit_limit} digits" in message

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_realized_entry_too_long_to_print(self, capsys, digit_limit, flag):
        # the realizing pair holds the sum 2d, one digit longer than d
        d = "9" * digit_limit
        message = self.assert_error(capsys, "domain", 1, "realize", "--k0", f"Z/{d} + Z/{d}", "--k1", "0", *flag)
        assert f"more than {digit_limit} digits" in message

    @pytest.mark.parametrize(
        "command",
        [
            ["normalize", "g(1,1,{d}).h(1)^{d}"],   # the free final offset
            ["lcm", "g(1,1,{d}).h(1)^{d}", "g(1,1,1)"],
            ["normalize", "h(1)^-{d}.h(1)^-{d}"],   # the exponent sum in the error text
        ],
    )
    def test_semigroupoid_integer_too_long_to_print(self, capsys, digit_limit, e1_file, command):
        d = "9" * digit_limit
        argv = [arg.format(d=d) for arg in command] + [e1_file]
        message = self.assert_error(capsys, "domain", 1, *argv)
        assert f"more than {digit_limit} digits" in message

    def test_free_rank_too_long_to_print(self, capsys, digit_limit):
        d = "9" * digit_limit
        message = self.assert_error(capsys, "domain", 1, "realize", "--k0", f"Z^{d} + Z^{d}", "--k1", "0")
        assert f"more than {digit_limit} digits" in message


class TestNesting:
    def test_deep_matrix_file(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        for command in ("validate", "analyze"):
            code, out, err = run(capsys, command, str(p))
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["kind"] == "parse"

    def test_deep_parentheses(self, capsys, e1_file):
        code, out, _ = run(capsys, "normalize", "(" * NESTING_LIMIT + "u(1)" + ")" * NESTING_LIMIT, e1_file)
        assert code == 0 and out.strip() == "u(1)"
        for depth in (NESTING_LIMIT + 1, 5000):
            code, out, err = run(capsys, "normalize", "(" * depth + "u(1)" + ")" * depth, e1_file)
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["kind"] == "parse" and payload["position"] == NESTING_LIMIT


class TestLetterBudget:
    def assert_refused(self, capsys, kind, code, *argv):
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["kind"] == kind
        assert str(LETTER_BUDGET) in payload["message"]

    def test_power_past_the_budget(self, capsys, d2_file):
        self.assert_refused(capsys, "domain", 1, "normalize", "s(1,1,1)^100000000", d2_file)
        self.assert_refused(capsys, "domain", 1, "normalize", f"s(1,1,1)^{LETTER_BUDGET + 1}", d2_file)
        code, out, _ = run(capsys, "normalize", f"s(1,1,1)^{LETTER_BUDGET}", d2_file)
        assert code == 0 and out.count("s(1,1,1)") == LETTER_BUDGET

    def test_product_past_the_budget(self, capsys, d2_file):
        half = f"s(1,1,1)^{LETTER_BUDGET // 2 + 1}"
        self.assert_refused(capsys, "domain", 1, "normalize", f"{half}.{half}", d2_file)

    def test_idempotent_power_still_answers(self, capsys, d2_file):
        code, out, _ = run(capsys, "normalize", "(s(1,1,1).s(1,1,1)*)^100000000", d2_file)
        assert code == 0 and out.strip() == "s(1,1,1).s(1,1,1)*"

    def test_depth_flags(self, capsys, d2_file):
        point = "[] ~ [(1,1,1)]"
        for depth in ("100000000", str(LETTER_BUDGET + 1)):
            self.assert_refused(capsys, "parse", 2, "act", "u(1)", point, d2_file, "--depth", depth)
            self.assert_refused(capsys, "parse", 2, "fixedpoint", "s(1,1,1).u(1)", d2_file, "--depth", depth)
        code, out, _ = run(capsys, "act", "u(1)", point, d2_file, "--depth", str(LETTER_BUDGET))
        assert code == 0 and out.count("(1,1,") == LETTER_BUDGET

    def test_scan_cap(self, capsys, d2_file):
        # germ-eq builds one cylinder, as deep as the longest domain word plus
        # the period, so the budget on its elements bounds that depth too
        half = LETTER_BUDGET // 2
        argv = ["germ-eq", "q(1)", "u(1)", d2_file, "--at", "[] ~ [(1,1,1)]"]
        for right, answer in (("q(1)", "equal"), ("u(1)", "not-equal")):
            argv[1:3] = [f"s(1,1,1)^{half}.s(1,1,1)*^{half}", right]
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.strip() == answer
        argv[1] = f"s(1,1,1)^{half + 1}.s(1,1,1)*^{half + 1}"
        self.assert_refused(capsys, "domain", 1, *argv)

    def test_realized_pair_past_the_budget(self, capsys):
        self.assert_refused(capsys, "domain", 1, "realize", "--k0", "Z^100000000", "--k1", "Z^100000000")


# -- the CLI contract under random input ---------------------------------------

# Every call must finish within this many seconds.  The slowest answers the
# budgets allow here (a pair of ~300 vertices from realize, an act at the full
# letter budget on an expanding pair) take a few seconds; the hangs this
# guards against run for minutes.
CALL_SECONDS = 8.0

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


class Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise Overtime


def call(argv):
    """cli.main under a wall-clock alarm: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), time.monotonic() - start


def assert_contract(argv):
    code, _, err, seconds = call(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err[:500])
        assert "kind" in json.loads(lines[0]), (argv, err[:500])
    assert seconds < CALL_SECONDS, (argv, seconds)


def nines(digits):
    return "9" * digits


def often(common, rare):
    """`common` about three times in four."""
    return st.one_of(common, common, common, rare)


# integer literals: mostly small, else large, at the budgets, or at and past
# the interpreter's digit limit
literal = often(
    st.integers(-3, 12).map(str),
    st.one_of(
        st.integers(-(10**12), 10**12).map(str),
        st.sampled_from(["100000000", "-100000000", str(LETTER_BUDGET), str(LETTER_BUDGET + 1)]),
        st.sampled_from([LIMIT, LIMIT + 1]).map(nines),
    ),
)
vertex = often(st.sampled_from(["1", "2"]), literal)
junk = st.text(alphabet="()[]~,.^*@suqhgZ/+0123456789- ", max_size=40)


def _nest(depth_and_text):
    depth, text = depth_and_text
    return "(" * depth + text + ")" * depth


isg_expression = st.recursive(
    st.one_of(
        st.builds("s({},{},{})".format, vertex, vertex, literal),
        st.builds("u({})".format, vertex),
        st.builds("q({})".format, vertex),
        st.just("0"),
    ),
    lambda inner: st.one_of(
        st.builds("{}.{}".format, inner, inner),
        st.builds("{}^{}".format, inner, literal),
        st.builds("{}*".format, inner),
        st.builds("({})".format, inner),
        st.tuples(st.sampled_from([NESTING_LIMIT, NESTING_LIMIT + 1, 5000]), inner).map(_nest),
    ),
    max_leaves=6,
)
sgp_atom = st.one_of(
    st.builds("h({})".format, vertex),
    st.builds("h({})^{}".format, vertex, literal),
    st.builds("g({},{},{})".format, vertex, vertex, literal),
)
sgp_expression = st.lists(sgp_atom, min_size=1, max_size=5).map(".".join)
expression = often(isg_expression, st.one_of(sgp_expression, junk))
point = often(
    st.sampled_from(["[] ~ [(1,1,1)]", "[(1,1,2)] ~ [(1,2,1), (2,1,1)]", "[]@2 ~ [(2,2,1)]", "[(1,1,1)]", "[]@1"]),
    st.text(alphabet="()[]~,@0123456789 ", max_size=30),
)
flag = often(st.integers(0, 40).map(str), st.one_of(literal, st.text(max_size=8)))
summand = st.one_of(st.just("0"), st.just("Z"), st.builds("Z^{}".format, literal), st.builds("Z/{}".format, literal))
group = often(st.lists(summand, min_size=1, max_size=6).map(" + ".join), st.text(alphabet="Z/^+0123456789 -", max_size=20))

PAIRS = {
    "e1": E1_DOC,
    "d2": D2_DOC,
    "expanding": '{"N": 2, "A": [[2, 1], [1, 1]], "B": [[3, 1], [1, 2]]}',
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in PAIRS.items():
        (root / f"{name}.json").write_text(doc)
    return root


FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# argument lists with FILE standing for the pair file
element_call = st.one_of(
    st.builds(lambda x: ["normalize", x, "FILE"], expression),
    st.builds(lambda x, y: ["mul", x, y, "FILE"], expression, expression),
    st.builds(lambda x, y: ["lcm", x, y, "FILE"], sgp_expression | junk, sgp_expression | junk),
    st.builds(lambda x, at, d: ["act", x, at, "FILE", "--depth", d], isg_expression, point, flag),
    st.builds(lambda x, d: ["fixedpoint", x, "FILE", "--depth", d], isg_expression, flag),
    st.builds(lambda x, y, at: ["germ-eq", x, y, "FILE", "--at", at], isg_expression, isg_expression, point),
)


@FUZZ
@given(argv=element_call, pair=st.sampled_from(sorted(PAIRS)))
@example(argv=["normalize", "s(1,1,1)^100000000", "FILE"], pair="d2")
@example(argv=["normalize", "(" * 5000 + "u(1)" + ")" * 5000, "FILE"], pair="d2")
@example(argv=["act", "u(1)", "[] ~ [(1,1,1)]", "FILE", "--depth", "100000000"], pair="d2")
@example(argv=["normalize", f"h(1)^-{nines(LIMIT)}.h(1)^-{nines(LIMIT)}", "FILE"], pair="e1")
def test_contract_element_commands(fuzz_dir, argv, pair):
    path = str(fuzz_dir / f"{pair}.json")
    assert_contract([path if arg == "FILE" else arg for arg in argv])


@FUZZ
@given(k0=group, k1=group, as_json=st.booleans())
@example(k0=f"Z/{nines(LIMIT)} + Z/{nines(LIMIT)}", k1="0", as_json=True)
@example(k0="Z^100000000", k1="Z^100000000", as_json=False)
def test_contract_realize(k0, k1, as_json):
    assert_contract(["realize", "--k0", k0, "--k1", k1] + (["--json"] if as_json else []))


def _rows(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n).map(", ".join), min_size=n, max_size=n).map(
        lambda rows: "[" + ", ".join(f"[{r}]" for r in rows) + "]"
    )


def _square_doc(n):
    return st.builds(
        '{{"N": {}, "A": {}, "B": {}}}'.format,
        st.just(str(n)),
        _rows(n, often(st.integers(0, 3).map(str), literal)),
        _rows(n, often(st.integers(-3, 3).map(str), literal)),
    )


matrix_file = often(
    st.integers(1, 3).flatmap(_square_doc),
    st.one_of(
        st.builds('{{"N": {}, "A": {}, "B": [[1]]}}'.format, st.sampled_from(["1", "0", "true"]) | literal, junk),
        st.sampled_from([999, 5000, 100000]).map(lambda depth: '{"N": 1, "A": ' + "[" * depth + "]" * depth + ', "B": [[1]]}'),
        st.integers(1, 100000).map(lambda depth: "[" * depth),
    ),
).map(str.encode) | st.binary(max_size=60)


@FUZZ
@given(
    data=matrix_file,
    command=st.sampled_from([["validate"], ["analyze", "--json"], ["analyze", "--strict"], ["kgroups", "--json"]]),
)
@example(data=b"[" * 100000, command=["validate"])
@example(
    data=f'{{"N":3,"A":[[0,{nines(LIMIT // 2 + 50)},0],[0,0,{nines(LIMIT // 2 + 50)}],[0,0,2]],'
    '"B":[[0,1,0],[0,0,1],[0,0,2]]}'.encode(),
    command=["analyze", "--json"],
)
def test_contract_matrix_files(fuzz_dir, data, command):
    path = fuzz_dir / "fuzzed.json"
    path.write_bytes(data)
    assert_contract([command[0], str(path)] + command[1:])
