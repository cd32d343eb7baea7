import json
import sys

import pytest

from katsura.cli import main

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
