import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import decimal_digits
from ratform import (
    Mat,
    PrimeField,
    Rationals,
    RnfResult,
    cli,
    inverse,
    is_similar,
    linalg,
    nilpotent_jnf,
    parse_matrix,
    rnf,
)
from ratform.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def diag12(tmp_path):
    return write(tmp_path, "a.mat", "field rational\n2\n1 0\n0 2\n")


def test_rnf_text_output(tmp_path, capsys, diag12):
    assert main(["rnf", "--check", "--show-transform", diag12]) == 0
    out = capsys.readouterr().out
    assert "factors: [X^2 - 3*X + 2]" in out
    assert "rnf:\nfield rational\n2\n0 -2\n1 3\n" in out
    assert "transform:\nfield rational\n2\n1 1\n1 2\n" in out


def test_rnf_output_matrices_reparse(tmp_path, capsys, diag12):
    main(["rnf", "--show-transform", diag12])
    out = capsys.readouterr().out
    rnf_text = out.split("rnf:\n")[1].split("transform:\n")[0]
    t_text = out.split("transform:\n")[1]
    assert parse_matrix(rnf_text) == Mat.from_ints(Rationals(), [[0, -2], [1, 3]])
    assert parse_matrix(t_text) == Mat.from_ints(Rationals(), [[1, 1], [1, 2]])


def test_json_output_is_deterministic(capsys, diag12):
    assert main(["rnf", "--json", "--show-transform", diag12]) == 0
    first = capsys.readouterr().out
    assert main(["rnf", "--json", "--show-transform", diag12]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["field"] == "rational"
    assert doc["factors"] == [["2", "-3", "1"]]
    assert doc["rnf"] == [["0", "-2"], ["1", "3"]]
    assert doc["transform"] == [["1", "1"], ["1", "2"]]


def test_similar_exit_codes(tmp_path, capsys, diag12):
    same = write(tmp_path, "same.mat", "field rational\n2\n2 0\n0 1\n")
    other = write(tmp_path, "other.mat", "field rational\n2\n1 0\n0 1\n")
    assert main(["similar", diag12, same]) == 0
    assert "similar" in capsys.readouterr().out
    assert main(["similar", diag12, other]) == 1
    assert "not similar" in capsys.readouterr().out
    assert main(["similar", diag12, str(tmp_path / "missing.mat")]) == 2


def test_similar_distinguishes_equal_char_polys(tmp_path, capsys):
    shift = write(tmp_path, "shift.mat", "field rational\n2\n0 1\n0 0\n")
    zero = write(tmp_path, "zero.mat", "field rational\n2\n0 0\n0 0\n")
    assert main(["similar", shift, zero]) == 1
    assert main(["similar", shift, shift]) == 0
    capsys.readouterr()


def test_similar_witness(tmp_path, capsys, diag12):
    same = write(tmp_path, "same.mat", "field rational\n2\n2 0\n0 1\n")
    assert main(["similar", "--show-transform", diag12, same]) == 0
    out = capsys.readouterr().out
    assert "witness:\n" in out
    witness = parse_matrix(out.split("witness:\n")[1])
    a = parse_matrix(Path(diag12).read_text())
    b = parse_matrix(Path(same).read_text())
    assert a * witness == witness * b


def test_jnf_nilpotent_output_and_error(tmp_path, capsys):
    nil = write(tmp_path, "nil.mat", "field rational\n3\n0 1 0\n0 0 0\n0 0 0\n")
    assert main(["jnf-nilpotent", "--check", "--show-transform", nil]) == 0
    out = capsys.readouterr().out
    assert "partition: [2, 1]" in out
    assert main(["rnf", "--show-transform", nil]) == 0
    rnf_out = capsys.readouterr().out
    assert out.split("transform:\n")[1] == rnf_out.split("transform:\n")[1]

    ident = write(tmp_path, "id.mat", "field rational\n2\n1 0\n0 1\n")
    assert main(["jnf-nilpotent", ident]) == 2
    err = capsys.readouterr().err
    assert "not nilpotent" in err


@pytest.mark.parametrize("bad", ["identity", "zero"])
def test_check_rejects_a_transform_that_does_not_conjugate(monkeypatch, capsys, diag12, bad):
    real = cli.rnf

    def fake(a):
        result = real(a)
        n = a.nrows
        # The identity is invertible but does not conjugate A onto R; the
        # zero matrix satisfies A*T == T*R on its own but is singular.
        t = Mat.identity(a.field, n) if bad == "identity" else Mat.zeros(a.field, n, n)
        return RnfResult(factors=result.factors, rnf=result.rnf, transform=t)

    monkeypatch.setattr(cli, "rnf", fake)
    assert main(["rnf", "--check", diag12]) == 2
    assert "check failed" in capsys.readouterr().err


def test_no_library_path_inverts_a_matrix(monkeypatch, tmp_path, capsys, diag12):
    """rnf, the similarity witness, the nilpotent Jordan form and every verb
    with every flag it honours run with each binding of `inverse` raising."""
    K = PrimeField(7)
    a = Mat.from_ints(K, [[2, 0, 0, 0], [0, 2, 0, 0], [1, 0, 3, 0], [0, 4, 5, 1]])
    s = Mat.from_ints(K, [[1, 2, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0], [4, 0, 0, 1]])
    b = inverse(s) * a * s
    nil = Mat.from_ints(K, [[0, 1, 2], [0, 0, 3], [0, 0, 0]])

    def forbidden(*args, **kwargs):
        raise AssertionError("a matrix was inverted")

    original = linalg.inverse
    for key, module in list(sys.modules.items()):
        if key == "ratform" or key.startswith("ratform."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    assert linalg.inverse is forbidden
    rnf(a)
    same, witness = is_similar(a, b, witness=True)
    assert same and a * witness == witness * b
    assert nilpotent_jnf(nil).partition == [3]
    same_file = write(tmp_path, "same.mat", "field rational\n2\n2 0\n0 1\n")
    nil_file = write(tmp_path, "nil.mat", "field gf 7\n3\n0 1 2\n0 0 3\n0 0 0\n")
    for name, verb in cli._VERBS.items():
        flags = ["--" + flag.replace("_", "-") for flag in verb.flags]
        files = [nil_file] if name == "jnf-nilpotent" else [diag12, same_file][: len(verb.inputs)]
        assert main([name, *flags, *files]) == 0, name
    capsys.readouterr()


def test_minpoly_charpoly_factors(tmp_path, capsys):
    shift = write(tmp_path, "shift.mat", "field rational\n2\n0 1\n0 0\n")
    zero = write(tmp_path, "zero.mat", "field rational\n2\n0 0\n0 0\n")
    assert main(["minpoly", shift]) == 0
    assert capsys.readouterr().out == "minpoly: X^2\n"
    assert main(["charpoly", zero]) == 0
    assert capsys.readouterr().out == "charpoly: X^2\n"
    assert main(["factors", zero]) == 0
    assert capsys.readouterr().out == "factors: [X, X]\n"
    assert main(["minpoly", "--json", shift]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "field": "rational",
        "minpoly": ["0", "0", "1"],
    }


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("field gf 7\n1\n5\n"))
    assert main(["minpoly", "-"]) == 0
    assert capsys.readouterr().out == "minpoly: X + 2\n"


def test_field_override_flag(tmp_path, capsys, diag12):
    assert main(["charpoly", "--field", "gf:5", diag12]) == 0
    assert capsys.readouterr().out == "charpoly: X^2 + 2*X + 2\n"
    assert main(["charpoly", "--field", "nonsense", diag12]) == 2
    capsys.readouterr()


def test_parse_error_reports_line(tmp_path, capsys):
    bad = write(tmp_path, "bad.mat", "field rational\n2\n1 2\n3 oops\n")
    assert main(["rnf", bad]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "bad.mat" in err


def test_seed_flag_is_rejected(capsys, diag12):
    with pytest.raises(SystemExit) as exc:
        main(["factors", "--seed", "42", diag12])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, flag",
    [
        ("factors", "--show-transform"),
        ("minpoly", "--check"),
        ("minpoly", "--show-transform"),
        ("charpoly", "--check"),
        ("charpoly", "--show-transform"),
        ("similar", "--check"),
    ],
)
def test_flags_a_verb_does_not_honour_are_rejected(capsys, diag12, verb, flag):
    files = [diag12, diag12] if verb == "similar" else [diag12]
    with pytest.raises(SystemExit) as exc:
        main([verb, flag, *files])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_scalars_past_the_int_to_str_limit_print_exactly(tmp_path, capsys):
    z, o = 10**2500, int("3" + "1" * 2500)
    big = write(tmp_path, "big.mat", f"field rational\n2\n{z} {o}\n{o} {z}\n")
    assert main(["factors", big]) == 0
    # X^2 - 2z*X + (z^2 - o^2), and o > z
    middle, last = decimal_digits(2 * z), decimal_digits(o * o - z * z)
    assert capsys.readouterr().out == f"factors: [X^2 - {middle}*X - {last}]\n"


def test_input_tokens_past_the_int_to_str_limit_are_refused(tmp_path, capsys):
    long = write(tmp_path, "long.mat", "field rational\n1\n" + "7" * 100_001 + "\n")
    assert main(["factors", long]) == 2
    assert "line 3" in capsys.readouterr().err


def test_console_entry_point_subprocess(tmp_path):
    nil = tmp_path / "n.mat"
    nil.write_text("field rational\n2\n0 1\n0 0\n")
    zero = tmp_path / "z.mat"
    zero.write_text("field rational\n2\n0 0\n0 0\n")
    run = subprocess.run(
        [sys.executable, "-m", "ratform", "similar", str(nil), str(zero)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1
    assert run.stdout.strip() == "not similar"


COLD_START = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import ratform.cli
print(*sorted(set(sys.modules) - before), file=sys.stderr)
sys.exit(ratform.cli.main(sys.argv[2:]))
"""


def test_cold_start_imports_neither_dataclasses_nor_json(diag12):
    """A fresh interpreter's `import ratform.cli` loads no module that only
    a few result records or --json need; --json still prints one document."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-I", "-c", COLD_START, src, "rnf", "--json", diag12],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stderr.split())
    assert "ratform.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}
    doc = json.loads(run.stdout)
    assert doc["field"] == "rational" and doc["factors"] == [["2", "-3", "1"]]
    assert RnfResult._fields == ("factors", "rnf", "transform")
