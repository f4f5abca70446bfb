import os
import subprocess
import sys

import pytest

import cuntzlim
from cuntzlim import O, O_INF, ParseError, equals, gen, mono, parse, render, unit, zero
from cuntzlim.cli import main

O2 = O(2)


def test_parse_generators_and_adjoints():
    assert parse(O2, "s1") == gen(O2, 1)
    assert parse(O2, "s1'") == gen(O2, 1).star()
    assert parse(O2, "s1 s2'") == mono(O2, (1,), (2,))
    assert parse(O2, "s1 * s2'") == mono(O2, (1,), (2,))


def test_parse_scalars_and_sums():
    e = parse(O2, "1/2 s1 + i s2 - I")
    from fractions import Fraction
    from cuntzlim import GaussianRational

    half = GaussianRational(Fraction(1, 2), Fraction(0))
    i = GaussianRational(Fraction(0), Fraction(1))
    assert e == half * gen(O2, 1) + i * gen(O2, 2) - unit(O2)


def test_parse_parentheses_and_unary_minus():
    e = parse(O2, "-(s1 + s2) s1'")
    assert e == -(mono(O2, (1,), (1,)) + mono(O2, (2,), (1,)))


def test_parse_normalizes():
    e = parse(O2, "s1 s1' + s2 s2'")
    assert e == unit(O2)
    assert equals(parse(O2, "s1' s2"), zero(O2))


def test_parse_errors():
    for bad in ["s1 +", "s0", "(s1", "s1''' )", "q9", ""]:
        with pytest.raises(ParseError):
            parse(O2, bad)
    with pytest.raises(ParseError):
        parse(O2, "s3")  # out of range for O2
    parse(O_INF, "s3000")  # fine in O_inf
    with pytest.raises(ParseError, match="end of input") as exc:
        parse(O2, "s1 +")
    assert exc.value.pos == 4


def test_render_parse_round_trip(rng):
    from conftest import random_element

    for tag in (O2, O(3), O_INF):
        for _ in range(40):
            e = random_element(rng, tag)
            assert parse(tag, render(e)) == e


def test_render_zero_and_unit():
    assert render(zero(O2)) == "0"
    assert render(unit(O2)) == "I"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def run(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def run_process(*argv, timeout=None):
    """The CLI in a child process that imports the same package as the tests."""
    src = os.path.dirname(os.path.dirname(cuntzlim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cuntzlim.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))


def test_cli_normalize():
    rc, out = run("normalize", "--algebra", "O2", "s1 s1' + s2 s2'")
    assert rc == 0 and out.strip() == "I"


def test_cli_equals_exit_codes():
    rc, _ = run("equals", "--algebra", "O2", "s1' s2", "0")
    assert rc == 0
    rc, out = run("equals", "--algebra", "O2", "s1", "s2")
    assert rc == 1 and "difference" in out


def test_cli_hom_apply():
    rc, out = run("hom", "apply", "--family", "f", "--args", "1,2", "s3")
    assert rc == 0 and out.strip() == "s2 s2"
    rc, out = run("hom", "apply", "--family", "finf", "--args", "2", "s5")
    assert rc == 0 and out.strip() == "s3 s3 s1"
    rc, out = run("hom", "apply", "--family", "q", "--args", "2,1", "s4")
    assert rc == 0 and out.strip() == "s2 s2"


def test_cli_hom_apply_builds_only_needed_images():
    # q(2,5) has 2^32 generators; only generators 1 and 7 are built
    proc = run_process("hom", "apply", "--family", "q", "--args", "2,5", "s1 s7'", timeout=10)
    assert proc.returncode == 0 and proc.stdout.strip() == "s1 s1 s7' s1'"


def test_cli_verify_uhf_checks_each_level_by_its_certificate():
    # q(3, 3) has 3^8 generators: comparing all pairs of their images would
    # not finish, checking the prefix-code certificate is linear
    cmd = ["verify", "uhf", "--r", "3", "--depth", "4"]
    proc = run_process(*cmd, timeout=20)
    assert proc.returncode == 0 and "verified" in proc.stdout
    proc = run_process(*cmd, "--corrupt", timeout=20)
    assert proc.returncode == 1 and "failed at levels" in proc.stdout


def test_cli_verify_uhf_past_the_generator_bound_exits_2():
    # q(2, 5) has 2^32 generators and q(3, 4) has 3^16: both are refused
    # before any level is built instead of running without end
    for r, depth in (("2", "6"), ("3", "5")):
        proc = run_process("verify", "uhf", "--r", r, "--depth", depth, timeout=10)
        assert proc.returncode == 2 and "too deep" in proc.stderr and proc.stdout == ""


def test_cli_verify_suites():
    assert run("verify", "inverse-system", "--max", "6")[0] == 0
    assert run("verify", "psi", "--chain", "1,2,4", "--expr", "s3 s1'")[0] == 0
    assert run("verify", "decomposition", "--n", "2", "--max-len", "3")[0] == 0
    assert run("verify", "state", "--max", "4")[0] == 0
    assert run("verify", "uhf", "--r", "2", "--depth", "2")[0] == 0


def test_cli_verify_corrupt_refutes():
    rc, out = run("verify", "inverse-system", "--max", "4", "--corrupt")
    assert rc == 1 and "REFUTED" in out
    rc, out = run("verify", "state", "--max", "4", "--corrupt")
    assert rc == 1 and "REFUTED" in out
    rc, out = run("verify", "decomposition", "--n", "2", "--max-len", "2", "--corrupt")
    assert rc == 1 and "REFUTED" in out
    rc, out = run("verify", "psi", "--chain", "1,2,4", "--expr", "s3 s1'", "--corrupt")
    assert rc == 1 and "REFUTED" in out
    rc, out = run("verify", "uhf", "--r", "2", "--depth", "3", "--corrupt")
    assert rc == 1 and "failed at levels [1, 2]" in out and "forced" not in out


def test_cli_poset_graph(tmp_path):
    out_file = tmp_path / "g.dot"
    rc, _ = run("poset", "graph", "--max", "8", "--reduce", "--out", str(out_file))
    assert rc == 0
    text = out_file.read_text()
    assert '"O7" -> "O4";' in text and '"O8" -> "O2";' in text


def test_cli_profinite_report():
    rc, out = run("profinite", "report", "--depth", "5", "--bound", "100", "--kv")
    assert rc == 0 and "witness_depth=5" in out


def test_cli_partition():
    rc, out = run("partition", "--chain", "1,2,4")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("O2")
    assert all(len(l) == len(lines[0]) for l in lines)


def test_cli_usage_errors(capsys):
    assert main(["normalize", "--algebra", "O2", "s1 +"]) == 2
    for n in ("0", "-1"):
        assert main(["verify", "decomposition", "--n", n]) == 2
        assert "n must be >= 1" in capsys.readouterr().err
    assert main(["verify", "psi", "--chain", "2", "--expr", "s1", "--corrupt"]) == 2
    # parameters that decide no case are usage errors, not empty verdicts
    for argv in (["inverse-system", "--max", "0"], ["inverse-system", "--max", "-3"],
                 ["state", "--max", "0"]):
        assert main(["verify"] + argv) == 2
        assert "max must be >= 1" in capsys.readouterr().err
    assert main(["verify", "psi", "--chain", "4", "--expr", "s1"]) == 2
    assert "at least two elements" in capsys.readouterr().err
    assert main(["normalize", "--algebra", "O2", "s9"]) == 2
    assert main(["hom", "apply", "--family", "f", "--args", "2,3", "s1"]) == 2
    assert main(["hom", "apply", "--family", "f", "--args", "2", "s1"]) == 2
    assert main(["hom", "apply", "--family", "finf", "--args", "2,3", "s1"]) == 2
    assert "needs --args n" in capsys.readouterr().err


def test_console_script_installed():
    proc = run_process("normalize", "--algebra", "O3", "s1")
    assert proc.returncode == 0 and proc.stdout.strip() == "s1"
