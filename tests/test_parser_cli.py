import re
import sys
from fractions import Fraction

import pytest

from cuntzlim import (
    IMAG, O, O_INF, GenHom, ParseError, equals, gen, mono, parse, render, unit, zero,
)
from cuntzlim.algebra import add, adjoint, multiply, scale
from cuntzlim.cli import build_parser, main, render_partition
from cuntzlim.homs import IMAGE_WORD_MAX_LEN
from cuntzlim.parser import MAX_NESTING
from cuntzlim.poset import Chain
from cuntzlim.verify import (
    DECOMPOSITION_MAX_LEN,
    INVERSE_SYSTEM_MAX,
    STATE_MAX,
    Refuted,
    verify_decomposition,
    verify_inverse_system,
    verify_state,
    verify_uhf,
)

from conftest import random_element, run_python

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
    for bad, pos in (("1/0 s1", 0), ("s1 + 0/0", 5)):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse(O2, bad)
        assert exc.value.pos == pos
    with pytest.raises(ParseError, match=r"^unexpected token '\)' \(at position 5\)$"):
        parse(O2, "s1 + )")
    # spaces after the last token end the input
    assert parse(O2, "s1 ") == parse(O2, " s1  ") == gen(O2, 1)
    # only ASCII digits: "s\u0661 + \u0663" read as s1 + 3, "s\U0001d7d9" as s1
    # and "\u0661/\u0662 s1" as 1/2 s1
    for bad, char in (("s\u0661 + \u0663", "\u0661"), ("s\U0001d7d9", "\U0001d7d9"),
                      ("\u0661/\u0662 s1", "\u0661"), ("1/\u0662 s1", "/")):
        with pytest.raises(ParseError, match="unexpected character %r" % char):
            parse(O(3), bad)


def test_generator_without_ascii_digits_blames_what_follows_the_s(capsys):
    # the s is a generator's start, so the message names the character after
    # it, at that character's position, or the end of input
    for text, message in (
            ("s\u0661", "unexpected character '\u0661' (at position 1)"),
            ("s", "unexpected end of input (at position 1)"),
            ("s\U0001d7d9", "unexpected character '\U0001d7d9' (at position 1)"),
            ("s1 + s", "unexpected end of input (at position 6)")):
        assert main(["normalize", "--algebra", "O3", text]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message and captured.out == ""


def test_long_products_parse_quickly():
    # multiplying factor by factor copied the word built so far for each
    # letter: 65536 letters took about 11 s
    proc = run_python("-c", "from cuntzlim import O_INF, mono, parse\n"
                      "assert parse(O_INF, 's1 ' * 65536) == mono(O_INF, (1,) * 65536)",
                      timeout=5)
    assert proc.returncode == 0, proc.stderr


def test_products_of_sums_agree_with_products_in_order(rng):
    # pairwise products meet the factors in another order than left to
    # right; the canonical forms must agree
    for tag in (O2, O(3), O_INF):
        for count in range(1, 8):
            es = [random_element(rng, tag, max_terms=3, max_len=2) for _ in range(count)]
            want = es[0]
            for e in es[1:]:
                want = multiply(want, e)
            assert parse(tag, " ".join("(%s)" % render(e) for e in es)) == want


def nested(depth):
    return "(" * depth + "s1" + ")" * depth


def test_parse_refuses_deep_nesting():
    assert parse(O2, nested(MAX_NESTING)) == gen(O2, 1)
    # the bound is the constant, not the interpreter's recursion limit
    limit = sys.getrecursionlimit()
    try:
        for raised in (limit, 100 * limit):
            sys.setrecursionlimit(raised)
            for depth in (MAX_NESTING + 1, 3000):
                with pytest.raises(ParseError, match="nested deeper") as exc:
                    parse(O2, nested(depth))
                assert exc.value.pos == MAX_NESTING
    finally:
        sys.setrecursionlimit(limit)


def random_expression(rng, tag, depth=2):
    """(text, element) of a random expression tree: sums with a leading
    minus, products of generators, I, i, rationals and parenthesised sums,
    adjoints on atoms and groups.  The element is built from the same tree
    with multiply, add, adjoint and scale."""
    n = tag.ngens if tag.is_finite else 6

    def atom(d):
        roll = rng.randrange(7 if d else 5)
        if roll == 0:
            return "I", unit(tag)
        if roll == 1:
            return "i", scale(IMAG, unit(tag))
        if roll == 2:
            p, q = rng.randint(0, 5), rng.randint(1, 4)
            text = "%d/%d" % (p, q) if q > 1 or rng.random() < 0.5 else str(p)
            return text, scale(Fraction(p, q), unit(tag))
        if roll >= 5:
            text, e = expr(d - 1)
            return "(%s)" % text, e
        k = rng.randint(1, n)
        return "s%d" % k, gen(tag, k)

    def factor(d):
        text, e = atom(d)
        for _ in range(rng.choice((0, 0, 1, 2))):
            text, e = text + "'", adjoint(e)
        return text, e

    def term(d):
        text, e = factor(d)
        for _ in range(rng.randint(0, 2)):
            t, g = factor(d)
            text, e = text + rng.choice((" ", " * ")) + t, multiply(e, g)
        return text, e

    def expr(d):
        text, e = term(d)
        if rng.random() < 0.3:
            text, e = "-" + text, scale(-1, e)
        for _ in range(rng.randint(0, 2)):
            t, g = term(d)
            if rng.random() < 0.5:
                text, e = text + " + " + t, add(e, g)
            else:
                text, e = text + " - " + t, add(e, scale(-1, g))
        return text, e

    return expr(depth)


def test_parse_matches_the_element_built_from_the_same_tree(rng):
    for tag in (O2, O(3), O(5), O_INF):
        for _ in range(60):
            text, want = random_expression(rng, tag)
            assert parse(tag, text) == want, text


def test_render_parse_round_trip(rng):
    from conftest import random_element

    for tag in (O2, O(3), O_INF):
        for _ in range(40):
            e = random_element(rng, tag)
            assert parse(tag, render(e)) == e


def test_render_zero_and_unit():
    assert render(zero(O2)) == "0"
    assert render(unit(O2)) == "I"


def test_render_signs_each_term_by_its_coefficient():
    # a negative real or a negative multiple of i follows a minus sign; any
    # other coefficient keeps its own signs inside its parentheses
    O3 = O(3)
    for text, want in (("-s1", "-s1"), ("s1 - s2", "s1 - s2"),
                       ("-1/2 s1 + i s2", "-1/2 s1 + i s2"),
                       ("-i s1 - 3/2 i s2", "-i s1 - 3/2 i s2"),
                       ("(1 - 2 i) s1 - I", "-I + (1 - 2 i) s1"),
                       ("-2 - s1", "-2 - s1"),
                       ("- I + (-1 + 2 i) s2", "-I + (-1 + 2 i) s2")):
        assert render(parse(O3, text)) == want


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


def run_process(*argv, timeout=None, module="cuntzlim.cli"):
    """The CLI in a child process that imports the same package as the tests."""
    return run_python("-m", module, *argv, timeout=timeout)


def test_cli_normalize():
    rc, out = run("normalize", "--algebra", "O2", "s1 s1' + s2 s2'")
    assert rc == 0 and out.strip() == "I"


def test_cli_normalize_products_of_sums_stay_small():
    # each product of two sums is canonicalised at once: P = (s1 + s2)(s1' + s2')
    # = I + s1 s2' + s2 s1' has P^2 = 2P, where multiplying out would give 2^60 terms
    p = multiply(gen(O2, 1) + gen(O2, 2), gen(O2, 1).star() + gen(O2, 2).star())
    want = p
    for _ in range(29):
        want = multiply(want, p)
    assert want == scale(2 ** 29, p)
    proc = run_process("normalize", "--algebra", "O2", "(s1 + s2)(s1' + s2')" * 30, timeout=10)
    assert proc.returncode == 0 and proc.stdout == render(want) + "\n"


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


def test_cli_hom_apply_refuses_q_whose_r_n_is_too_large():
    # r_n of q(2, 40) is 2^(2^39): refused before it is computed
    for args in ("2,40", "2,1000000000"):
        proc = run_process("hom", "apply", "--family", "q", "--args", args, "s1", timeout=10)
        assert proc.returncode == 2 and "too large" in proc.stderr and proc.stdout == ""


def test_cli_verify_uhf_checks_each_level_by_its_certificate():
    # q(3, 3) has 3^8 generators: comparing all pairs of their images would
    # not finish, checking the prefix-code certificate is linear
    cmd = ["verify", "uhf", "--r", "3", "--depth", "4"]
    proc = run_process(*cmd, timeout=20)
    assert proc.returncode == 0 and "verified" in proc.stdout
    proc = run_process(*cmd, "--corrupt", timeout=20)
    assert proc.returncode == 1 and "failed at levels" in proc.stdout


def test_cli_verify_uhf_past_the_q_bound_exits_2():
    # q(2, 5) has 2^32 generators and q(3, 4) has 3^16: their levels are
    # decided from digit codes; q(2, 17) is past Q_MAX_BITS and refused
    for r, depth in (("2", "6"), ("3", "5"), ("2", "17")):
        proc = run_process("verify", "uhf", "--r", r, "--depth", depth, timeout=10)
        assert proc.returncode == 0 and "verified" in proc.stdout
    for depth in ("18", "1000000"):
        proc = run_process("verify", "uhf", "--r", "2", "--depth", depth, timeout=10)
        assert proc.returncode == 2 and "too large" in proc.stderr and proc.stdout == ""


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
    # each hook also refutes at its suite's smallest size; the inverse-system
    # and state hooks mutated nothing below l > m > n and n < m, so those
    # two printed "verified" and exited 0
    for argv, text in (
            (["inverse-system", "--max", "1"],
             "compose(f(1,1), f(1,1)) != f(1,1) on generator 1: s2 vs s1"),
            (["state", "--max", "1"],
             "state mismatch on generator s1 of R_1 under f(1,1): 0 vs 1"),
            (["decomposition", "--n", "1", "--max-len", "0"], "does not sum back"),
            (["psi", "--chain", "1,2", "--expr", "0"], "violates coherence"),
            (["uhf", "--r", "2", "--depth", "2"], "failed at levels [1]")):
        rc, out = run("verify", *argv, "--corrupt")
        assert rc == 1 and out.startswith("REFUTED: ") and text in out
    rc, out = run("verify", "decomposition", "--n", "2", "--max-len", "2", "--corrupt")
    assert rc == 1 and "REFUTED" in out
    rc, out = run("verify", "psi", "--chain", "1,2,4", "--expr", "s3 s1'", "--corrupt")
    assert rc == 1 and "REFUTED" in out
    rc, out = run("verify", "uhf", "--r", "2", "--depth", "3", "--corrupt")
    assert rc == 1 and "failed at levels [1, 2]" in out and "forced" not in out


def test_corrupt_inverse_system_refutes_at_every_size():
    for m in (1, 2, 3):
        with pytest.raises(Refuted, match=re.escape(
                "compose(f(1,1), f(1,1)) != f(1,1) on generator 1: s2 vs s1")):
            verify_inverse_system(m, corrupt=True)
        verify_inverse_system(m)


def test_cli_integers_are_ascii(capsys):
    # int() read any Unicode digit and "_" separators: --max \u0663 verified
    # up to 3, --max 3_0 up to 30, --chain 1,\u0662 drew [1, 2] and
    # --args \u0661,\u0662 applied f(1, 2)
    for argv, text in (
            (["verify", "state", "--max", "\u0663"], "'\u0663'"),
            (["verify", "state", "--max", "3_0"], "'3_0'"),
            (["verify", "inverse-system", "--max", "\U0001d7d9"], "'\U0001d7d9'"),
            (["verify", "uhf", "--r", "2", "--depth", "+3"], "'+3'"),
            (["poset", "graph", "--max", "1e3"], "'1e3'"),
            (["partition", "--chain", "1,\u0662"], "'1,\u0662'"),
            (["hom", "apply", "--family", "f", "--args", "\u0661,\u0662", "s3"],
             "'\u0661,\u0662'"),
            (["verify", "psi", "--chain", "1,2_0", "--expr", "s1"], "'1,2_0'"),
            (["normalize", "--algebra", "O3", "s\u0661"], "'\u0661'")):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "") and text in err
    # surrounding spaces and a sign still read, and a negative size still
    # reaches the suite's own check
    assert run("verify", "state", "--max", " 2 ") == (
        0, "state compatibility verified up to 2\n")
    assert main(["verify", "state", "--max", "-1"]) == 2
    assert "max must be >= 1, got -1" in capsys.readouterr().err
    for argv in (["verify", "state", "--max", "3_0"],
                 ["normalize", "--algebra", "O3", "s\u0661 + \u0663"]):
        proc = run_process(*argv, timeout=20)
        assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr


def test_cli_verify_refuses_sizes_past_the_suite_bounds():
    # each of these ran without end (still running after 10 s); now each is
    # refused before any case is checked
    for argv, message in ((["inverse-system", "--max", "100000"], "max 100000 is too large"),
                          (["state", "--max", "100000"], "max 100000 is too large"),
                          (["decomposition", "--n", "2", "--max-len", "40"],
                           "max-len 40 is too large")):
        proc = run_process("verify", *argv, timeout=10)
        assert proc.returncode == 2 and message in proc.stderr and proc.stdout == ""
    for call, size in ((verify_inverse_system, INVERSE_SYSTEM_MAX),
                       (verify_state, STATE_MAX)):
        with pytest.raises(ValueError, match="runs up to max %d" % size):
            call(size + 1)
    with pytest.raises(ValueError, match="runs up to max-len %d" % DECOMPOSITION_MAX_LEN):
        verify_decomposition(1, DECOMPOSITION_MAX_LEN + 1)
    # so is a size that is not an int or is below the least one: verify_state(2.5)
    # and verify_inverse_system(3.0) raised TypeError, verify_decomposition(True, 2)
    # ran for n = 1
    for call, args, message in (
            (verify_inverse_system, (3.0,), "max must be an int >= 1"),
            (verify_inverse_system, (True,), "max must be an int >= 1"),
            (verify_inverse_system, (0,), "max must be >= 1, got 0"),
            (verify_state, (2.5,), "max must be an int >= 1"),
            (verify_state, (True,), "max must be an int >= 1"),
            (verify_state, (0,), "max must be >= 1, got 0"),
            (verify_state, (2, 2.5), "samples must be an int >= 0"),
            (verify_state, (2, -1), "samples must be >= 0, got -1"),
            (verify_decomposition, (True, 2), "n must be an int >= 1"),
            (verify_decomposition, (2.0, 2), "n must be an int >= 1"),
            (verify_decomposition, (0, 2), "n must be >= 1, got 0"),
            (verify_decomposition, (2, 2.0), "max-len must be an int >= 0"),
            (verify_decomposition, (2, True), "max-len must be an int >= 0"),
            (verify_decomposition, (2, -1), "max-len must be >= 0, got -1"),
            (verify_uhf, (2.0, 3), "r must be an int >= 2"),
            (verify_uhf, (2, True), "depth must be an int >= 2"),
            (verify_uhf, (2, 1), "depth must be >= 2, got 1")):
        with pytest.raises(ValueError, match="^" + message):
            call(*args)
    # the CLI defaults (24, 12, 8) and criterion 6's length 8 stay inside
    ap = build_parser()
    assert ap.parse_args(["verify", "inverse-system"]).max == 24 <= INVERSE_SYSTEM_MAX
    assert ap.parse_args(["verify", "state"]).max == 12 <= STATE_MAX
    assert ap.parse_args(["verify", "decomposition", "--n", "2"]).max_len == 8 \
        <= DECOMPOSITION_MAX_LEN


def test_cli_profinite_report_refuses_depths_past_the_bound():
    # depth 2000 used to build the whole report and then fail to print a
    # residue of over 4300 digits; depth 20000 ran without end
    for depth in ("1001", "2000", "20000"):
        proc = run_process("profinite", "report", "--depth", depth, "--bound", "1000000",
                           timeout=10)
        assert proc.returncode == 2 and "too deep" in proc.stderr and proc.stdout == ""


def test_cli_profinite_report_refuses_depth_below_one():
    proc = run_process("profinite", "report", "--depth", "0", "--bound", "5", timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: depth must be >= 1, got 0\n"


def test_cli_profinite_report_validates_p_bound_and_precision():
    # --p 4 printed base-4 digits, --bound -5 printed "on [--5, -5]", and
    # --p-precision 100000000 computed 2^100000000 before printing
    for depth, bound, p, message in (("9", "10", "4", "need a prime p <= depth + 1 = 10"),
                                     ("3", "10", "5", "need a prime p <= depth + 1 = 4"),
                                     ("9", "-5", "2", "bound must be >= 0")):
        proc = run_process("profinite", "report", "--depth", depth, "--bound", bound,
                           "--p", p, timeout=10)
        assert proc.returncode == 2 and message in proc.stderr and proc.stdout == ""
    proc = run_process("profinite", "report", "--depth", "9", "--bound", "10",
                       "--p-precision", "100000000", timeout=10)
    assert proc.returncode == 0
    assert "digits [1, 0, 0, 1, 1, 0, 0, 0] (10! determines only the first 8 digits)" \
        in proc.stdout


def test_cli_poset_graph(tmp_path):
    out_file = tmp_path / "g.dot"
    rc, _ = run("poset", "graph", "--max", "8", "--reduce", "--out", str(out_file))
    assert rc == 0
    text = out_file.read_text()
    assert '"O7" -> "O4";' in text and '"O8" -> "O2";' in text


@pytest.mark.parametrize("argv, path, reason", [
    (("poset", "graph", "--max", "4"), "missing/x.dot", "No such file or directory"),
    (("profinite", "report", "--depth", "3", "--bound", "10"), ".", "Is a directory"),
])
def test_cli_out_that_cannot_be_written_exits_2(argv, path, reason, capsys,
                                                tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", path) == (2, "")
    assert capsys.readouterr().err == "error: cannot write %s: %s\n" % (path, reason)
    assert list(tmp_path.iterdir()) == []


def test_cli_out_into_a_missing_directory_exits_2_in_a_process(tmp_path):
    path = str(tmp_path / "missing" / "graph.dot")
    proc = run_process("poset", "graph", "--max", "4", "--out", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: cannot write %s: No such file or directory\n" % path


def test_cli_profinite_report():
    rc, out = run("profinite", "report", "--depth", "5", "--bound", "100", "--kv")
    assert rc == 0 and "witness_depth=5" in out


def test_cli_partition():
    rc, out = run("partition", "--chain", "1,2,4")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("O2")
    assert all(len(l) == len(lines[0]) for l in lines)
    assert len(render_partition(Chain((1, 13))).splitlines()[0]) > 6 * 2 ** 13
    with pytest.raises(ValueError, match="too wide"):
        render_partition(Chain((1, 14)))


# the partition text of three chains, pinned character for character: each
# row tiles [0, 1] with the ranges of its generators' words, left to right
PARTITION_TEXT = {
    (1, 2, 4): (
        "O2   |s1.............................................|s2......................"
        ".......................|\n"
        "O3   |s1.............................................|s2.....................|"
        "s3.....................|\n"
        "O5   |s1.............................................|s2.....................|"
        "s3.........|s4...|s5...|\n"
    ),
    (1, 3, 6): (
        "O2   |s1......................................................................"
        ".............................................................................."
        ".........................................|s2.................................."
        ".............................................................................."
        ".............................................................................|"
        "\n"
        "O4   |s1......................................................................"
        ".............................................................................."
        ".........................................|s2.................................."
        "...........................................................|s3................"
        ".............................|s4.............................................|"
        "\n"
        "O7   |s1......................................................................"
        ".............................................................................."
        ".........................................|s2.................................."
        "...........................................................|s3................"
        ".............................|s4.....................|s5.........|s6...|s7...|"
        "\n"
    ),
    (2, 4, 8): (
        "O3   |s1......................................................................"
        ".............................................................................."
        "...........|s2................................................................"
        ".............................................................................."
        ".................|s3.........................................................."
        ".............................................................................."
        ".......................|\n"
        "O5   |s1......................................................................"
        ".............................................................................."
        "...........|s2................................................................"
        ".............................................................................."
        ".................|s3...................................................|s4...."
        "...............................................|s5............................"
        ".......................|\n"
        "O9   |s1......................................................................"
        ".............................................................................."
        "...........|s2................................................................"
        ".............................................................................."
        ".................|s3...................................................|s4...."
        "...............................................|s5...............|s6.........."
        ".....|s7...|s8...|s9...|\n"
    ),
}


def test_partition_text_is_pinned():
    for chain, text in PARTITION_TEXT.items():
        assert render_partition(Chain(chain)) == text, chain


def test_partition_refuses_wide_chains_before_building_words(monkeypatch):
    # f(1, 10^6) has 10^6 + 1 generators with words up to 10^6 letters long
    def refuse(h):
        raise AssertionError("image words built")

    monkeypatch.setattr(GenHom, "image_words", refuse)
    # 2^(10^11) was computed before it was compared with the bound
    for chain in ((1, 40), (1, 10 ** 6), (1000, 2000), (1, 2, 10 ** 11)):
        with pytest.raises(ValueError, match="too wide"):
            render_partition(Chain(chain))


def test_cli_partition_too_wide_exits_2():
    # rows of 6 * 2^40 characters are refused before any row is drawn
    proc = run_process("partition", "--chain", "1,40", timeout=10)
    assert proc.returncode == 2 and "too wide" in proc.stderr and proc.stdout == ""


def test_cli_lists_that_are_not_integers(capsys):
    for argv, text in ((("verify", "psi", "--chain", "1,x", "--expr", "s1"), "1,x"),
                       (("partition", "--chain", "1,2.5"), "1,2.5"),
                       (("hom", "apply", "--family", "f", "--args", "1,two", "s1"), "1,two")):
        assert run(*argv) == (2, "")
        assert capsys.readouterr().err == (
            "error: expected comma-separated integers, got '%s'\n" % text)


def test_cli_usage_errors(capsys):
    assert main(["normalize", "--algebra", "O2", "s1 +"]) == 2
    for n in ("0", "-1"):
        assert main(["verify", "decomposition", "--n", n]) == 2
        assert "n must be >= 1" in capsys.readouterr().err
    assert main(["verify", "decomposition", "--n", "2", "--max-len", "-1"]) == 2
    assert "max-len must be >= 0" in capsys.readouterr().err
    assert main(["verify", "psi", "--chain", "2", "--expr", "s1", "--corrupt"]) == 2
    # parameters that decide no case are usage errors, not empty verdicts
    for argv in (["inverse-system", "--max", "0"], ["inverse-system", "--max", "-3"],
                 ["state", "--max", "0"]):
        assert main(["verify"] + argv) == 2
        assert "max must be >= 1" in capsys.readouterr().err
    assert main(["verify", "psi", "--chain", "4", "--expr", "s1"]) == 2
    assert "at least two elements" in capsys.readouterr().err
    assert main(["normalize", "--algebra", "O2", "s9"]) == 2
    assert main(["normalize", "--algebra", "O2", "1/0 s1"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert main(["normalize", "--algebra", "O2", nested(3000)]) == 2
    assert "nested deeper" in capsys.readouterr().err
    assert main(["hom", "apply", "--family", "f", "--args", "2,3", "s1"]) == 2
    assert main(["hom", "apply", "--family", "f", "--args", "2", "s1"]) == 2
    assert main(["hom", "apply", "--family", "finf", "--args", "2,3", "s1"]) == 2
    assert "needs --args n" in capsys.readouterr().err


def test_cli_o_inf_has_one_spelling(capsys):
    assert run("normalize", "--algebra", "Oinf", "s3000") == (0, "s3000\n")
    # a superscript or Arabic-Indic digit is no k either
    for tag in ("OINF", "O_inf", "Ooo", "O1", "O0", "O", "O2.5", "O\u00b2", "O\u0663"):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--algebra", tag, "s1"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "algebra must be O<k> (k>=2) or Oinf" in err
    proc = run_process("normalize", "--algebra", "OINF", "s1")
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr


def test_console_script_installed():
    proc = run_process("normalize", "--algebra", "O3", "s1")
    assert proc.returncode == 0 and proc.stdout.strip() == "s1"


def test_python_dash_m_runs_the_cli():
    argv = ("equals", "--algebra", "O2", "s1", "s2")
    proc = run_process(*argv, module="cuntzlim")
    assert proc.returncode == 1 and proc.stdout.startswith("not equal")
    assert proc.stdout == run_process(*argv).stdout


def test_cli_coefficients_past_the_digit_limit(capsys):
    # 250 factors of 20 digits make a coefficient of 5000 digits, more than
    # the interpreter writes: equals exited 2 with the interpreter's advice,
    # as if the two sides could not be compared
    big = " ".join(["99999999999999999999"] * 250) + " s1"
    limit = "more than %d digits" % sys.get_int_max_str_digits()
    assert main(["equals", "--algebra", "O2", big, "0"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("not equal") and limit in out and err == ""
    assert main(["equals", "--algebra", "O2", big, big]) == 0
    assert capsys.readouterr().out == "equal\n"
    # a generator index or an integer argument of 5000 digits got the
    # interpreter's advice as well
    sevens = "7" * 5000
    for argv in (("normalize", "--algebra", "O2", big),
                 ("hom", "apply", "--family", "finf", "--args", "1", big),
                 ("normalize", "--algebra", "O2", sevens),
                 ("normalize", "--algebra", "Oinf", "s" + sevens),
                 ("partition", "--chain", "1," + sevens),
                 ("hom", "apply", "--family", "finf", "--args", sevens, "s1"),
                 ("verify", "psi", "--chain", "1," + sevens, "--expr", "s1")):
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and limit in err and "set_int_max_str_digits" not in err, argv
    assert main(["normalize", "--algebra", "Oinf", "s1 + s" + sevens]) == 2
    assert capsys.readouterr().err == "error: generator index of %s (at position 5)\n" % limit
    # an integer option got argparse's "invalid _int value" with all 5000
    # digits echoed
    for argv in (("verify", "inverse-system", "--max", sevens),
                 ("verify", "decomposition", "--n", "1", "--max-len", sevens)):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", argv
        assert "error: argument %s: integer of %s\n" % (argv[-2], limit) in err, argv
        assert len(err) < 300, argv


def test_cli_huge_image_words_exit_2():
    # each of these ended in a MemoryError traceback with exit 1
    bound = "past the bound of %d" % IMAGE_WORD_MAX_LEN
    # 300 words of 60000 letters: printed, the f_inf(1) image was 54 MB
    long_product = " ".join(["s60000"] * 300)
    for argv, message in (
            (("hom", "apply", "--family", "finf", "--args", "1", long_product), bound),
            # f multiplies its images out: 240 letters ran for 38 s
            (("hom", "apply", "--family", "f", "--args", "1,100000000000", long_product), bound),
            (("verify", "psi", "--chain", "1,2", "--expr", long_product), bound),
            (("hom", "apply", "--family", "finf", "--args", "1", "s100000000000"), bound),
            (("verify", "psi", "--chain", "1,2", "--expr", "s100000000000"), bound),
            (("hom", "apply", "--family", "f", "--args", "1,100000000000", "s100000000001"),
             bound),
            (("partition", "--chain", "1,2,100000000000"), "too wide"),
            # built all 10^8 vertex labels before the edges refused the bound
            (("poset", "graph", "--max", "100000000"), "too large")):
        proc = run_process(*argv, timeout=10)
        assert proc.returncode == 2 and message in proc.stderr and proc.stdout == "", argv
    proc = run_process("hom", "apply", "--family", "f", "--args", "1,100000000000", "s1",
                       timeout=10)
    assert proc.returncode == 0 and proc.stdout == "s1\n"


def test_cli_verify_psi_on_a_long_word_is_quick():
    # the chain-2 entry of s65536 is a word of 32768 letters; deciding its
    # coherence by multiplying out f(1, 2) took 16 s
    proc = run_process("verify", "psi", "--chain", "1,2", "--expr", "s65536", timeout=10)
    assert proc.returncode == 0 and proc.stdout == "psi image coherent on chain [1, 2]\n"
