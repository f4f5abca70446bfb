"""The sh block under "## CLI" in README.md, run line by line through
cli.main: each line is a cuntzlim command that exits 0, or N when it ends in
"# exit N", and exit 2 prints nothing on stdout; a "# -> text" comment is
the exact text it prints.  A line with the optional flag [--kv] runs once
without it and once with --kv.  Each run has a temporary working
directory, so that --out graph.dot writes nothing into the checkout."""
import pathlib
import re
import shlex

from cuntzlim.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    lines = _cli_lines()
    assert lines, "no sh block under ## CLI in README.md"
    runs = 0
    for line in lines:
        assert line.startswith("cuntzlim "), "not a cuntzlim command: %s" % line
        code = re.search(r"# exit ([012])$", line)
        want = re.search(r"# -> (.*)$", line)
        variants = [line.replace(" [--kv]", "")]
        if " [--kv]" in line:
            variants.append(line.replace(" [--kv]", " --kv"))
        for cmd in variants:
            runs += 1
            workdir = tmp_path / str(runs)
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            try:
                got = main(shlex.split(cmd, comments=True)[1:]) or 0
            except SystemExit as exc:
                got = exc.code or 0
            out = capsys.readouterr().out.rstrip("\n")
            assert got == (int(code.group(1)) if code else 0), (cmd, got, out)
            if got == 2:
                assert out == "", (cmd, out)
            if want:
                assert out == want.group(1), (cmd, out)
