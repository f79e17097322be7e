"""The README's examples run as written and print what their comments say."""

import contextlib
import io
import json
import os
import re

from fgr.cli import RunConfig

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def block(heading, language):
    """The first fenced block of the language after the heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    pattern = re.escape(heading) + r"\n.*?```" + language + r"\n(.*?)```"
    return re.search(pattern, text, re.S).group(1)


def test_config_block_loads():
    config = RunConfig.from_json_dict(json.loads(block("### Config", "json")))
    assert config.quadrature.rel_tol == 1e-8
    assert config.output.path == "curve.csv"


def test_library_example_prints_its_comments():
    # every number in a comment is what its line gives, to the comment's
    # digits: the printed value of a print line, the variable of an
    # assignment
    code = block("## Library example", "python")
    out, scope = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    printed = iter(out.getvalue().split())
    checked = 0
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        got = float(next(printed)) if statement.startswith("print(") else None
        number = re.search(r"\d+\.(\d+)", comment)
        if number is None:
            continue
        if got is None:
            got = scope[statement.split("=")[0].strip()]
        assert f"{got:.{len(number.group(1))}f}" == number.group(0), line
        checked += 1
    assert checked == 3
