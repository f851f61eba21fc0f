"""The README's examples run as written.

The library quick start is executed as it stands, and every ``typedfisher``
line of the CLI block is invoked through click's test runner in a
temporary directory, so a renamed attribute or flag fails here instead of
leaving the README stale.
"""

import json
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from typedfisher.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading, lang=""):
    """The first fenced block after the line ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    code = compile(code_block("Quick start (library)", "python"), str(README), "exec")
    exec(code, {})
    status, passed, bundle = capsys.readouterr().out.splitlines()
    assert status.startswith("converged ")
    assert passed.startswith("True ")
    assert bundle.startswith("[")


def test_cli_block_runs(tmp_path):
    lines = [ln for ln in code_block("CLI").splitlines() if ln.startswith("typedfisher ")]
    assert len(lines) == 6
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        # prop2's cited allocation at p = [11, 10, 9], for the check line
        Path("alloc.json").write_text(
            json.dumps({"allocation": [[1, 0, 1], [0, 1, 0], [0, 1, 0]]})
        )
        for line in lines:
            result = runner.invoke(main, shlex.split(line)[1:])
            assert result.exit_code == 0, f"{line}\n{result.output}"
