"""The README's library tour and CLI examples run as written, so they
cannot go stale."""

import re
import shlex
from pathlib import Path

from hlslab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_cli_examples_run(tmp_path, capsys):
    block = README.read_text().split("## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines()]
    assert lines and all(argv[0] == "hlslab" for argv in lines)
    for argv in lines:
        code = main(argv[1:] + ["--cache-dir", str(tmp_path / "cache")])
        assert code == 0, argv
        assert capsys.readouterr().out.startswith("# hlslab report")
