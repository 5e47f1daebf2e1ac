"""README's CLI examples, run as written.

Each `dpip ...` command of the README's CLI block runs as `python -m
dpip.cli` in a fresh directory, with its `fixtures/` paths read from the
repository. `decide` and `oracle-quad` on the ramified prime above 2 answer
No (exit 1), every other example exits 0, and a `# ->` comment is the
output line the command above it prints.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dpip

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO = {"decide", "oracle-quad"}


def _readme_commands():
    """[(argv after `dpip`, [`# ->` lines])] from the CLI section's sh block."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for line in block.splitlines():
        line = line.strip()
        if line.startswith("# ->"):
            commands[-1][1].append(line[len("# ->") :].strip())
        elif line and not line.startswith("#"):
            pending += " " + line.removesuffix("\\")
            if not line.endswith("\\"):
                argv = shlex.split(pending)
                assert argv[0] == "dpip", pending
                commands.append((argv[1:], []))
                pending = ""
    return commands


COMMANDS = _readme_commands()


def test_the_readme_shows_every_command():
    assert sorted(argv[0] for argv, _ in COMMANDS) == [
        "advice-check",
        "decide",
        "factor-prime",
        "oracle-quad",
        "precompute-quad",
        "switch-stats",
    ]
    assert any(shown for _, shown in COMMANDS)  # factor-prime's `# ->` line


@pytest.mark.parametrize("argv, shown", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_a_readme_example_runs_as_stated(tmp_path, argv, shown):
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    src = str(Path(dpip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dpip.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == (1 if argv[0] in EXIT_NO else 0), proc.stderr
    lines = proc.stdout.splitlines()
    for want in shown:
        assert want in lines
