"""The examples in README.md: every `$ qmf ...` line is run through
qmf.cli.main and its output compared with the lines shown under it (a
trailing `| head -K` compares the first K lines; an example whose stdout
is empty shows its stderr), and the Library code block is executed."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from qmf.box import class_counts
from qmf.cli import main

README = Path(__file__).resolve().parents[1].joinpath("README.md").read_text("utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def examples():
    """(command, shown lines) for each `$ qmf` line of the README."""
    out = []
    for lang, body in BLOCKS:
        for chunk in re.split(r"^\$ ", body, flags=re.MULTILINE)[1:]:
            command, *shown = chunk.splitlines()
            if command.startswith("qmf "):
                out.append((command, shown))
    return out


def run_example(command):
    """The lines a shell would show for command, a qmf call with an
    optional `| head -K`."""
    command, _, pipe = command.partition("|")
    head = re.fullmatch(r"\s*head -(\d+)\s*", pipe) if pipe else None
    assert not pipe or head, pipe
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        main(shlex.split(command)[1:])
    lines = (stdout.getvalue() or stderr.getvalue()).splitlines()
    return lines[: int(head.group(1))] if head else lines


def test_readme_has_examples():
    commands = [command for command, _ in examples()]
    assert len(commands) >= 6
    assert any("| head -" in c for c in commands)
    assert any(c.startswith("qmf verify") for c in commands)


def test_readme_cli_examples():
    for command, shown in examples():
        assert run_example(command) == shown, command


def test_readme_library_block():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_box_and_class_counts():
    # the depth guidance states the indices and the classes of the box, the
    # class (0, 0) of T = 0 counted, as class_counts has them
    counts = {N: class_counts(N) for N in (*range(9), 12)}
    sizes = [sum(counts[N].values()) for N in range(9)]
    classes = [len(counts[N]) for N in range(1, 7)]
    text = " ".join(README.split())
    assert (
        f"holds {', '.join(map(str, sizes[:-1]))} and {sizes[-1]} indices for N = 0..8, "
        f"and {sum(counts[12].values())} at N = 12"
    ) in text
    assert (
        f"holds {', '.join(map(str, classes[:-1]))} and {classes[-1]} such classes, "
        f"{len(counts[8])} at N = 8 and {len(counts[12])} at N = 12"
    ) in text
