"""The docs name only CLI that exists.

Every ``python -m repro …`` command in a fenced block of README.md,
``docs/*.md`` and the verify skill, and every inline ``repro …`` span, is
walked through :func:`repro.cli.build_parser`: each subcommand must be a
choice of its parent parser and each ``--flag`` an option of the parser it
follows. Synopsis forms are understood: ``[--a | --b]`` alternatives,
``a|b|c`` subcommand lists (checked name by name) and ``<placeholder>``
subcommands.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

_FENCED = re.compile(r"python3?\s+-m\s+repro\s+(.*)")
_INLINE_SPAN = re.compile(r"`([^`]+)`")
_INLINE_CMD = re.compile(
    r"(?:[A-Z_]+=\S*\s+)*(?:python3?\s+-m\s+)?repro\s+(.*)", re.S
)
_SHELL_OPERATORS = {"|", "||", "&", "&&", ";", ">", ">>", "<", "2>", "2>&1"}


def _fence_mask(lines: List[str]) -> List[bool]:
    """Whether each line belongs to a fenced block (its markers included)."""
    mask, inside = [], False
    for line in lines:
        marker = line.lstrip().startswith("```")
        mask.append(inside or marker)
        if marker:
            inside = not inside
    return mask


def _fenced_commands(lines: List[str], mask: List[bool]) -> Iterator[Tuple[int, str]]:
    """``(line number, text after "repro")`` of each command in a fence.

    A command continues on the next fenced line after a trailing ``\\``,
    and on an indented line that starts with ``[`` or ``--`` (the
    synopsis style of docs/api.md).
    """
    command, start = None, 0
    for number, (line, fenced) in enumerate(zip(lines, mask), 1):
        body = line.strip()
        if command is not None and fenced and (
            command.endswith("\\")
            or (line[:1].isspace() and body.startswith(("[", "--")))
        ):
            command = command.rstrip("\\") + " " + body
            continue
        if command is not None:
            yield start, command.rstrip("\\")
            command = None
        match = _FENCED.search(line) if fenced else None
        if match:
            start, command = number, match.group(1).strip()
    if command is not None:
        yield start, command.rstrip("\\")


def documented_commands(paths=DOCS) -> Iterator[Tuple[str, str]]:
    """``(location, text after "repro")`` for every documented command."""
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        mask = _fence_mask(lines)
        for number, command in _fenced_commands(lines, mask):
            yield f"{path.name}:{number}", command
        prose = "\n".join("" if fenced else line for line, fenced in zip(lines, mask))
        for span in _INLINE_SPAN.finditer(prose):
            body = span.group(1)
            match = _INLINE_CMD.match(body)
            if match and "\n\n" not in body:
                number = prose.count("\n", 0, span.start()) + 1
                yield f"{path.name}:{number}", " ".join(match.group(1).split())


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return None


def misses(command: str) -> List[str]:
    """Subcommands and ``--flags`` of ``repro <command>`` that do not exist."""
    try:
        tokens = shlex.split(command, comments=True)
    except ValueError:
        tokens = command.split()
    parser = build_parser()
    found: List[str] = []
    depth = 0
    for token in tokens:
        if depth == 0 and token in _SHELL_OPERATORS:
            break
        depth += token.count("[") - token.count("]")
        bare = token.strip("[]")
        if bare.startswith("--"):
            for flag in bare.split("|"):
                flag = flag.split("=", 1)[0]
                if flag.startswith("--") and flag not in parser._option_string_actions:
                    found.append(flag)
            continue
        choices = _subparsers(parser)
        if choices is None or not bare or bare in ("|", "...", "…"):
            continue
        if bare.startswith("<"):
            break  # a placeholder subcommand: nothing further to check
        names = bare.split("|")
        found.extend(f"repro … {name}" for name in names if name not in choices)
        if len(names) > 1 or names[0] not in choices:
            break
        parser = choices[names[0]]
    return found


def test_extracts_fenced_and_inline_commands(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Run `repro obs\nruns` or `repro.obs` (not a command).\n"
        "```bash\n"
        "PYTHONPATH=src python -m repro train --scale 0.01 \\\n"
        "    --epochs 3\n"
        "python -m repro serve http MODEL [--port P]\n"
        "                      [--workers N]\n"
        "```\n"
    )
    assert list(documented_commands([doc])) == [
        ("doc.md:4", "train --scale 0.01  --epochs 3"),
        ("doc.md:6", "serve http MODEL [--port P] [--workers N]"),
        ("doc.md:1", "obs runs"),
    ]


def test_docs_name_only_existing_cli():
    commands = list(documented_commands())
    assert len(commands) > 50  # the extractor still finds the docs' commands
    bad = [
        f"{where}: {miss}  (repro {command})"
        for where, command in commands
        for miss in misses(command)
    ]
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("command, expected", [
    ("serve replay ckpt --input req.jsonl", ["repro … replay"]),
    ("serve ckpt --input req.jsonl", ["repro … ckpt"]),
    ("serve http ckpt --scrape-port 9464", ["--scrape-port"]),
    ("serve http ckpt [--slo-p95-ms MS] [--slo-wait-ms MS]",
     ["--slo-wait-ms"]),
    ("generate|analyze|serve|replay", ["repro … replay"]),
    ("serve http ckpt --port 0 --slo-p95-ms 250 &", []),
    ("analyze [--dataset F | --scale S]", []),
    ("obs diff <a> <b> --threshold METRIC=TOL[,DIR]  # comment --nope", []),
])
def test_checker_reports_missing_names(command, expected):
    assert misses(command) == expected
