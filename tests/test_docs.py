"""README's commands, config example and Python names stay true to the program.

A flag, verb, config key or ``poolal.<module>.<name>`` removed from the
program fails here until the README stops showing it.
"""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest
import yaml

from poolal.cli import build_parser
from poolal.config import ExperimentConfig, decode

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


COMMANDS = [shlex.split(line, comments=True) for block in _blocks("sh") for line in block.splitlines()]
POOLAL_COMMANDS = [argv[1:] for argv in COMMANDS if argv and argv[0] == "poolal"]


def test_readme_shows_poolal_commands():
    assert {argv[0] for argv in POOLAL_COMMANDS} >= {"generate", "run", "sweep", "report"}


@pytest.mark.parametrize("argv", POOLAL_COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)


def test_readme_config_decodes():
    (block,) = _blocks("yaml")
    assert isinstance(decode(ExperimentConfig, yaml.safe_load(block), "README.md"), ExperimentConfig)


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an object: its longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_readme_python_names_resolve():
    names = set(re.findall(r"`(poolal(?:\.\w+)+)", README.read_text(encoding="utf-8")))
    assert names
    assert sorted(n for n in names if not _resolves(n)) == []
