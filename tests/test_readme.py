"""README.md against the code it describes.

The "Quick start (library)" block is the library's first example for a
reader, so it must keep working as the API changes: this extracts it and
executes it.  The "Command line" section is the CLI's reference, so it must
name every flag, exit code, config field and enumerated value that the
code accepts.
"""

import argparse
import re
from pathlib import Path

import pytest

from spinbath import cli, config

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    """The text from heading ``## title`` to the next heading of that level."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _quick_start() -> str:
    match = re.search(r"```python\n(.*?)```", _section("Quick start (library)"), re.S)
    assert match, "no python block under Quick start (library)"
    return match.group(1)


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert namespace["report"].mismatch <= 1e-12
    traj = namespace["traj"]
    assert traj.times[-1] == 2.0
    assert 0.0 < traj.s_lin[-1] < 1.0
    assert printed[-1] == "(5, 5)"
    assert namespace["rho"].shape == (25, 25)
    assert namespace["rho"].dtype.name == "complex128"


def _flags():
    # the top-level parser's and every subcommand's
    parser = cli.build_arg_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    return sorted({flag for p in parsers for action in p._actions for flag in action.option_strings})


def _schema_names():
    types = (config.StateConfig, config.EvolutionConfig, config.SweepConfig, config.DfsConfig,
             config.OutputConfig)
    return sorted({*(f for t in types for f in t._fields), *config.STATE_KINDS,
                   *config.SWEEP_PARAMETERS, *config.DFS_CANDIDATES})


def test_command_line_names_every_flag():
    section = _section("Command line")
    flags = _flags()
    assert {"--config", "--format", "--version", "--help"} <= set(flags)
    missing = [flag for flag in flags if f"`{flag}" not in section]
    assert not missing, f"README's Command line section does not name {missing}"


def test_command_line_names_every_exit_code():
    section = _section("Command line")
    codes = sorted({value for name, value in vars(cli).items() if name.startswith("EXIT_")})
    assert codes == [0, 2, 3, 4, 5]
    missing = [code for code in codes if f"\n| {code} |" not in section]
    assert not missing, f"README's exit-code table has no row for {missing}"


@pytest.mark.parametrize("name", _schema_names())
def test_command_line_names_every_config_field_and_value(name):
    # a field or value is named in backticks or as a JSON key or string
    section = _section("Command line")
    assert re.search(rf"[`\"]{re.escape(name)}[`\"]", section), f"README does not name {name!r}"
