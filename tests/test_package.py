"""The package's public names and its version."""

import re
from pathlib import Path

import spinbath
from spinbath import config, diagnostics, generator, spin_algebra, states

ROOT = Path(__file__).resolve().parents[1]
MODULES = (spin_algebra, states, generator, diagnostics, config)


def test_all_is_the_version_then_each_module_all():
    names = spinbath.__all__
    assert names == ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert len(set(names)) == len(names)


def test_each_name_is_the_object_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spinbath, name) is getattr(module, name), (module.__name__, name)


def test_one_version_everywhere():
    # a regex, not tomllib, which Python 3.10 lacks
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                        re.M | re.S)
    assert re.search(r'^version = "([^"]+)"$', project.group(1), re.M).group(1) == spinbath.__version__
    row = re.search(r"^\| `--version` \| print `spinbath (\S+)` and exit \|$",
                    (ROOT / "README.md").read_text(encoding="utf-8"), re.M)
    assert row.group(1) == spinbath.__version__
