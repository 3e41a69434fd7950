"""The README and the demos agree with the code they describe."""

import configparser
import glob
import importlib.util
import os
import re

import numpy as np
import pytest

from elastobranch.runner import _SCHEMA, RunConfig

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _readme_ini():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(blocks[0])
    return parser


def test_readme_configuration_reference_matches_schema(tmp_path):
    parser = _readme_ini()
    assert parser.sections() == list(_SCHEMA)
    for section, keys in _SCHEMA.items():
        assert list(parser[section]) == list(keys)

    # the documented values parse to the schema defaults
    documented = tmp_path / "documented.ini"
    with open(documented, "w") as fh:
        parser.write(fh)
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    got = RunConfig.from_file(str(documented)).values
    want = RunConfig.from_file(str(empty)).values
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
    ROOT, "demos", "configs", "*.ini"))), ids=os.path.basename)
def test_demo_config_loads(path):
    RunConfig.from_file(path)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "demos",
                                                               "*.py"))),
                         ids=os.path.basename)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location("demo_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
