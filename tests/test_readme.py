"""The README's Python quick start runs as written, so the docs cannot name
a function or argument the package no longer has, and its config block
lists the config keys the package reads and writes, in their order."""

import re
from pathlib import Path

from ncsmode.cli import config_to_dict, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_config_block_lists_the_config_keys_in_order():
    [block] = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M)
    keys = re.findall(r'^  "(\w+)":', block, re.M)
    assert keys == list(config_to_dict(load_config("cstr5")))
