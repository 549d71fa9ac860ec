"""The public surface: every exported name resolves, and the README sketch runs."""

import pathlib
import pkgutil
import re

import pytest

import lqgdisk

MODULES = ["lqgdisk"] + [f"lqgdisk.{m.name}" for m in pkgutil.iter_modules(lqgdisk.__path__)]
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale __all__ entry raises AttributeError here
    exec(f"from {module} import *", {})


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch") :]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(sketch, "README.md", "exec"), {})
