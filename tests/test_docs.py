"""The documents name only code that exists."""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import evacsim
import helpers

ROOT = Path(__file__).resolve().parents[1]
MODULES = {m.name: importlib.import_module(f"evacsim.{m.name}")
           for m in pkgutil.iter_modules(evacsim.__path__) if not m.name.startswith("_")}
FILE_SUFFIXES = (".cfg", ".csv", ".world", ".json", ".md")


@pytest.mark.parametrize("doc", ["README.md", "docs/formats.md"])
def test_the_docs_name_only_code_that_exists(doc, demo_index):
    # Every backticked dotted name whose head is an evacsim module, `helpers`
    # or `WorldIndex` (read on an index), file names left out, resolves.
    heads = {"evacsim": evacsim, "helpers": helpers, "WorldIndex": demo_index, **MODULES}
    names = {name for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                                         (ROOT / doc).read_text())
             if name.split(".")[0] in heads and not name.endswith(FILE_SUFFIXES)}
    assert names
    missing = []
    for name in sorted(names):
        head, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, heads[head])
        except AttributeError:
            missing.append(name)
    assert not missing, f"{doc} names code that does not exist: {missing}"
