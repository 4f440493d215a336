"""The package namespace: the codec, graph and girth names load with
`girthlab`, the others on first access, and each is the object its home
module defines."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import girthlab

README = Path(__file__).parents[1] / "README.md"


def test_every_exported_name_is_its_home_modules_object():
    for name in girthlab.__all__:
        obj = getattr(girthlab, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(girthlab.__all__) <= set(dir(girthlab))
    # the eager list holds every public name defined in a package module
    eager = {name for name, obj in vars(girthlab).items()
             if not name.startswith("_") and getattr(obj, "__module__", "").startswith("girthlab.")}
    assert girthlab.__all__ == sorted({*girthlab._LAZY, *eager})


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        girthlab.no_such_name


def test_readme_entry_points_import_and_girth_stays_the_function():
    # a fresh interpreter, so that the lazy names load here for the first time
    block = re.search(
        r"## Library entry points\n\n```python\n(.*?)```", README.read_text(), re.S
    ).group(1)
    script = f"""
import sys
import girthlab.girth
{block}
print(girth is sys.modules["girthlab.girth"].girth, truncate.__module__)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(girthlab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "girthlab.schemes"]


def test_the_package_imports_only_the_standard_library():
    # relative imports are the package's own modules; every other import,
    # also one inside a function, must name a standard-library module
    imported, outside = [], []
    for path in sorted(Path(girthlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += names
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert len(imported) > 20 and outside == []
