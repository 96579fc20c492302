import re
import subprocess
import sys
from pathlib import Path

import pytest

import arraycav

README = Path(__file__).resolve().parents[1] / "README.md"


def _listed():
    section = README.read_text().split("\n## Library API\n", 1)[1]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]   # the list
    return re.findall(r"`(\w+)`", bullets)


def test_public_names_are_the_readme_library_api():
    # every name the package exports is listed under "Library API", and
    # every listed name is exported: a test-only export cannot slip back in
    listed = _listed()
    assert len(listed) == len(set(listed))
    assert set(listed) == set(arraycav.__all__) == set(dir(arraycav))


def test_every_public_name_imports_in_a_fresh_interpreter():
    # names load their submodule on first access: each one resolves by
    # ``from arraycav import name``, and an unknown name is an AttributeError
    code = "\n".join(f"from arraycav import {name}" for name in _listed())
    subprocess.run([sys.executable, "-c", code], check=True)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arraycav.no_such_name
