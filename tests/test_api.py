import re
import types
from pathlib import Path

import arraycav

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_the_readme_library_api():
    # every name the package exports is listed under "Library API", and
    # every listed name is exported: a test-only export cannot slip back in
    section = README.read_text().split("\n## Library API\n", 1)[1]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]   # the list
    listed = re.findall(r"`(\w+)`", bullets)
    public = {name for name, value in vars(arraycav).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(listed) == len(set(listed))
    assert set(listed) == public
