import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_layout_names_every_module():
    # the "Library layout" table lists each module of the package once, and
    # nothing that is not one
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `npad\.(\w+)` \|", section, flags=re.M)
    modules = [name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "npad"))
               if name.endswith(".py") and name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
