"""README's quick-start block runs and prints what its comment says, and the
names it cites resolve, so the documented API cannot drift from the
package."""

import importlib
import pkgutil
import re
from pathlib import Path

import mscgossip

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {
    name: importlib.import_module(f"mscgossip.{name}")
    for _, name, _ in pkgutil.iter_modules(mscgossip.__path__)
    if name != "__main__"  # importing it runs the command line
}


def test_readme_quick_start_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "('a', None)\n"


def _owners(head: str) -> list:
    """What ``head`` in a backticked ``head.name`` stands for: the package,
    one of its modules, or an attribute of one (a class such as ``Msc``)."""
    if head == "mscgossip":
        return [mscgossip]
    if head in MODULES:
        return [MODULES[head]]
    return [getattr(mod, head) for mod in MODULES.values() if hasattr(mod, head)]


def test_readme_names_resolve():
    # every backticked module.name (or Class.name) and private _name
    spans = set(re.findall(r"`([^`\n]+)`", README.read_text()))
    checked, missing = 0, []
    for span in sorted(spans):
        if re.fullmatch(r"\w+\.\w+", span):
            head, name = span.split(".")
            owners = _owners(head)
            if not owners:
                continue  # not a package name, as in `m.events`
            found = any(hasattr(owner, name) for owner in owners)
        elif re.fullmatch(r"_\w+", span):
            found = any(hasattr(mod, span) for mod in MODULES.values())
        else:
            continue
        checked += 1
        if not found:
            missing.append(span)
    assert not missing
    assert checked >= 24
