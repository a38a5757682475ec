import re
from pathlib import Path

from pipeline import run_in_fresh_interpreter

README = Path(__file__).resolve().parents[1] / "README.md"


def library_usage_snippet() -> str:
    """The ```python block under README's "## Library usage" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python block under '## Library usage'"
    return match.group(1)


def test_readme_library_snippet_runs():
    # An API change must not leave the README's example stale.
    run_in_fresh_interpreter(library_usage_snippet())
