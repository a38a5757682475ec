import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

from gfclust.cli import RUN_FLAGS, ExperimentConfig
from gfclust.data import SyntheticSpec
from gfclust.solver import SolverConfig
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


def number_fields() -> dict:
    """Each number field, by its config key: the fields with a declared
    range; a str field's domain is a tuple of names instead."""
    found = {}
    for prefix, config in (
        ("solver.", SolverConfig),
        ("dataset.synthetic.", SyntheticSpec),
        ("", ExperimentConfig),
    ):
        for f in fields(config):
            if isinstance(f.metadata.get("domain"), str):
                found[prefix + f.name] = f
    return found


def range_table() -> list[tuple[str, str, str]]:
    """The key, range and default cells of each row of README's "Config field ranges" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Config field ranges\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| (required|`[^`]+`) \|", section, re.M)


def test_readme_range_table_lists_the_declared_ranges():
    # The table and the checker must not drift apart.
    rows = [(key, bounds) for key, bounds, _ in range_table()]
    assert dict(rows) == {key: f.metadata["domain"] for key, f in number_fields().items()}
    assert len(rows) == len(dict(rows))


def test_readme_range_table_lists_the_declared_defaults():
    # A JSON value in backticks, or `required` for a field without a default.
    listed = {
        key: MISSING if cell == "required" else json.loads(cell.strip("`"))
        for key, _, cell in range_table()
    }
    assert listed == {key: f.default for key, f in number_fields().items()}


def test_readme_flag_list_lists_the_run_flags():
    # The list and the parser must not drift apart.
    text = README.read_text(encoding="utf-8")
    listed = text.split("Flag overrides beat config values and presets: `", 1)[1].split("`", 1)[0]
    flags = ["--" + name.replace("_", "-") for name in RUN_FLAGS]
    assert listed.split() == [*flags, "--output"]
