"""The CI workflow parses as YAML and runs tier 1 as ROADMAP.md states it,
so a step that breaks the file fails here rather than silently in CI."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_steps_parse_and_run_tier_1():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    steps = workflow["jobs"]["tier1"]["steps"]
    for step in steps:
        # an unquoted ": " in a run line makes YAML read it as a mapping, or not at all
        assert ("uses" in step) != ("run" in step) and isinstance(step.get("run", ""), str), step
    tier_1 = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(encoding="utf-8"), re.M)
    assert tier_1.group(1) in [step.get("run") for step in steps]
