"""scripts/compare_trees.py finds a tree equal to itself, and names the files
that a changed tree writes differently."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_trees.py"


def compare(tree):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tree), "--matrix", "tiny"],
        capture_output=True, text=True, timeout=300,
    )


def test_the_working_tree_equals_itself_and_not_a_changed_copy(tmp_path):
    same = compare(ROOT)
    assert same.returncode == 0, same.stdout + same.stderr
    count = int(re.search(r"compare_trees: (\d+) artifacts, every one equal",
                          same.stdout).group(1))
    assert count >= 10
    # a copy of the package that indents its JSON by one space, not two
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "bclearn" / "cli.py"
    cli.write_text(cli.read_text().replace("indent=2", "indent=1"))
    changed = compare(tmp_path)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    differing = re.findall(r"^differs: (.*)$", changed.stdout, re.MULTILINE)
    assert differing and all(path.endswith(".json") for path in differing)
    assert f"{count} artifacts, {len(differing)} differ" in changed.stdout
