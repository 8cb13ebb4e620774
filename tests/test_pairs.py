import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"

# a stand-in for perfbench/run.py: it logs which side ran with what
# arguments, and prints a canned result whose verdict_s tells the sides apart
STUB = '''import json, sys
from pathlib import Path
side = Path("src/side.txt").read_text().strip()
with open({log!r}, "a") as fh:
    fh.write(side + " " + " ".join(sys.argv[1:]) + "\\n")
if side == {fail!r}:
    sys.exit(3)
print("fingerprint burke 0123 matches reference")
print("reports_changed 0 (of 1 reports)")
print(json.dumps({{"correct": True, "attempted": 2, "failed": 0, "metrics": {{
    "verdict_s": {{"value": {{"base": 2.0, "head": 1.0}}[side], "unit": "s"}},
    "peak_rss_mb": {{"value": 80.0, "unit": "MB"}}}}}}))
'''


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                    *args], cwd=repo, check=True, capture_output=True)


def _repo(tmp_path, fail=None):
    """Two commits: the base, whose own harness is broken, and the head."""
    repo, log = tmp_path / "repo", tmp_path / "log.txt"
    (repo / "src").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    _git(repo, "init", "-q")
    (repo / "src" / "side.txt").write_text("base\n")
    (repo / "perfbench" / "run.py").write_text("import sys\nsys.exit(5)\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "side.txt").write_text("head\n")
    (repo / "perfbench" / "run.py").write_text(STUB.format(log=str(log), fail=fail))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "head")
    return repo, log


def _pairs(repo, *args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=repo, text=True,
                          capture_output=True, timeout=120)


def _worktrees(repo):
    out = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=repo,
                         check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if line.startswith("worktree ")]


def test_pairs_alternate_and_summarize_the_last_json_line(tmp_path):
    repo, log = _repo(tmp_path)
    res = _pairs(repo, "HEAD~", "--workload", "resume", "--pairs", "3",
                 "--seconds", "0.5", "--json", str(tmp_path / "pairs.json"))
    assert res.returncode == 0, res.stderr
    runs = [line.split() for line in log.read_text().splitlines()]
    # the head's harness ran on both sides, the base first in odd pairs
    assert [r[0] for r in runs] == ["base", "head", "head", "base", "base", "head"]
    assert all(r[1:] == ["--workload", "resume", "--seed", "20261017",
                         "--seconds", "0.5"] for r in runs)
    summary = json.loads((tmp_path / "pairs.json").read_text())["summary"]
    assert summary["verdict_s"]["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["verdict_s"]["head_lower"] == 3 and summary["verdict_s"]["gain"]
    assert summary["peak_rss_mb"]["head_lower"] == 0
    assert not summary["peak_rss_mb"]["gain"]
    assert "side base: reports_changed 0 0 0  correct true true true  failed 0 0 0" \
        in res.stdout
    assert _worktrees(repo) == [f"worktree {repo}"]


@pytest.mark.parametrize("fail", ["head", "base"])
def test_a_failed_run_exits_1_and_removes_the_worktree(tmp_path, fail):
    repo, log = _repo(tmp_path, fail=fail)
    res = _pairs(repo, "HEAD~", "--workload", "resume", "--pairs", "2",
                 "--seconds", "0.5")
    assert res.returncode == 1
    assert "exited 3" in res.stderr
    assert _worktrees(repo) == [f"worktree {repo}"]


def test_a_bad_base_exits_2(tmp_path):
    repo, _ = _repo(tmp_path)
    assert _pairs(repo, "no-such-commit", "--workload", "resume").returncode == 2
