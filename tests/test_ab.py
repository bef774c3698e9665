import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Appended to a copy's core.py: quaternion_to_covariance's (0, 0) entry one ulp higher.
ONE_ULP = '''

_quaternion_to_covariance = quaternion_to_covariance


def quaternion_to_covariance(g):
    c = _quaternion_to_covariance(g)
    c[0, 0] = np.nextafter(c[0, 0], np.inf)
    return c
'''


@pytest.fixture
def repo(tmp_path):
    """A git repository of this tree's library, benchmark and tools, committed once."""
    for part in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
    git = ["git", "-c", "user.name=ab", "-c", "user.email=ab@localhost", "-c",
           "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "copy"]):
        subprocess.run(git + cmd, cwd=tmp_path, check=True)
    return tmp_path


def _ab(repo, *args):
    return subprocess.run([sys.executable, str(repo / "tools" / "ab.py"), "--processes", "0",
                           *args], cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=300)


def _case(out, name):
    (line,) = [x for x in out.splitlines() if x.strip().startswith(name + " ")]
    return line


def test_head_against_itself_is_all_equal(repo):
    proc = _ab(repo)
    assert proc.returncode == 0, proc.stdout
    counts = _case(proc.stdout, "all").split("equal ")[1]
    same, calls = map(int, counts.split("/"))
    assert same == calls > 0
    assert "difference" not in proc.stdout


def test_a_one_ulp_change_is_found_and_named(repo):
    core = repo / "src" / "proxysplat" / "core.py"
    core.write_text(core.read_text() + ONE_ULP)
    proc = _ab(repo, "quaternion_to_covariance", "project_point")
    assert proc.returncode == 1, proc.stdout
    line = _case(proc.stdout, "quaternion_to_covariance")
    assert "equal 0/" in line and "first difference result[(0, 0)]" in line
    assert "difference" not in _case(proc.stdout, "project_point")
