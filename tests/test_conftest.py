"""The session's check that the tests import the lqmatern that PYTHONPATH names."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import foreign_packages

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def fake_tree(root):
    """A directory holding a package named lqmatern, as a copy's src does."""
    (root / "lqmatern").mkdir(parents=True)
    (root / "lqmatern" / "__init__.py").write_text("")
    return root


def test_only_another_package_is_foreign(tmp_path):
    # the imported package's own directory, by any spelling, an entry with
    # no lqmatern and empty entries pass; another tree's lqmatern does not
    other = fake_tree(tmp_path / "copy" / "src")
    bare = tmp_path / "bare"
    bare.mkdir()
    link = tmp_path / "link"
    link.symlink_to(SRC)
    entries = ["", str(SRC), str(bare), str(other), str(link), str(tmp_path / "missing")]
    assert foreign_packages(os.pathsep.join(entries), SRC / "lqmatern") == [str(other)]
    assert foreign_packages("", SRC / "lqmatern") == []


def test_a_foreign_package_stops_the_session(tmp_path):
    # pytest run from this root with another tree's src on PYTHONPATH
    # collects nothing and names both packages
    other = fake_tree(tmp_path / "copy" / "src")
    env = dict(os.environ, PYTHONPATH=str(other))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--collect-only", "tests/test_seed_ledger.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert str(other) in proc.stderr and str(SRC / "lqmatern") in proc.stderr
