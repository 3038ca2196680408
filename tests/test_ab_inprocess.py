import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_one_round_of_the_repository_against_itself():
    done = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "ab_inprocess.py"), str(_ROOT), str(_ROOT), "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["call", "parent_s", "change_s", "parent_minflt", "change_minflt", "change", "lower"]
    calls = ["estimate-constant", "hardy-sum power", "hardy-sum e_k", "verify --quick", "total"]
    assert [row.rsplit(None, 5)[0] for row in rows] == calls
    for row in rows:
        parent, change, parent_minflt, change_minflt, lower = row.rsplit(None, 5)[1:]
        assert float(parent) > 0.0 and float(change) > 0.0 and lower in ("0/1", "1/1")
        assert int(parent_minflt) >= 0 and int(change_minflt) >= 0
