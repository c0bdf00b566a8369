import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_digest_prints_two_stable_sha256s():
    """Two runs over the same corpus print the same two digests: behaviour,
    then failure paths."""
    cmd = [sys.executable, str(ROOT / "scripts" / "trace_digest.py"), "2"]
    outs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
            for _ in range(2)]
    assert re.fullmatch(r"behaviour     [0-9a-f]{64}\nfailure paths [0-9a-f]{64}\n", outs[0]), outs[0]
    assert outs[0] == outs[1]
