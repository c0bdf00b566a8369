import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_digest_is_one_stable_sha256():
    """Two runs over the same corpus print the same single digest."""
    cmd = [sys.executable, str(ROOT / "scripts" / "trace_digest.py"), "2"]
    outs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
            for _ in range(2)]
    assert re.fullmatch(r"[0-9a-f]{64}\n", outs[0]), outs[0]
    assert outs[0] == outs[1]
