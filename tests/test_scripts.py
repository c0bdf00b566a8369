import os
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


def test_line_reach_prints_the_never_run_lines_per_file_and_their_total():
    """On tests/test_segmem.py alone: no test fails, each listed file has
    its never-run lines ascending, and the last line sums them.  segmem's
    own tests leave few of its lines unrun, and most of minic's."""
    cmd = [sys.executable, str(ROOT / "scripts" / "line_reach.py"), "-q",
           "-p", "no:cacheprovider", str(ROOT / "tests" / "test_segmem.py")]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
    *files, last = out.splitlines()
    total = re.fullmatch(r"(\d+) never-run statement lines", last)
    assert total, out
    missed = {}
    for line in files:
        m = re.fullmatch(r"src/mswasm/(\w+\.py): (\d+(?: \d+)*)", line)
        assert m, line
        lines = [int(n) for n in m[2].split()]
        assert lines == sorted(set(lines))
        missed[m[1]] = len(lines)
    assert sum(missed.values()) == int(total[1])
    assert missed.get("segmem.py", 0) < 20 < missed["minic.py"]


def test_verdict_cost_prints_the_same_call_counts_twice():
    """One line per stage of a judged module; two runs print the same
    modules, calls and calls per module, and only the times may differ."""
    cmd = [sys.executable, str(ROOT / "scripts" / "verdict_cost.py"), "1"]
    outs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
            for _ in range(2)]
    counts = [[line.split()[:4] for line in out.splitlines()[1:]] for out in outs]
    assert [row[0] for row in counts[0]] == [
        "link", "typecheck_module", "init_state", "run", "check_ms"], outs[0]
    assert [row[1] for row in counts[0]] == ["50", "100", "100", "100", "100"]
    assert all(int(row[2]) > 0 for row in counts[0])
    assert counts[0] == counts[1]


def test_fuzz_campaign_starts_from_a_checkout(tmp_path):
    """With N=2, run in an empty directory without PYTHONPATH, it runs the
    three campaigns and exits 0."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, str(ROOT / "scripts" / "fuzz_campaign.py"), "2", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert re.findall(r"^== (\w+) campaign ==$", out.stdout, re.M) == [
        "module", "attacker", "source"], out.stdout
