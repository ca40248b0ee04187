import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs():
    """Shrunk copies of every benchmark workload build, serve and pass their
    checks, so each library function the benchmark traces still exists."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
