import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: sha256 of each demo's stdout; a demo prints exact rationals and Monte
#: Carlo values at fixed seeds, so any change to what it prints fails here
DEMO_STDOUT_SHA256 = {
    "01_counting_and_bounds.py":
        "82698d633ebde323019732465ae834f950d4f1ae384bf573b4a26a53379921f1",
    "02_exact_wick_oracle.py":
        "7a3fca59028210ed6c3358f72da9317fd680a1046ad67519dc33df9ed755d0dd",
    "03_freeness_verdicts.py":
        "146d1107741b96f81e50747811511ea5e1ab607cfdf62c566aafc6468268371f",
}


def test_every_demo_is_checked():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_prints_its_recorded_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name], \
        proc.stdout.decode()
