"""The demos run to completion and print exactly their recorded output."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# SHA-256 of each demo's stdout as first recorded; a change to a demo's
# output updates its digest deliberately.
DIGESTS = {
    "01_split_the_rent.py": "f8ab7e9f0c1831a0bda04b3e13c13f8e894e79de4d3503d76376baa38c5c7997",
    "02_collusion_gallery.py": "652dcda356a3e1884811b1c28de431133eea454f45c34f1cfbfd9d6fc1384931",
    "03_search_for_manipulations.py": "d02cd1e450b65c4bbb656b4d06f31a0005c13dfdecb9b1b17ead122f70ccf116",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=subprocess_env(),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
