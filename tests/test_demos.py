"""Every demo script runs to completion and prints exactly its recorded text.

The digests are the sha256 of each demo's stdout; they do not depend on
PYTHONHASHSEED (checked under 0, 1 and 7).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "demo_af_realization.py": "c73b76f9b17f2b949f5c355b5f4583ab487a2cfd612851955c85723f27ba2b3e",
    "demo_bouquet_bisections.py": "32c8a0b79fd41f5952589e976affe42cbd02f9d9b591df2ee81e8f153730da07",
    "demo_bratteli_telescoping.py": "4cc129c9def2d29e8d61f66dd2838b510d7167398ef7d8ad4297acabe8e63fd6",
    "demo_convolution_identities.py": "cc959589ab816eb40572044ab7a856fdb30927c2822fcbb914f33aea6da237c8",
    "demo_dimension_groups.py": "a7fb23a2bae686a2670baa9015340640d36c604e6e602193a044d35382c4edae",
    "demo_rank2_realization.py": "bd14383c3b841c9f8800c4c2b091e22d13cade9abc71a73e38f782031489be33",
    "demo_rank2_worked_example.py": "240e8995d7555c083e68278bf7d83447e3a056b276d85c4d8e229ec58dc63b98",
    "demo_twisted_products.py": "893603562819fd8a0c52a3fb97d959bf026c66122555fca77976a439b052dc91",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
