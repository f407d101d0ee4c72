import hashlib
import os
import subprocess
import sys

import pytest

import charwit

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")

# SHA-256 of each demo's stdout, frozen when the demos were last changed:
# every demo prints exact values only, so its bytes are reproducible.
DEMO_SHA256 = {
    "01_l_classes.py":
        "3ade02cc57c79264d903b345da04551c5ecf1cd83f6153b7a1a844542f822fd4",
    "02_cyclic_classes.py":
        "4f9a0de4b1df91ef03d79c775590ed00a3ab89d71e543c13d0aa61e235bdc428",
    "03_witness_pipeline.py":
        "e602da01f498e2344b9613f6480bb6ff4e78d334af45a7d3e5122e42af891f89",
    "04_hermitian_forms.py":
        "627414601c3230e03f409bfc72e44dc1d7c9040f8ddbd32e8e39a43cc8129d6e",
}


def test_every_demo_is_frozen():
    assert sorted(DEMO_SHA256) == sorted(
        name for name in os.listdir(DEMOS) if name.endswith(".py"))


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_frozen(name):
    src = os.path.dirname(os.path.dirname(charwit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                         env=env, capture_output=True, check=True,
                         timeout=60).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[name]
