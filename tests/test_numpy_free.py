"""The report path runs without numpy: only ``fsr render`` needs it.

The checks run in a subprocess in which ``import numpy`` fails, so this file
must not import numpy itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError

import hashlib, json

import fsrkit.cli
from fsrkit.catalog import CATALOG, get_rule
from fsrkit.dynamics import edge_growth_rate
from fsrkit.io import canonical_json
from fsrkit.multicurves import Lift, MulticurveSpec, classify_multicurve
from fsrkit.report import analyze

digests = {name: hashlib.sha256(
               canonical_json(analyze(get_rule(name)).to_json()).encode()
           ).hexdigest() for name in sorted(CATALOG)}
rate = edge_growth_rate(get_rule("doubling_edge"), "e")
levy = MulticurveSpec(("g",), tuple(Lift("g", "g", 1) for _ in range(4)),
                      map_degree=4)
prof = classify_multicurve(levy)
print(json.dumps({"digests": digests,
                  "rate": [rate.lower, rate.value, rate.upper],
                  "levy": prof.levy,
                  "lambda_inf": prof.lambda_infinity.value}))
"""


def test_report_path_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert out["digests"] == {name: expected["catalog_report"][name]
                              for name in out["digests"]}
    assert len(out["digests"]) == 6
    assert out["rate"] == [2.0, 2.0, 2.0]
    assert out["levy"] is True and out["lambda_inf"] == 4.0
