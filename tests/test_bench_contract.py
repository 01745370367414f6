"""The benchmark's call contract with svrand.

`bench/tracer.py` wraps svrand functions where svrand's modules refer to
them, and a traced bench run dies if a wrapped function is gone or off the
path it takes.  The traced runs here cover every span the tracer names; they
run in a subprocess, so that the wrappers do not leak into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED = r"""
import json, sys
src, bench, data, out = sys.argv[1:]
sys.path[:0] = [src, bench]
from tracer import TARGETS, Tracer

tracer = Tracer()
tracer.install()
from svrand import BitSequence, count_substrings  # noqa: F401  (bench/oracle.py, bench/run.py)
from svrand import cli, estimator

codes = [cli.main(argv) for argv in (
    ["analyze", f"{data}/F_42_221500.txt", "--cut", "3,3", "--out", f"{out}/cut"],
    ["analyze", f"{data}/F_55_223000.txt", "--mode", "med", "--out", f"{out}/med"],
    ["synth", f"{out}/F_30_000000.txt", "--n", "200"])]
bits = BitSequence("0110100110010110" * 64)
before = len(tracer.spans)
estimator.weighted_epsilon(estimator.epsilon_profile(bits, mode="cyclic"))
cyclic_counts = sum(span["name"] == "bitseq.count" for span in tracer.spans[before:])
recorded = {span["name"] for span in tracer.spans}
print(json.dumps({"codes": codes, "cyclic_counts": cyclic_counts,
                  "missing": sorted({name for _, _, name, _ in TARGETS} - recorded)}))
"""


def test_traced_runs_record_every_target(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, str(ROOT / "src"), str(ROOT / "bench"),
         str(ROOT / "tests" / "data"), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # The cyclic profile has no length-8 singleton, so it counts to 8 and then to 10.
    assert result == {"codes": [0, 0, 0], "cyclic_counts": 2, "missing": []}, proc.stderr
