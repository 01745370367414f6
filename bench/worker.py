"""The process that does the measured work; started by run.py, one at a time.

    worker.py warmup                 import svrand and run a small pipeline
    worker.py bits SPEC OUT          one timed (or traced) round of library
                                     calls on .npy bit sequences
    worker.py cli SPANS -- ARGS...   svrand.cli.main(ARGS) with every public
                                     function traced, spans written to SPANS
    worker.py series-mb FILE         tracemalloc peak of parse_holter(FILE)

svrand is imported from the checkout's `src`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import svrand  # noqa: E402
from tracer import Tracer, summarise  # noqa: E402

# Library calls go through the `svrand` namespace, so that the wrappers the
# tracer installs there are the ones called.
CUT = svrand.TrendCutPattern(3, 3)


def warmup() -> None:
    import svrand.cli  # noqa: F401
    bits = svrand.BitSequence.from_array(np.random.default_rng(0).integers(0, 2, 4096))
    for mode in ("linear", "cyclic"):
        svrand.weighted_epsilon(svrand.epsilon_profile(bits, mode=mode))
    svrand.weighted_epsilon(svrand.epsilon_profile(svrand.cut_trends(bits, CUT)))


def _profile_result(bits, mode: str) -> dict:
    profile = svrand.epsilon_profile(bits, mode=mode)
    return {"n": len(bits), "H": profile.max_h, "eps": list(profile.epsilons),
            "weighted": svrand.weighted_epsilon(profile)}


def bits_op(array: np.ndarray, mode: str, cut: bool) -> dict:
    """One operation: from_array, profile and weighted, then again after the cut."""
    seq = svrand.BitSequence.from_array(array)
    out = _profile_result(seq, mode)
    if cut:
        out["cut"] = _profile_result(svrand.cut_trends(seq, CUT), mode)
    return out


def bits_round(ops: list[dict], arrays: dict, tracer: Tracer | None = None) -> dict:
    results = []
    start, cpu = time.perf_counter(), time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.op = op["name"]
        t = time.perf_counter()
        try:
            out = bits_op(arrays[op["name"]], op["mode"], op["cut"])
        except Exception as exc:  # counted as a failed operation
            out = {"error": repr(exc)}
        out.update(name=op["name"], seconds=time.perf_counter() - t)
        results.append(out)
    return {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu,
            "ops": results}


def bits(spec_path: str, out_path: str) -> None:
    """One round, in a fresh process so that its peak memory is its own."""
    spec = json.loads(Path(spec_path).read_text())
    arrays = {op["name"]: np.load(op["path"]) for op in spec["ops"]}
    warmup()
    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        tracer.install()
    out = bits_round(spec["ops"], arrays, tracer)
    if tracer is not None:
        out.update(layers=summarise(tracer.spans), counts=dict(tracer.counts),
                   spans=tracer.spans)
    Path(out_path).write_text(json.dumps(out))


def cli(spans_path: str, argv: list[str]) -> int:
    import svrand.cli
    tracer = Tracer()
    tracer.install()
    tracer.op = " ".join(argv[:1])
    code = svrand.cli.main(argv)
    Path(spans_path).write_text(json.dumps({
        "spans": tracer.spans, "layers": summarise(tracer.spans),
        "counts": dict(tracer.counts)}))
    return code


def series_mb(path: str) -> None:
    import tracemalloc
    tracemalloc.start()
    series = svrand.parse_holter(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"records": len(series[1]), "peak_mb": peak / 2**20}))


def main(argv: list[str]) -> int:
    if not Path(svrand.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"svrand imported from {svrand.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cmd = argv[0]
    if cmd == "warmup":
        warmup()
    elif cmd == "bits":
        bits(argv[1], argv[2])
    elif cmd == "cli":
        return cli(argv[1], argv[argv.index("--") + 1:])
    elif cmd == "series-mb":
        series_mb(argv[1])
    else:
        print(f"unknown worker command {cmd!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
