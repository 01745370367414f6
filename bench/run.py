"""svrand benchmark: four workloads, timed end to end, traced per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cohort_med, synth_cohort, bits_linear, bits_cyclic, or `all` (each
in turn, then one combined line).  Inputs come from the seed alone (see
inputs.py); svrand is imported from the checkout's `src`.  Every run checks
the program's outputs against oracle.py and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics.  Their times are in reference
seconds: each measured time is scaled by a speed gauge read just before and
after it (see gauge.py); the plain times go to the results file.

--trace 1 is the separate traced run: one traced round of every workload
(so every per-layer metric is measured on the workload it belongs to), and
on the named workload three untraced rounds, alternating with traced ones,
for the tracing overhead.

Exit codes: 0 done (see `correct` and `failed`), 2 the checkout has no
svrand sources, 3 the benchmark itself failed.
"""

from __future__ import annotations

import os

# One thread per process: the only load is the single process doing the work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from gauge import Gauge  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUP_REPEATS = 5
OVERHEAD_PAIRS = 3


# -- child processes ---------------------------------------------------------

class Launcher:
    """The small process that starts every measured child (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([PY, str(BENCH / "launcher.py")], cwd=ROOT, env=CHILD_ENV,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout_path: Path | None = None) -> dict:
        """Run one process to completion; returns wall time, exit code and rusage."""
        request = {"argv": argv, "stdout": str(stdout_path) if stdout_path else None}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=200)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def svrand_cmd(args: list[str], spans: Path | None = None) -> list[str]:
    if spans is None:
        return [PY, "-m", "svrand.cli", *args]
    return [PY, str(BENCH / "worker.py"), "cli", str(spans), "--", *args]


def repeat_rounds(one_round, seconds: float) -> list[dict]:
    """At least one whole round; another starts only if it is expected to end within `seconds`."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed / len(done) * (len(done) + 1) > seconds:
            return done


# -- workloads ---------------------------------------------------------------

class Workload:
    """A fixed round of operations on inputs made from one seed.

    `prepare` makes the inputs and sets `items` (input items per round);
    `one_round` runs one round and returns its outputs and its wall time,
    plain (`wall`) and in reference seconds (`scaled`, see gauge.py);
    `outcome` counts attempted and failed operations and checks the outputs.
    """

    name = ""
    gauge_parts: tuple[str, ...] = ()   # the kinds of work it does (see gauge.py)

    def __init__(self, seed: int, work: Path, launch, gauge: Gauge):
        self.seed = seed
        self.work = work
        self.launch = launch   # Launcher.run
        self.gauge = gauge
        self.round_ids = itertools.count()

    def rounds(self, seconds: float, traced: bool = False) -> list[dict]:
        return repeat_rounds(lambda: self.one_round(next(self.round_ids), traced), seconds)


class CommandWorkload(Workload):
    """Rounds of `svrand` commands, each its own process, run one at a time."""

    gauge_parts = ("text", "array")

    def one_round(self, k: int, traced: bool) -> dict:
        tag = f"{'traced' if traced else 'round'}{k}"
        out_dir = self.work / tag
        out_dir.mkdir(parents=True)
        ops, layers, counts = [], defaultdict(float), defaultdict(float)
        for i, args in enumerate(self.commands(out_dir)):
            spans = self.work / f"{tag}-spans{i}.json" if traced else None
            res = self.gauge.bracket(lambda: self.launch(svrand_cmd(args, spans)))
            ops.append(res)
            if traced and res["code"] == 0:
                doc = json.loads(spans.read_text())
                for key, v in doc["layers"].items():
                    layers[key] += v
                for key, v in doc["counts"].items():
                    counts[key] += v
                res["spans"] = doc["spans"]
        return {"wall": sum(op["wall"] for op in ops),
                "scaled": sum(op["scaled"] for op in ops),
                "ops": ops, "dir": out_dir, "layers": layers, "counts": counts}

    def peak_rss_mb(self, rounds) -> float:
        return max(op["maxrss_mb"] for r in rounds for op in r["ops"])

    def outcome(self, rounds) -> tuple[int, int, list[str]]:
        attempted = sum(len(r["ops"]) for r in rounds)
        failed = sum(op["code"] != 0 for r in rounds for op in r["ops"])
        problems = []
        for r in rounds:
            if all(op["code"] == 0 for op in r["ops"]):
                problems += self.check_round(r["dir"])
        return attempted, failed, problems

    def startup_s(self) -> float:
        """Interpreter start plus `import svrand.cli`, median of three."""
        walls = [self.launch([PY, "-c", "import svrand.cli"])["wall"] for _ in range(3)]
        return statistics.median(walls)


class CohortMed(CommandWorkload):
    name = "cohort_med"

    def prepare(self):
        self.recordings = inputs.cohort(self.seed)
        self.files = inputs.write_cohort(self.recordings, self.work / "cohort")
        self.items = sum(r.interval_ms.size for r in self.recordings)

    def commands(self, out_dir):
        return [["analyze", *map(str, self.files), "--mode", "med", "--format", "both",
                 "--out", str(out_dir)]]

    @functools.cached_property
    def expected(self) -> dict:
        """Per person id: the recording and the oracle's med-mode profile."""
        return {r.name: (r, oracle.med_pipeline(r.clock_ms, r.interval_ms, r.normal))
                for r in self.recordings}

    def check_round(self, out_dir):
        bad = []
        doc = json.loads((out_dir / "report.json").read_text())
        expected = self.expected
        persons = {p["person_id"]: p for p in doc["persons"]}
        if sorted(persons) != sorted(expected):
            return [f"persons {sorted(persons)} != {sorted(expected)}"]
        buckets = defaultdict(list)
        for pid, (rec, want) in expected.items():
            got = persons[pid]
            buckets[(rec.sex, rec.age // 10 * 10)].append((want["weighted"], got["eps_weighted"]))
            if (got["n_bits"], got["H"], got["mode"]) != (want["n"], want["H"], "med"):
                bad.append(f"{pid}: n_bits/H/mode {got['n_bits']}/{got['H']}/{got['mode']} "
                           f"!= {want['n']}/{want['H']}/med")
                continue
            for h, (g, w) in enumerate(zip(got["epsilons"], want["eps"])):
                if not oracle.same6(g, w):
                    bad.append(f"{pid}: eps_{h} {g} != {w}")
            if not oracle.same6(got["eps_weighted"], want["weighted"]):
                bad.append(f"{pid}: eps_weighted {got['eps_weighted']} != {want['weighted']}")
        cohorts = {(c["sex"], c["decade"]): c for c in doc["cohorts"]}
        if sorted(cohorts) != sorted(buckets):
            bad.append(f"cohorts {sorted(cohorts)} != {sorted(buckets)}")
        for key, pairs in buckets.items():
            c = cohorts.get(key)
            if c is None:
                continue
            exact = [w for w, _ in pairs]
            shown = [g for _, g in pairs]
            qs = [c[f"q{i}"] for i in range(5)]
            if c["count"] != len(pairs):
                bad.append(f"cohort {key}: count {c['count']} != {len(pairs)}")
            if qs[0] != min(shown) or qs[4] != max(shown) or qs != sorted(qs):
                bad.append(f"cohort {key}: quartiles {qs} vs persons {shown}")
            want = oracle.quartiles7(exact) + [math.fsum(exact) / len(exact)]
            for label, g, w in zip(("q0", "q1", "q2", "q3", "q4", "mean"), qs + [c["mean"]], want):
                if not oracle.same6(g, w):
                    bad.append(f"cohort {key}: {label} {g} != {w}")
        if doc["unknown_metadata"]:
            bad.append(f"unknown metadata: {doc['unknown_metadata']}")
        def table(name):
            text = (out_dir / name).read_text(encoding="utf-8")
            return list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))

        if {r["person_id"]: float(r["eps_weighted"]) for r in table("persons.csv")} != {
                pid: p["eps_weighted"] for pid, p in persons.items()}:
            bad.append("persons.csv disagrees with report.json")
        if len(table("cohorts.csv")) != len(cohorts):
            bad.append("cohorts.csv row count disagrees with report.json")
        return bad

    def layer_metrics(self, rnd: dict) -> dict:
        lay, cnt = rnd["layers"], rnd["counts"]
        probe = self.work / "series-mb.json"
        self.launch([PY, str(BENCH / "worker.py"), "series-mb", str(self.files[0])], probe)
        return {
            "cli.startup_s": (self.startup_s(), "s"),
            "cli.self_s": (lay["cli.main_s"], "s"),
            "ingest.parse_s": (lay["ingest.parse_s"], "s"),
            "ingest.records_parsed": (cnt["ingest.records_parsed"], "count"),
            "ingest.bytes_parsed": (cnt["ingest.bytes_parsed"], "B"),
            "ingest.series_mb": (json.loads(probe.read_text())["peak_mb"], "MiB"),
            "ingest.filter_s": (lay["ingest.filter_s"], "s"),
            "ingest.records_kept_ratio": (cnt["ingest.records_kept"]
                                          / cnt["ingest.records_filtered_in"], "ratio"),
            "ingest.nocturnal_s": (lay["ingest.nocturnal_s"], "s"),
            "ingest.window_records": (cnt["ingest.window_records"], "count"),
            "ingest.edit_s": (lay["ingest.edit_s"], "s"),
            "ingest.records_edited": (cnt["ingest.records_edited"], "count"),
            "ingest.records_dropped": (cnt["ingest.edit_in"] - cnt["ingest.edit_out"], "count"),
            "transform.discretize_s": (lay["transform.discretize_s"], "s"),
            "transform.bits_out": (cnt["transform.bits_out"], "count"),
            "bitseq.from_array_s": (lay["bitseq.from_array_s"], "s"),
            "bitseq.count_s": (lay["bitseq.count_s"], "s"),
            "estimator.profile_s": (lay["estimator.inclusive_s"], "s"),
            "estimator.self_s": (lay["estimator.profile_s"], "s"),
            "estimator.weighted_s": (lay["estimator.weighted_s"], "s"),
            "estimator.histories": (cnt["estimator.histories"], "count"),
            "cohort.bucket_s": (lay["cohort.bucket_s"], "s"),
            "cohort.persons": (cnt["cohort.persons"], "count"),
            "report.render_s": (lay["report.render_s"], "s"),
            "report.bytes": (cnt["report.bytes"], "B"),
        }


class SynthCohort(CommandWorkload):
    name = "synth_cohort"

    def prepare(self):
        self.jobs = inputs.synth_jobs(self.seed)
        self.items = sum(j.n for j in self.jobs)

    def commands(self, out_dir):
        return [["synth", str(out_dir / f"{j.name}.txt"), "--n", str(j.n), "--seed", str(j.seed)]
                for j in self.jobs]

    @functools.cached_property
    def expected(self) -> dict:
        """Per file: index and clock cells, and intervals, by the documented formula."""
        out = {}
        for job in self.jobs:
            iv = oracle.synth_intervals(job.n, job.seed)
            ms = (np.round(np.cumsum(iv) * 1000).astype(np.int64) % inputs.MS_PER_DAY).tolist()
            clock = [f"{m // 3600000:02d}:{m // 60000 % 60:02d}:{m // 1000 % 60:02d}.{m % 1000:03d}"
                     for m in ms]
            out[job.name] = ([str(k) for k in range(1, job.n + 1)], clock, iv)
        return out

    def check_round(self, out_dir):
        bad = []
        for job in self.jobs:
            text = (out_dir / f"{job.name}.txt").read_text(encoding="utf-8")
            lines = text.split("\n")
            if lines[0] != inputs.HOLTER_HEADER or lines[-1] != "":
                bad.append(f"{job.name}: header or final newline")
                continue
            cells = "\t".join(lines[1:-1]).split("\t")
            if len(cells) != 4 * job.n:
                bad.append(f"{job.name}: {len(cells) / 4} rows, expected {job.n}")
                continue
            index, clock, iv = self.expected[job.name]
            if cells[0::4] != index:
                bad.append(f"{job.name}: index column")
            if cells[1::4] != clock:
                bad.append(f"{job.name}: clock column")
            if not np.allclose(np.array(cells[2::4], dtype=float), iv, rtol=0, atol=1e-12):
                bad.append(f"{job.name}: interval column")
            if set(cells[3::4]) != {"N"}:
                bad.append(f"{job.name}: annotation column")
        return bad

    def layer_metrics(self, rnd):
        lay, cnt = rnd["layers"], rnd["counts"]
        return {
            "cli.startup_s": (self.startup_s(), "s"),
            "cli.self_s": (lay["cli.main_s"], "s"),
            "synth.rr_s": (lay["synth.rr_s"], "s"),
            "synth.records": (cnt["synth.records"], "count"),
            "ingest.write_s": (lay["ingest.write_s"], "s"),
            "ingest.bytes_written": (cnt["ingest.bytes_written"], "B"),
        }


class BitsWorkload(Workload):
    """Library calls on seeded bit sequences; each round in its own worker process."""

    mode = ""
    cut = False

    def prepare(self):
        self.arrays = self.sources()
        self.ops = []
        for name, arr in self.arrays.items():
            path = self.work / f"{name}.npy"
            np.save(path, arr)
            self.ops.append({"name": name, "path": str(path), "mode": self.mode, "cut": self.cut})
        self.items = sum(a.size for a in self.arrays.values())

    def one_round(self, k: int, traced: bool) -> dict:
        return self.gauge.bracket(lambda: self.worker_round(k, traced))

    def worker_round(self, k: int, traced: bool) -> dict:
        """The worker's own timing of its calls, which leaves out its start and warm-up."""
        tag = f"{'traced' if traced else 'round'}{k}"
        spec, out = self.work / f"{tag}-spec.json", self.work / f"{tag}-out.json"
        spec.write_text(json.dumps({"ops": self.ops, "traced": traced}))
        res = self.launch([PY, str(BENCH / "worker.py"), "bits", str(spec), str(out)])
        if res["code"] != 0:
            return {"wall": res["wall"], "maxrss_mb": res["maxrss_mb"],
                    "ops": [{"name": op["name"], "error": "worker failed"} for op in self.ops]}
        return dict(json.loads(out.read_text()), maxrss_mb=res["maxrss_mb"])

    def peak_rss_mb(self, rounds) -> float:
        return max(r["maxrss_mb"] for r in rounds)

    @functools.cached_property
    def expected(self) -> dict:
        """Per sequence: the oracle's profile, and that of its cut."""
        out = {}
        for name, arr in self.arrays.items():
            out[name] = oracle.profile(arr, cyclic=self.mode == "cyclic")
            if self.cut:
                out[name]["cut"] = oracle.profile(oracle.trend_cut(arr))
        return out

    def outcome(self, rounds):
        attempted = sum(len(r["ops"]) for r in rounds)
        failed = sum("error" in op for r in rounds for op in r["ops"])
        bad = []
        for r in rounds:
            for op in r["ops"]:
                if "error" not in op:
                    bad += self.check_op(op, self.expected[op["name"]])
        return attempted, failed, bad

    def check_op(self, got: dict, want: dict, label: str = "") -> list[str]:
        name = got["name"] + label
        if (got["n"], got["H"]) != (want["n"], want["H"]):
            return [f"{name}: n/H {got['n']}/{got['H']} != {want['n']}/{want['H']}"]
        bad = [f"{name}: eps_{h} {g} != {w}"
               for h, (g, w) in enumerate(zip(got["eps"], want["eps"])) if not oracle.close(g, w)]
        if not oracle.close(got["weighted"], want["weighted"]):
            bad.append(f"{name}: weighted {got['weighted']} != {want['weighted']}")
        if label:
            return bad
        if name.startswith("coin"):
            # eps_0 of a biased coin: six binomial standard deviations.
            tol = 6 * math.sqrt(0.25 / want["n"])
            if abs(got["eps"][0] - inputs.COIN_EPS) > tol:
                bad.append(f"{name}: eps_0 {got['eps'][0]} not within {tol} "
                           f"of {inputs.COIN_EPS}")
        if name.startswith("sv"):
            # eps at h = memory: every history has at least `least` successors, so
            # each ratio is within six standard deviations of its true value.
            least = int(want["levels"][inputs.SV_MEMORY - 1].min())
            tol = 6 * math.sqrt(0.25 / least)
            est = got["eps"][inputs.SV_MEMORY]
            if abs(est - inputs.SV_EPS) > tol:
                bad.append(f"{name}: eps_{inputs.SV_MEMORY} {est} not within {tol} "
                           f"of {inputs.SV_EPS}")
        if name.startswith("debruijn") and (any(got["eps"]) or got["weighted"] != 0):
            bad.append(f"{name}: De Bruijn profile not all zero")
        if "cut" in want:
            bad += self.check_op(dict(got["cut"], name=got["name"]), want["cut"], "+cut")
        return bad

    def layer_metrics(self, rnd):
        lay, cnt = rnd["layers"], rnd["counts"]
        out = {
            "bitseq.from_array_s": (lay["bitseq.from_array_s"], "s"),
            "bitseq.count_s": (lay["bitseq.count_s"], "s"),
            "bitseq.windows_counted": (cnt["bitseq.windows_counted"], "count"),
            "bitseq.table_entries": (cnt["bitseq.table_entries"], "count"),
            "bitseq.table_occupancy": (cnt["bitseq.table_nonzero"] / cnt["bitseq.table_top"],
                                       "ratio"),
            "estimator.profile_s": (lay["estimator.inclusive_s"], "s"),
            "estimator.self_s": (lay["estimator.profile_s"], "s"),
            "estimator.weighted_s": (lay["estimator.weighted_s"], "s"),
            "estimator.histories": (cnt["estimator.histories"], "count"),
        }
        if self.cut:
            out["transform.cut_s"] = (lay["transform.cut_s"], "s")
            out["transform.cut_kept_ratio"] = (cnt["transform.cut_out"] / cnt["transform.cut_in"],
                                               "ratio")
        return out


class BitsLinear(BitsWorkload):
    name, mode, cut = "bits_linear", "linear", True
    gauge_parts = ("array",)

    def sources(self):
        return {"coin_1e6": inputs.biased_coin(self.seed, 10, 10**6),
                "sv_1e6": inputs.sv_source(self.seed, 11, 10**6),
                "sv_1e7": inputs.sv_source(self.seed, 12, 10**7)}


class BitsCyclic(BitsWorkload):
    name, mode, cut = "bits_cyclic", "cyclic", False
    gauge_parts = ("text", "array")

    def sources(self):
        return {"coin_1e5": inputs.biased_coin(self.seed, 20, 10**5),
                "sv_3e5": inputs.sv_source(self.seed, 21, 3 * 10**5),
                "debruijn_20": inputs.debruijn(self.seed)}


WORKLOADS = {w.name: w for w in (CohortMed, SynthCohort, BitsLinear, BitsCyclic)}


# -- runs --------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import svrand
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        # Uncommitted changes mean the code measured is not `commit` itself.
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "svrand": svrand.__version__, "commit": commit, "dirty": dirty,
            "platform": platform.platform()}


def self_test_oracle() -> list[str]:
    from svrand import BitSequence, count_substrings
    return [f"oracle self-test: {f}" for f in oracle.self_test(count_substrings, BitSequence)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_run(name: str, seed: int, seconds: float, work: Path, launch) -> dict:
    """End-to-end metrics; times in reference seconds (see gauge.py)."""
    gauge = Gauge(WORKLOADS[name].gauge_parts)

    def set_up():
        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed, fresh_dir(work / name), launch, gauge)
        wl.prepare()
        # A fresh process imports svrand, compiling its bytecode in a fresh
        # checkout, and runs a small pipeline, as the measured processes will.
        if launch([PY, str(BENCH / "worker.py"), "warmup"])["code"] != 0:
            raise RuntimeError("warm-up failed")
        return {"wall": time.perf_counter() - t0, "workload": wl}

    setups = [gauge.bracket(set_up) for _ in range(SETUP_REPEATS)]
    wl = setups[-1]["workload"]
    rounds = wl.rounds(seconds)
    attempted, failed, problems = wl.outcome(rounds)
    walls = [r["wall"] for r in rounds]
    wall = statistics.mean(r["scaled"] for r in rounds)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "throughput_per_s": {"value": wl.items / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": wl.peak_rss_mb(rounds), "unit": "MiB"},
        "setup_s": {"value": statistics.median(s["scaled"] for s in setups), "unit": "s"},
    }
    raw_setups = [s["wall"] for s in setups]
    detail = {"round_walls": walls, "setups": raw_setups, "gauge_readings": gauge.readings,
              "raw_wall_s": statistics.mean(walls), "raw_setup_s": statistics.median(raw_setups),
              "items_per_round": wl.items,
              "op_walls": [[op.get("wall", op.get("seconds")) for op in r["ops"]] for r in rounds],
              "cpu_s": [r.get("cpu", sum(op.get("cpu", 0) for op in r["ops"])) for r in rounds]}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "detail": detail}


def traced_run(name: str, seed: int, work: Path, launch) -> dict:
    """One traced round of every workload, and the overhead on the named one.

    On the named workload, untraced and traced rounds alternate
    OVERHEAD_PAIRS times; the overhead is the median difference within a
    pair, in reference seconds.  Self times are in plain seconds.
    """
    attempted = failed = 0
    problems, metrics, spans = [], {}, {}
    for other, cls in WORKLOADS.items():
        wl = cls(seed, fresh_dir(work / other), launch, Gauge(cls.gauge_parts))
        wl.prepare()
        launch([PY, str(BENCH / "worker.py"), "warmup"])
        pairs = OVERHEAD_PAIRS if other == name else 1
        plain, traced = [], []
        for _ in range(pairs):
            if other == name:
                plain += wl.rounds(0)
            traced += wl.rounds(0, traced=True)
        a, f, p = wl.outcome(plain + traced)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if f:
            continue
        for key, (value, unit) in wl.layer_metrics(traced[0]).items():
            metrics[f"{other}.{key}"] = {"value": value, "unit": unit}
        spans[other] = [r.get("spans") or [op.get("spans") for op in r["ops"]] for r in traced]
        if plain:
            diffs = [t["scaled"] - u["scaled"] for u, t in zip(plain, traced)]
            overhead = statistics.median(diffs)
            base = statistics.median(u["scaled"] for u in plain)
            first = traced[0]
            recorded = first.get("spans") or [s for op in first["ops"] for s in op["spans"]]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.overhead_share"] = {"value": overhead / base, "unit": "ratio"}
            metrics["trace.spans"] = {"value": len(recorded), "unit": "count"}
            metrics["trace.count_s"] = {"value": first["layers"].get("trace_s", 0.0), "unit": "s"}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "spans": spans}


def run_one(name: str, seed: int, seconds: float, trace: bool, env: dict, launch) -> dict:
    work = fresh_dir(WORK / f"run-{name}-{seed}-{os.getpid()}")
    try:
        result = (traced_run(name, seed, work, launch) if trace
                  else timed_run(name, seed, seconds, work, launch))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["problems"] = self_test_oracle() + result["problems"]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    kind = "TRACE" if trace else "BENCH"
    path = results_dir / f"{kind}_{name}_seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                "trace": trace, "env": env, **result}, indent=1))
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{name}: {path.relative_to(ROOT)}")
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "svrand" / "__init__.py").is_file():
        print(f"no svrand sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import svrand
    if not Path(svrand.__file__).resolve().is_relative_to(SRC):
        print(f"svrand resolved to {svrand.__file__}, outside {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    launcher = Launcher()
    try:
        for name in names:
            lines[name] = run_one(name, args.seed, args.seconds, bool(args.trace), env,
                                  launcher.run)
            if len(names) > 1:
                print(f"result {name}: " + json.dumps(lines[name]))
    finally:
        launcher.close()
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in lines.values()),
                 "attempted": sum(r["attempted"] for r in lines.values()),
                 "failed": sum(r["failed"] for r in lines.values()),
                 "metrics": {f"{n}.{k}": v for n, r in lines.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the benchmark itself failed: no result line
        import traceback
        traceback.print_exc()
        sys.exit(3)
