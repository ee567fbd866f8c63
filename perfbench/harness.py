"""Shared plumbing: environment hygiene, spans, percentiles, child processes.

Nothing here knows about a particular workload; ``run.py`` wires these
pieces to the four workloads.  Importing this module has no side effects.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import platform
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


_EVERYWHERE = ("setup_s", "pass_s", "peak_rss_mb")
_PER_SYSTEM = ("ss_s", "gb_s", "ls_s")
_API = ("submit_p50_ms", "submit_p90_ms", "read_p50_ms", "read_p90_ms")

#: The end-to-end metrics each workload actually measures.  A run must
#: print every end-to-end name, so the others report that workload's
#: ``pass_s`` in their unit; ``compare.py`` skips those pairs.
NATIVE_END_TO_END = {
    "kernels-rmat16": _EVERYWHERE + _PER_SYSTEM,
    "rounds-road": _EVERYWHERE + _PER_SYSTEM,
    "study-grid": _EVERYWHERE,
    "service-http": _EVERYWHERE + _API,
}


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Environment hygiene and host fingerprint
# ----------------------------------------------------------------------

def scrub_repro_env(environ=None) -> List[str]:
    """Drop every inherited ``REPRO_*`` variable; returns the names dropped.

    The benchmark runs the program in its default configuration, so a knob
    left over in the caller's shell must not leak into a measurement.
    """
    environ = os.environ if environ is None else environ
    dropped = sorted(name for name in environ if name.startswith("REPRO_"))
    for name in dropped:
        del environ[name]
    return dropped


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint(seed: int) -> dict:
    """What a reader needs to judge whether two result files compare."""
    import numpy

    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "load1_at_start": load1,
        # More runnable tasks than cores before we even start: timings
        # from this run are suspect.
        "noisy": load1 > nproc,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie strictly above percentile ``p``."""
    return n - _rank(n, p)


def _rank(n: int, p: float) -> int:
    return min(n, max(1, math.ceil(n * p / 100.0 - 1e-9)))


def percentile(samples: Iterable[float], p: float,
               allow_thin: bool = False) -> float:
    """Nearest-rank percentile of ``samples``.

    Above the median a percentile needs :data:`MIN_SAMPLES_BEYOND` samples
    beyond it, or it is one or two outliers rather than a tail;
    ``ValueError`` otherwise.  ``allow_thin`` waives the rule for per-layer
    p99s that are recorded for diagnosis and carry no bound.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if (p > 50.0 and not allow_thin
            and samples_beyond(len(ordered), p) < MIN_SAMPLES_BEYOND):
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples has fewer than "
            f"{MIN_SAMPLES_BEYOND} samples beyond it")
    return ordered[_rank(len(ordered), p) - 1]


def quartiles(values: Iterable[float]):
    """(q1, median, q3) as the driver computes them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Tracer:
    """In-memory span recorder, flushed once at exit.

    A span is ``{id, parent, trace, name, start, end}`` plus free-form
    attributes; ``trace`` is the pass or job the span belongs to.  Clock is
    ``time.time()`` so spans rebuilt from the queue's event timestamps line
    up with spans the harness timed itself.  Disabled, :meth:`span` is a
    no-op context and nothing is stored.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._stack: List[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, trace=None, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "trace": trace if trace is not None
            else (parent["trace"] if parent else None),
            "name": name,
            "start": time.time(),
            "end": None,
            **attrs,
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.time()
            self._stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent=None,
            trace=None, **attrs) -> Optional[dict]:
        """Record a span whose endpoints were observed elsewhere."""
        if not self.enabled:
            return None
        record = {"id": next(self._ids),
                  "parent": parent["id"] if parent else None,
                  "trace": trace, "name": name, "start": start, "end": end,
                  **attrs}
        self.spans.append(record)
        return record

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for record in sorted(self.spans, key=lambda s: s["id"]):
                f.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Profile attribution
# ----------------------------------------------------------------------

#: Source packages folded into one layer name.
_LAYER_ALIASES = {
    "suitesparse": "graphblas", "galoisblas": "graphblas",
    "runtime": "galois",
}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None for non-repro frames."""
    parts = Path(filename).parts
    if "perfbench" in parts:
        return "harness"
    if "repro" not in parts[:-1]:
        return None
    last = max(i for i, part in enumerate(parts[:-1]) if part == "repro")
    package = parts[last + 1].removesuffix(".py")
    return _LAYER_ALIASES.get(package, package)


def profile_layers(profiler) -> Dict[str, float]:
    """Self seconds per layer from a ``cProfile.Profile``.

    numpy and builtin frames have no layer of their own: their self time
    is charged to the nearest ``repro.*`` caller, split by the time each
    caller accounts for, so ``sum(result.values())`` is the profiled time.
    """
    stats = pstats.Stats(profiler).stats
    layers: Dict[str, float] = {}

    def charge(func, amount: float, depth: int) -> None:
        layer = layer_of(func[0])
        if layer is None and depth < 24:
            callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            weights = {c: v[2] for c, v in callers.items() if v[2] > 0}
            if not weights:
                weights = {c: float(v[1]) for c, v in callers.items()
                           if v[1] > 0}
            total = sum(weights.values())
            if total > 0:
                for caller, weight in weights.items():
                    charge(caller, amount * weight / total, depth + 1)
                return
        key = layer if layer is not None else "outside"
        layers[key] = layers.get(key, 0.0) + amount

    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        if tottime > 0:
            charge(func, tottime, 0)
    return layers


# ----------------------------------------------------------------------
# Child processes and resources
# ----------------------------------------------------------------------

class Children:
    """Every subprocess the benchmark starts, each in its own group.

    :meth:`close` (called from a ``finally``) leaves nothing running: a
    child that outlives its workload — a hung drain, an API server after a
    failed assertion — is killed with its whole process group.
    """

    def __init__(self, env: dict):
        self.env = env
        self._procs: List[subprocess.Popen] = []

    def popen(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self.env, cwd=str(ROOT),
                                start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    def run_python(self, args, timeout: float, **kwargs):
        """Run ``python <args>`` to completion; returns the finished Popen."""
        proc = self.popen([sys.executable, *args], **kwargs)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill(proc)
            raise
        return proc

    @staticmethod
    def kill(proc: subprocess.Popen, grace: float = 5.0) -> None:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, sig)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                continue
            # The leader is gone; sweep any worker it left in the group.
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, signal.SIGKILL)
            return

    def close(self) -> None:
        for proc in self._procs:
            self.kill(proc)
        self._procs.clear()


@dataclass
class Context:
    """What one invocation hands to its workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: Scratch directory inside the checkout, removed at exit.
    tmp: Path
    tracer: Tracer
    children: Children
    #: Seconds ``import repro...`` took in this process (part of set-up).
    import_s: float = 0.0
    #: The artifact store the program currently resolves graphs through.
    store: Optional[Path] = None

    def use_fresh_store(self) -> Path:
        """Point this process and every child at a new, empty store.

        ``REPRO_ARTIFACT_DIR`` is the one knob the benchmark sets: graphs
        are published once during set-up and mmapped everywhere after,
        which is how the service and the grid are deployed.
        """
        index = 0
        while (self.tmp / f"store-{index}").exists():
            index += 1
        self.store = self.tmp / f"store-{index}"
        os.environ["REPRO_ARTIFACT_DIR"] = str(self.store)
        self.children.env["REPRO_ARTIFACT_DIR"] = str(self.store)
        return self.store

    def repeat_set_up(self, set_up, budget_s: float = 6.0,
                      max_repeats: int = 3) -> List[float]:
        """Run ``set_up()`` up to ``max_repeats`` times within ``budget_s``.

        Each repeat starts from an empty store, so the last one leaves
        the state the measurement then uses.  Returns each repeat's
        seconds; ``setup_s`` reports their median plus the import time.
        """
        samples: List[float] = []
        while True:
            t0 = time.perf_counter()
            with self.tracer.span("set_up", trace=f"set_up-{len(samples)}"):
                set_up()
            samples.append(time.perf_counter() - t0)
            if (self.smoke or len(samples) >= max_repeats
                    or sum(samples) + samples[-1] > budget_s):
                return samples

    def setup_seconds(self, samples: List[float]) -> float:
        return self.import_s + statistics.median(samples)

    def timed_passes(self, one_pass, budget_s: float, min_passes: int = 1):
        """Call ``one_pass(index)`` until the next pass would overrun.

        Returns ``(walls, results)``.  Stops once ``min_passes`` are done
        and the time spent plus a median pass exceeds ``budget_s`` (a smoke
        run stops after one pass), so the count depends on the argument
        and the machine's speed class, not on any one pass.
        """
        walls: List[float] = []
        results = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(one_pass(len(walls)))
            walls.append(time.perf_counter() - t0)
            spent = time.perf_counter() - start
            if self.smoke or (len(walls) >= min_passes and
                              spent + statistics.median(walls) > budget_s):
                return walls, results


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    #: The end-to-end metrics this workload really measures.
    end_to_end: Dict[str, float]
    attempted: int
    #: One line per wrong cell or job; empty means every output checked out.
    failures: List[str]
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: The full profile attribution (every layer, not only the named ones).
    layers_self_s: Dict[str, float] = field(default_factory=dict)
    #: Raw samples worth keeping in the result file.
    samples: dict = field(default_factory=dict)


def peak_rss_mb(children: bool = False) -> float:
    """High-water RSS of this process, or of its largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in Path(path).rglob("*")
               if p.is_file()) / 1e6


def timed(fn, repeats: int, warmup: int = 1) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
