"""Measurement pieces shared by the workloads: spans, outcomes, statistics.

Nothing here imports the package under test, so the unit tests of the
benchmark itself run without it.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import platform
import time
from collections import Counter
from fractions import Fraction
from statistics import median

# Typed refusals: the package declines an input it cannot handle.  Any other
# exception on a benchmark input is a failure, because every input the
# benchmark generates is valid.
REFUSALS = (
    "AllReduceToZero",
    "CodimNotOne",
    "HypothesesFailed",
    "InfiniteIntersection",
    "NonSimpleZero",
    "NotShapePosition",
    "NotTorusZero",
    "NotZeroDimensional",
    "ZeroOnPolarLocus",
)


def classify(exc: BaseException) -> str:
    """"refused" for a typed refusal, "failed" for anything else."""
    return "refused" if type(exc).__name__ in REFUSALS else "failed"


def tail(samples, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  With too few samples the
    maximum is returned at percentile 100, and the count says why.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n


class Tracer:
    """Spans held in memory: [id, name, start, end, parent id]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    @contextlib.contextmanager
    def _open(self, name):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def span(self, name):
        return self._open(name) if self.enabled else contextlib.nullcontext()

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def maximum(self, name, value):
        if self.enabled:
            self.maxima[name] = max(self.maxima.get(name, value), value)


# Seconds the reference loop takes on the 2-core Intel Xeon this benchmark
# was built on, at the median of its speeds.  Times are reported in these
# reference seconds (see SpeedClock).
REF_S = 0.009

_QUARTICS = [e for e in itertools.product(range(5), repeat=4) if sum(e) == 4]
_REF_P = {e: Fraction(3 ** (i % 23) + i, 2 ** (i % 17) + 1)
          for i, e in enumerate(_QUARTICS)}
_REF_Q = {e: Fraction(5 ** (i % 13) - i, 7 ** (i % 11) + 2)
          for i, e in enumerate(_QUARTICS)}


def reference_loop():
    """Fixed work of the kind the package does: the product of two dense
    quartics in four variables, stored as exponent tuple -> Fraction.

    A loop of small-Fraction sums over a tiny dict was tried first; it
    slowed twice as much as the package did when the host slowed, where
    this product slows about as much.
    """
    out = {}
    for e1, c1 in _REF_P.items():
        for e2, c2 in _REF_Q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


class SpeedClock:
    """Host speed, read with the reference loop between pieces of work.

    The processor of a shared host slows by up to half for seconds to
    minutes at a time, in a way no clock inside the process sees.  So each
    piece of work is timed on the wall clock and scaled by REF_S over the
    time the reference loop took around it: call ``read`` before the first
    piece and after each one; piece k lies between readings k and k+1.
    """

    def __init__(self):
        reference_loop()
        self.readings: list[float] = []

    def read(self):
        t = time.perf_counter()
        reference_loop()
        self.readings.append(time.perf_counter() - t)

    def factor(self, k: int) -> float:
        """Scale of piece k: REF_S over the median of readings k-1 .. k+2,
        so that one disturbed reading does not set it."""
        return REF_S / median(self.readings[max(0, k - 1):k + 3])

    def run_factor(self) -> float:
        """Scale of the whole run, from the median of all readings."""
        return REF_S / median(self.readings)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the children's.

    Spans come from one thread, so children nest inside their parent and
    never overlap one another; their durations simply subtract.
    """
    child = Counter()
    for _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: Counter = Counter()
    for sid, name, start, end, _ in spans:
        out[name] += (end - start) - child[sid]
    return dict(out)


class Ledger:
    """Operations attempted, and how each one ended.

    ``attempt`` runs one call of the package inside a span of the same
    name.  A typed refusal or a failure is recorded and returned as None; a
    wrong value is recorded through ``check``.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.refusals: Counter = Counter()
        self.done: Counter = Counter()
        self.failures: list[str] = []

    def attempt(self, name, fn, *args, refusal=None):
        """Run fn(*args); ``refusal`` names the error the input must raise."""
        self.attempted += 1
        try:
            with self.tracer.span(name):
                value = fn(*args)
        except Exception as exc:
            kind = type(exc).__name__
            if refusal is not None and kind != refusal:
                self.fail(name, f"expected {refusal}, got {kind}: {exc}")
            elif refusal is not None or classify(exc) == "refused":
                self.refused += 1
                self.refusals[(name.split(".")[0], kind)] += 1
            else:
                self.fail(name, f"{kind}: {exc}")
            return None
        if refusal is not None:
            self.fail(name, f"expected {refusal}, got a value")
            return None
        self.done[name] += 1
        return value

    def check(self, ok: bool, name: str, detail: str) -> bool:
        """Count a wrong value against the operation just attempted."""
        if not ok:
            self.fail(name, f"wrong value: {detail}")
        return ok

    def fail(self, name, detail):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {detail}")


def digest(values) -> str:
    """Short stable fingerprint of a unit's exact outputs."""
    text = "|".join(str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment() -> dict:
    """Interpreter, numpy, processor count and CPU model of this run."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": usable, "cpu": cpu,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """One BLAS / OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
