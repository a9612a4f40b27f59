"""One workload run: set-up, timed windows, checks, and the metrics.

:func:`measure` runs inside the per-run child process and returns a
JSON-safe payload.  The parent turns payloads into the printed metrics
(:func:`end_to_end`, :func:`per_layer`) and the verdict
(:func:`verdict`).
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import traceback
from pathlib import Path
from time import perf_counter

from harness.tracing import Patches, Tracer
from harness.workloads import CATEGORIES, WORKLOADS

#: The seed whose simulated fingerprints ``fingerprints.json`` records.
DEFAULT_SEED = 0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Calibration.  On a shared 2-vCPU host the speed of identical
#: Python code drifts by +-25% within seconds as neighbours load the
#: machine, which no in-process median removes.  While every set-up
#: and window runs, a SIGALRM handler times a short loop with the
#: simulator's instruction mix (dict probes, method calls, slot
#: stores) every SAMPLE_INTERVAL_S, and host seconds are scaled to
#: *reference seconds*: what they would have been had each sample
#: taken SAMPLE_REF_S (nominal; on an unloaded core of the x86-64 host,
#: Python 3.11, a sample takes 0.55-1.2 ms).
SAMPLE_ITERATIONS = 5_000
SAMPLE_INTERVAL_S = 0.05
SAMPLE_REF_S = 0.0007


class _Cell:
    __slots__ = ("value",)

    def store(self, value):
        self.value = value
        return value


def calibrate():
    """Seconds one calibration sample takes right now."""
    cells = {i: _Cell() for i in range(256)}
    get = cells.get
    total = 0
    started = perf_counter()
    for i in range(SAMPLE_ITERATIONS):
        total += get(i & 255).store(i)
    return perf_counter() - started


class Speedometer:
    """Calibration samples taken while a measured interval runs.  The
    handler runs between bytecodes of the measured code and touches
    none of its state."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an interval shorter than one period
            self.samples.append(calibrate())
        return False

    def mean(self):
        return sum(self.samples) / len(self.samples)


def reference_seconds(seconds, sample_s):
    return seconds * SAMPLE_REF_S / sample_s


END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Span boundaries: ``(metric prefix, "module:Class.method")``.
SPANS = (
    ("sgx.replay", "repro.sgx.columnar:ReplayFrontend.replay"),
    ("sgx.columnar.execute", "repro.sgx.columnar:ColumnarEngine.execute"),
    ("sgx.cpu.access_run", "repro.sgx.cpu:Cpu.access_run"),
    ("sgx.cpu.access", "repro.sgx.cpu:Cpu.access"),
    ("sgx.ewb", "repro.sgx.instructions:SgxInstructions.ewb"),
    ("sgx.eldu", "repro.sgx.instructions:SgxInstructions.eldu"),
    ("host.on_enclave_fault",
     "repro.host.kernel:HostKernel.on_enclave_fault"),
    ("host.ay_fetch_pages", "repro.host.driver:SgxDriver.ay_fetch_pages"),
    ("host.ay_evict_pages", "repro.host.driver:SgxDriver.ay_evict_pages"),
    ("runtime.handle_fault",
     "repro.runtime.libos:GrapheneRuntime.handle_fault"),
    ("runtime.fetch_unit", "repro.runtime.self_paging:SelfPager.fetch_unit"),
    ("runtime.make_room", "repro.runtime.self_paging:SelfPager.make_room"),
    ("runtime.progress", "repro.runtime.libos:GrapheneRuntime.progress"),
    ("apps.memcached.get", "repro.apps.memcached:Memcached.get"),
    ("apps.memcached.set", "repro.apps.memcached:Memcached.set"),
    ("recovery.launch",
     "repro.recovery.supervisor:RecoverySupervisor.launch"),
    ("recovery.recover",
     "repro.recovery.supervisor:RecoverySupervisor.recover"),
    ("service.boot", "repro.service.router:EnclaveService.boot"),
    ("service.run", "repro.service.router:EnclaveService.run"),
    ("analysis.load", "repro.analysis.walker:load_module"),
    ("analysis.project_build", "repro.analysis.callgraph:Project.__init__"),
)

#: Call-count boundaries: too hot for a span each.
COUNTS = (
    ("clock.charge", "repro.clock:Clock.charge"),
    ("service.elect_primary", "repro.service.pool:TenantPool.elect_primary"),
    ("service.breaker.allow", "repro.service.breaker:CircuitBreaker.allow"),
    ("service.token_bucket.try_take",
     "repro.service.admission:TokenBucket.try_take"),
)

#: The analyzer's pass families, one span name each.
FAMILIES = (
    "trust-boundary", "mutation-discipline", "determinism",
    "cycle-accounting", "leakage", "lifecycle", "robustness", "effects",
)


def _per_layer_units():
    units = {}
    full = [name for name, _ in SPANS
            if not name.startswith(("service.", "analysis."))]
    for name in full:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "sgx.replay_stamp_hit_ratio": "ratio",
        "sgx.tlb_hit_ratio": "ratio",
        "sgx.faults_per_op": "faults/op",
        "host.pages_fetched": "pages",
        "host.pages_evicted": "pages",
        "runtime.pages_per_fetch": "pages",
        "clock.charge.calls": "count",
    })
    units.update({f"sim.{cat}.cycles_per_op": "cycles" for cat in CATEGORIES})
    units.update({
        "sim_cycles_per_op": "cycles",
        "sim_latency_p50_cycles": "cycles",
        "sim_latency_p99_cycles": "cycles",
        "sim_latency_samples": "count",
        "service.boot.s": "s",
        "service.run.self_s": "s",
        "service.elect_primary.calls": "count",
        "service.breaker.allow.calls": "count",
        "service.token_bucket.try_take.calls": "count",
        "service.admit_ratio": "ratio",
        "service.refused_ratio": "ratio",
        "service.failovers": "count",
        "analysis.load.s": "s",
        "analysis.project_build.s": "s",
    })
    units.update({f"analysis.{family}.s": "s" for family in FAMILIES})
    units["analysis.resolve_cache_hit_ratio"] = "ratio"
    units["trace.overhead"] = "x"
    return units


PER_LAYER = _per_layer_units()


def install_boundaries(tracer):
    for name, path in SPANS:
        tracer.span(path, name)
    for name, path in COUNTS:
        tracer.count(path, name)
    from repro.analysis.passes import PASS_CLASSES
    for cls in PASS_CLASSES:
        target = f"{cls.__module__}:{cls.__name__}"
        tracer.span(f"{target}.run", f"analysis.{cls.family}")
        if hasattr(cls, "prepare"):
            tracer.span(f"{target}.prepare", f"analysis.{cls.family}")


def measure(name, seed, seconds, out_dir, trace=False, fixed=False,
            size=None):
    """Run one workload; returns the payload dict.

    ``fixed`` measures one set-up and the fingerprint windows only (the
    traced run and its untraced baseline measure the same work);
    otherwise there are SETUPS set-ups and windows continue until
    ``seconds`` of timed phase have passed.
    """
    workload = WORKLOADS[name](size)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"workload": name, "seed": seed, "trace": trace,
               "setup_s": [], "windows": [], "fingerprint": None,
               "sim": {}, "sim_categories": {}, "layer": {}, "guards": [],
               "error": None}
    probes = Patches()
    tracer = Tracer() if trace else None
    try:
        workload.prepare(out_dir)
        workload.probes(probes)
        if tracer is not None:
            install_boundaries(tracer)
        state = None
        for _ in range(1 if fixed else SETUPS):
            state = None
            gc.collect()
            with Speedometer() as speed:
                started = perf_counter()
                state = workload.setup(seed)
                elapsed = perf_counter() - started
            payload["setup_s"].append([elapsed, speed.mean()])
        gc.collect()
        workload.begin(state)
        fp_windows = workload.fingerprint_windows
        began = perf_counter()
        k = 0
        # The clock is checked only between whole cycles of the
        # fingerprint windows, so every run weighs each window alike.
        while k < fp_windows or (
                not fixed and (k % fp_windows
                               or perf_counter() - began < seconds)):
            with Speedometer() as speed:
                ops, failed, elapsed = workload.window(state, k, tracer)
            payload["windows"].append([ops, failed, elapsed, speed.mean()])
            k += 1
            if k == fp_windows:
                payload["fingerprint"] = workload.fingerprint(state)
                payload["sim"] = workload.sim(state)
                payload["sim_categories"] = workload.sim_categories(state)
        payload["guards"] = workload.guards(state)
        spans = None
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.summary()
            payload["spans"] = spans
            payload["counts"] = dict(tracer.counts)
            payload["n_spans"] = len(tracer)
            tracer.write(out_dir / f"{name}-seed{seed}.spans.npz")
        payload["layer"] = workload.layer(state, spans)
    except Exception:  # reported as a failed run by the parent
        payload["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
        probes.restore()
    payload["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return payload


# -- turning payloads into metrics and a verdict --------------------------


def window_rates(payload, host=False):
    """Ops per reference second of every window (per host second with
    ``host``)."""
    if host:
        return [w[0] / w[2] for w in payload["windows"]]
    return [w[0] / reference_seconds(*w[2:]) for w in payload["windows"]]


def setup_times(payload, host=False):
    if host:
        return [s[0] for s in payload["setup_s"]]
    return [reference_seconds(*s) for s in payload["setup_s"]]


def timed_seconds(payload):
    return sum(reference_seconds(*w[2:]) for w in payload["windows"])


def end_to_end(payload, host=False):
    return {
        "setup_s": statistics.median(setup_times(payload, host)),
        "ops_per_s": statistics.median(window_rates(payload, host)),
        "peak_rss_mb": payload["peak_rss_mb"],
    }


def per_layer(traced, base):
    """Per-layer metrics of a traced payload; ``base`` is the untraced
    payload of the same work, for the tracing overhead."""
    spans = traced.get("spans", {})
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {}
    span_names = [name for name, _ in SPANS] + [
        f"analysis.{family}" for family in FAMILIES]
    for name in span_names:
        span = spans.get(name, zero)
        for field in ("calls", "s", "self_s"):
            if f"{name}.{field}" in PER_LAYER:
                metrics[f"{name}.{field}"] = span[field]
    for name, _ in COUNTS:
        metrics[f"{name}.calls"] = traced.get("counts", {}).get(name, 0)
    for cat in CATEGORIES:
        metrics[f"sim.{cat}.cycles_per_op"] = \
            traced["sim_categories"].get(cat, 0.0)
    for name in ("sim_cycles_per_op", "sim_latency_p50_cycles",
                 "sim_latency_p99_cycles", "sim_latency_samples"):
        metrics[name] = traced["sim"].get(name, 0)
    for name in PER_LAYER:
        if name in traced["layer"]:
            metrics[name] = traced["layer"][name]
        metrics.setdefault(name, 0)
    metrics["trace.overhead"] = timed_seconds(traced) / timed_seconds(base)
    return {name: metrics[name] for name in PER_LAYER}


def fingerprint_diff(expected, got, prefix=""):
    """Paths at which two fingerprints differ."""
    if isinstance(expected, dict) and isinstance(got, dict):
        return [diff for key in sorted(set(expected) | set(got))
                for diff in fingerprint_diff(expected.get(key),
                                             got.get(key),
                                             f"{prefix}{key}.")]
    if isinstance(expected, list) and isinstance(got, list) \
            and len(expected) == len(got):
        return [diff for i, (e, g) in enumerate(zip(expected, got))
                for diff in fingerprint_diff(e, g, f"{prefix}{i}.")]
    if expected != got:
        return [f"{prefix.rstrip('.')}: expected {expected!r}, got {got!r}"]
    return []


def verdict(payload, expected=None):
    """``(attempted, failed, problems)`` of one payload.

    An exception or a fingerprint mismatch counts every op as failed;
    a regime-guard violation is a problem but leaves the counts.
    """
    windows = payload["windows"]
    attempted = max(1, sum(w[0] for w in windows))
    failed = sum(w[1] for w in windows)
    problems = list(payload["guards"])
    if payload["error"]:
        problems.append(payload["error"].strip().splitlines()[-1])
        failed = attempted
    elif payload["fingerprint"] is None:
        problems.append("no fingerprint: the run ended early")
        failed = attempted
    elif expected is not None:
        diffs = fingerprint_diff(
            _jsonable(expected), _jsonable(payload["fingerprint"]))
        if diffs:
            problems.extend(f"fingerprint mismatch at {d}" for d in diffs)
            failed = attempted
    return attempted, failed, problems


def _jsonable(value):
    """Normalise tuples and int-keyed dicts the way a JSON round trip
    does, so a fresh payload compares equal to a recorded one."""
    import json
    return json.loads(json.dumps(value))
