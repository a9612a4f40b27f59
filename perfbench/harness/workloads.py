"""The four benchmark workloads.

Each workload builds its own inputs from the seed and drives only the
program's public entry points: ``AutarkySystem``/``engine()`` with
``Memcached.get``/``set``, ``EnclaveService(config).boot()``/``.run()``,
and ``repro.analysis.walker.load_module``/``run_passes``.  It calls no
generator or config helper of the program (``repro.workloads.ycsb``,
``Fig8Scale``, ``service/sweep.py``), so retuning those cannot change a
workload.  Why each workload exists is in ``perfbench/README.md``.

Protocol, driven by :func:`harness.measure.measure`:

* ``prepare(out_dir)`` once per process, untimed;
* ``probes(patches)`` installs the counters the checks need;
* ``setup(seed)`` builds, populates and warms; timed as ``setup_s``;
* ``window(state, k, tracer)`` runs timed window ``k`` and returns
  ``(ops, failed, seconds)``;
* after window ``fingerprint_windows - 1``, ``fingerprint(state)``
  returns the simulated result the default-seed gate compares, and
  ``sim``/``sim_categories``/``layer`` the metrics derived from it;
* ``guards(state)`` lists regime violations after the timed phase.
"""

from __future__ import annotations

import hashlib
import random
import tarfile
from pathlib import Path
from time import perf_counter

#: The ``repro.clock.Category`` names, frozen so that the printed
#: metric set cannot change when the program adds a category.
CATEGORIES = (
    "compute", "tlb_fill", "aex_eresume", "eenter_eexit",
    "autarky_handler", "sgx_paging", "os", "exitless", "backoff",
    "recovery", "oram", "oblivious_scan",
)

PAGE_SIZE = 4096
ITEM_SIZE = 1024
ZIPF_THETA = 0.99


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def percentile(samples, p):
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[min(rank, len(ordered)) - 1]


class Workload:
    name = ""
    #: Size parameters; ``size`` overrides them (the tests use tiny ones).
    defaults = {}

    def __init__(self, size=None):
        self.size = dict(self.defaults, **(size or {}))
        self.fingerprint_windows = self.size["fingerprint_windows"]
        self.counts = {}

    def prepare(self, out_dir):
        pass

    def probes(self, patches):
        pass

    def begin(self, state):
        pass

    def sim(self, state):
        return {}

    def sim_categories(self, state):
        return {}

    def guards(self, state):
        return []


# -- kv: Memcached over the self-paging runtime ---------------------------


def zipf_keys(rng, n_keys, count):
    """``count`` zipfian(0.99) keys over ``n_keys``; popularity ranks
    map to keys through a seeded permutation, so hot keys are spread
    over the slab instead of packed into its first pages."""
    weights = [1.0 / (rank + 1) ** ZIPF_THETA for rank in range(n_keys)]
    total = 0.0
    cum = []
    for w in weights:
        total += w
        cum.append(total)
    order = list(range(n_keys))
    rng.shuffle(order)
    return rng.choices(order, cum_weights=cum, k=count)


class KvState:
    __slots__ = ("system", "engine", "server", "keys", "sets", "progress",
                 "c0", "c1")


class KvWorkload(Workload):
    """Memcached under the paper's 10-page clusters policy."""

    set_fraction = 0.0

    def probes(self, patches):
        # Stamp misses leave ReplayFrontend.replay through _slow; the
        # steady-state (stamp-hit) path never reaches this counter.
        from repro.sgx.columnar import ReplayFrontend
        self.counts["replay_slow"] = 0
        counts = self.counts

        def make(fn):
            def counted(*args):
                counts["replay_slow"] += 1
                return fn(*args)
            return counted
        patches.replace(ReplayFrontend, "_slow", make)

    def setup(self, seed):
        from repro.apps.memcached import Memcached
        from repro.core.config import SystemConfig
        from repro.core.system import AutarkySystem
        from repro.runtime.rate_limit import ProgressKind

        size = self.size
        data_bytes = size["data_mb"] * 2**20
        budget = size["budget_pages"]
        system = AutarkySystem(SystemConfig.for_policy(
            "clusters", cluster_pages=10,
            epc_pages=budget + 4096, quota_pages=budget + 1024,
            enclave_managed_budget=budget,
            heap_pages=data_bytes // PAGE_SIZE * 2 + 512,
            code_pages=32, data_pages=32, runtime_pages=8,
        ))
        engine = system.engine()
        server = Memcached(engine, system.heap_start(), data_bytes,
                           item_size=ITEM_SIZE)
        # The slab change of §7.3: item and index pages are allocated
        # through the clustering allocator in allocation order.
        system.runtime.allocator.alloc_pages(server.total_pages)
        heap = system.heap_start()
        for page in range(server.total_pages):
            engine.progress(ProgressKind.ALLOCATION)
            engine.data_access(heap + page * PAGE_SIZE, write=True)

        rng = random.Random(f"{self.name}:{seed}")
        n_ops = size["window_ops"] * self.fingerprint_windows
        state = KvState()
        state.system, state.engine, state.server = system, engine, server
        state.progress = ProgressKind.IO
        state.keys = zipf_keys(rng, server.n_keys,
                               n_ops + size["warm_ops"])
        state.sets = [rng.random() < self.set_fraction
                      for _ in range(len(state.keys))]
        self.warm(state)
        # The timed stream follows the warm-up stream.
        del state.keys[:size["warm_ops"]], state.sets[:size["warm_ops"]]
        return state

    def warm(self, state):
        self._serve(state, 0, self.size["warm_ops"])

    def _serve(self, state, lo, hi, tracer=None):
        progress, kind = state.engine.progress, state.progress
        get, put = state.server.get, state.server.set
        keys, sets = state.keys, state.sets
        if tracer is None:
            for i in range(lo, hi):
                progress(kind)
                if sets[i]:
                    put(keys[i])
                else:
                    get(keys[i])
            return
        for i in range(lo, hi):
            tracer.op_id = i
            progress(kind)
            if sets[i]:
                put(keys[i])
            else:
                get(keys[i])

    def counters(self, state):
        kernel = state.system.kernel
        pager = state.system.runtime.pager
        return {
            "cycles": kernel.clock.cycles,
            "by_category": dict(sorted(kernel.clock.by_category.items())),
            "faults": kernel.cpu.fault_count,
            "tlb_hits": kernel.tlb.hits,
            "tlb_fills": kernel.tlb.fills,
            "walks": kernel.mmu.walks,
            "fetches": pager.fetches,
            "evictions": pager.evictions,
            "pages_in": kernel.driver.pages_in,
            "pages_out": kernel.driver.pages_out,
            "gets": state.server.gets,
            "sets": state.server.sets,
            "replay_slow": self.counts["replay_slow"],
        }

    def begin(self, state):
        state.c0 = self.counters(state)

    def window(self, state, k, tracer=None):
        w = self.size["window_ops"]
        lo = (k % self.fingerprint_windows) * w
        started = perf_counter()
        self._serve(state, lo, lo + w, tracer)
        seconds = perf_counter() - started
        return w, 0, seconds

    def fingerprint(self, state):
        state.c1 = c1 = self.counters(state)
        return {key: c1[key] for key in (
            "cycles", "by_category", "faults", "tlb_hits", "walks",
            "fetches", "evictions")}

    def _delta(self, state, key):
        return state.c1[key] - state.c0[key]

    def timed_ops(self):
        return self.size["window_ops"] * self.fingerprint_windows

    def sim(self, state):
        ops = self.timed_ops()
        return {"sim_cycles_per_op": self._delta(state, "cycles") / ops}

    def sim_categories(self, state):
        ops = self.timed_ops()
        before, after = state.c0["by_category"], state.c1["by_category"]
        return {cat: (after.get(cat, 0) - before.get(cat, 0)) / ops
                for cat in CATEGORIES}

    def layer(self, state, spans):
        ops = self.timed_ops()
        d = lambda key: self._delta(state, key)  # noqa: E731
        hits, fills = d("tlb_hits"), d("tlb_fills")
        gets = d("gets")
        fetch_units = spans["runtime.fetch_unit"]["timed_calls"] \
            if spans and "runtime.fetch_unit" in spans else 0
        return {
            "sgx.faults_per_op": d("faults") / ops,
            "sgx.tlb_hit_ratio": hits / (hits + fills) if hits + fills
            else 0.0,
            "sgx.replay_stamp_hit_ratio":
                1 - d("replay_slow") / gets if gets else 0.0,
            "host.pages_fetched": d("pages_in"),
            "host.pages_evicted": d("pages_out"),
            "runtime.pages_per_fetch":
                d("fetches") / fetch_units if fetch_units else 0.0,
        }


class KvPaging(KvWorkload):
    name = "kv-paging"
    set_fraction = 0.10
    defaults = {
        # 50 MB of 1 KB items: 12,900 pages over a 6,080-page budget.
        "data_mb": 50, "budget_pages": 6080,
        "window_ops": 1000, "fingerprint_windows": 10,
        "warm_ops": 5000, "min_faults_per_op": 0.2,
    }

    def guards(self, state):
        ops = self.timed_ops()
        faults = self._delta(state, "faults") / ops
        if faults < self.size["min_faults_per_op"]:
            return [f"{faults:.3f} faults/op, below the paging regime's "
                    f"{self.size['min_faults_per_op']}"]
        return []


class KvResident(KvWorkload):
    name = "kv-resident"
    defaults = {
        # 16 MB of 1 KB items: 4,128 pages inside a 6,000-page budget.
        "data_mb": 16, "budget_pages": 6000,
        "window_ops": 100_000, "fingerprint_windows": 2,
        "warm_ops": 0, "min_stamp_hit_ratio": 0.999,
    }

    def warm(self, state):
        """GET every key once (so each key's page pair is planned),
        then the timed stream once."""
        from repro.runtime.rate_limit import ProgressKind
        progress, get = state.engine.progress, state.server.get
        for key in range(state.server.n_keys):
            progress(ProgressKind.IO)
            get(key)
        self._serve(state, 0, len(state.keys))

    def guards(self, state):
        problems = []
        now = self.counters(state)
        faults = now["faults"] - state.c0["faults"]
        if faults:
            problems.append(f"{faults} faults in the timed phase of a "
                            f"fault-free workload")
        gets = now["gets"] - state.c0["gets"]
        slow = now["replay_slow"] - state.c0["replay_slow"]
        ratio = 1 - slow / gets
        if ratio < self.size["min_stamp_hit_ratio"]:
            problems.append(f"replay stamp-hit ratio {ratio:.4f} below "
                            f"{self.size['min_stamp_hit_ratio']}")
        return problems


# -- service-pool: the multi-tenant enclave service -----------------------


_POLICIES = ("rate_limit", "clusters", "pin_all")
_DISTRIBUTIONS = ("zipf", "uniform", "hotspot90", "hotspot99")


class ServiceState:
    __slots__ = ("run_seeds", "results", "kernels", "samples")


class ServicePool(Workload):
    """Several seeded runs of one mixed-policy, two-replica fleet."""

    name = "service-pool"
    defaults = {
        "tenants": 6, "replicas": 2, "epc_pages": 640, "ticks": 100,
        # The fleet offers 15 requests a tick against 14 dispatched:
        # load sits a little above dispatch capacity.  One window is
        # one run; the fingerprint covers one run of each run seed.
        "dispatch_per_tick": 14, "fingerprint_windows": 6,
    }

    def probes(self, patches):
        # Every served request's issue-to-completion latency passes
        # through the SLO window's record(); keep a copy of each.
        from repro.service.metrics import LatencyWindow
        self.samples = []
        samples = self.samples

        def make(fn):
            def recorded(window, cycles):
                samples.append(cycles)
                return fn(window, cycles)
            return recorded
        patches.replace(LatencyWindow, "record", make)

    def config(self, run_seed):
        from repro.service import ServiceConfig, TenantSpec
        size = self.size
        tenants = [
            TenantSpec(
                name=f"tenant-{i}",
                policy=_POLICIES[i % len(_POLICIES)],
                distribution=_DISTRIBUTIONS[i % len(_DISTRIBUTIONS)],
                arrivals_per_tick=2 + i % 2,
                quota_pages=128,
                replicas=size["replicas"],
            )
            for i in range(size["tenants"])
        ]
        return ServiceConfig(
            seed=run_seed, tenants=tenants, epc_pages=size["epc_pages"],
            ticks=size["ticks"],
            dispatch_per_tick=size["dispatch_per_tick"],
        )

    def setup(self, seed):
        from repro.service import EnclaveService
        state = ServiceState()
        state.run_seeds = [seed * self.fingerprint_windows + r
                           for r in range(self.fingerprint_windows)]
        state.results = []
        state.kernels = []
        state.samples = []
        # Warm pass: one untimed run of the first run seed.
        EnclaveService(self.config(state.run_seeds[0])).boot().run()
        return state

    def begin(self, state):
        self.samples.clear()

    def window(self, state, k, tracer=None):
        """Boot (untimed) and run (timed) run seed ``k % runs``."""
        from repro.service import EnclaveService
        if tracer is not None:
            tracer.op_id = k
        runs = self.fingerprint_windows
        service = EnclaveService(self.config(state.run_seeds[k % runs]))
        service.boot()
        started = perf_counter()
        result = service.run()
        seconds = perf_counter() - started
        ops = sum(result.outcome_counts.values())
        # Shed and structured-abort are terminal outcomes the service
        # chooses by design; their share is service.refused_ratio.  A
        # request fails only when its run breaks an invariant.
        failed = ops if result.violations else 0
        if k < runs:
            kernel = service.kernel
            state.results.append(result)
            state.kernels.append({
                "by_category": dict(kernel.clock.by_category),
                "faults": kernel.cpu.fault_count,
                "pages_in": kernel.driver.pages_in,
                "pages_out": kernel.driver.pages_out,
            })
            state.samples.extend(self.samples)
        elif result.digest != state.results[k % runs].digest:
            # A rerun of the same seed must repeat bit for bit.
            failed = ops
        self.samples.clear()
        return ops, failed, seconds

    def fingerprint(self, state):
        return {"runs": [
            {"seed": r.seed, "digest": r.digest,
             "outcomes": dict(sorted(r.outcome_counts.items()))}
            for r in state.results
        ]}

    def _ops(self, state):
        return sum(sum(r.outcome_counts.values()) for r in state.results)

    def sim(self, state):
        samples = state.samples
        return {
            "sim_cycles_per_op":
                sum(r.cycles for r in state.results) / self._ops(state),
            "sim_latency_p50_cycles": percentile(samples, 50),
            "sim_latency_p99_cycles": percentile(samples, 99),
            "sim_latency_samples": len(samples),
        }

    def sim_categories(self, state):
        ops = self._ops(state)
        return {cat: sum(k["by_category"].get(cat, 0)
                         for k in state.kernels) / ops
                for cat in CATEGORIES}

    def layer(self, state, spans):
        submitted = sum(r.metrics[0] for r in state.results)
        admitted = sum(r.metrics[1] for r in state.results)
        total = lambda key: sum(k[key] for k in state.kernels)  # noqa: E731
        refused = sum(r.outcome_counts["shed"]
                      + r.outcome_counts["structured-abort"]
                      for r in state.results)
        return {
            "service.admit_ratio": admitted / submitted,
            "service.refused_ratio": refused / self._ops(state),
            "service.failovers": sum(r.failovers for r in state.results),
            "sgx.faults_per_op": total("faults") / self._ops(state),
            "host.pages_fetched": total("pages_in"),
            "host.pages_evicted": total("pages_out"),
        }

    def guards(self, state):
        problems = [
            f"seed {r.seed}: {v}" for r in state.results for v in r.violations
        ]
        if not sum(r.failovers for r in state.results):
            problems.append("no failover across the run seeds")
        if not sum(r.recoveries for r in state.results):
            problems.append("no recovery across the run seeds")
        return problems


# -- analyze: the static analyzer over a frozen corpus --------------------


CORPUS = Path(__file__).resolve().parent.parent / "corpus" / \
    "repro-src.tar.gz"


class AnalyzeState:
    __slots__ = ("modules", "report", "digest")


class Analyze(Workload):
    """``run_passes(strict=True)`` over a frozen ``src/repro`` snapshot.

    The seed does not vary this input: module order alone moves pass
    time by a quarter, so a seeded order would turn the seed into
    noise.  Every window must give the same findings digest.
    """

    name = "analyze"
    defaults = {"modules": None, "fingerprint_windows": 1}

    def prepare(self, out_dir):
        root = Path(out_dir) / "corpus"
        with tarfile.open(CORPUS) as archive:
            members = [m for m in archive.getmembers()
                       if m.isfile() and m.name.endswith(".py")]
            archive.extractall(root, members=members, filter="data")
        self.paths = sorted(root / m.name for m in members)
        if self.size["modules"] is not None:
            self.paths = self.paths[:self.size["modules"]]

    def setup(self, seed):
        from repro.analysis import walker
        state = AnalyzeState()
        state.modules = [walker.load_module(path) for path in self.paths]
        state.report = state.digest = None
        return state

    def window(self, state, k, tracer=None):
        from repro.analysis import walker
        if tracer is not None:
            tracer.op_id = k
        started = perf_counter()
        report = walker.run_passes(state.modules, strict=True)
        seconds = perf_counter() - started
        ops = len(state.modules)
        findings = sorted(
            (f.module, f.line, f.rule, f.message) for f in report.findings
        )
        this = digest((findings, report.suppressed, report.checked_files))
        if state.digest is None:
            state.report, state.digest = report, this
        elif this != state.digest:
            return ops, ops, seconds
        return ops, 0, seconds

    def fingerprint(self, state):
        report = state.report
        return {
            "findings": len(report.findings),
            "findings_digest": state.digest,
            "suppressed": report.suppressed,
            "checked_files": report.checked_files,
        }

    def layer(self, state, spans):
        graph = state.report.callgraph
        hits, misses = graph["resolve_cache_hits"], \
            graph["resolve_cache_misses"]
        return {"analysis.resolve_cache_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0}


WORKLOADS = {cls.name: cls for cls in
             (KvPaging, KvResident, ServicePool, Analyze)}
