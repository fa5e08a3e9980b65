"""The benchmark's workloads and the measurements they take.

Every workload is driven from this one process.  A *job* is one
campaign request: a ``run_campaign`` call for the offline workloads, a
daemon job (submit to ``done``) for ``daemon-mixed``.  A *cold* job
executes its trials; a *warm* job is served entirely from the store or
the daemon's warm cache.  Each workload runs *passes*: one cold job
plus warm jobs, with a campaign seed derived from the run's seed and
the pass number, so a run is a fixed sequence of inputs per ``--seed``.
"""

from __future__ import annotations

import math
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import calibrate

from repro.campaign import engine
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.store import CampaignStore, clear_store_cache

#: A percentile is reported only with at least this many samples
#: beyond it, so p50 needs 20 samples and p90 needs 100.
SAMPLES_BEYOND = 10
#: Minimum samples a run gathers before it stops, whatever --seconds
#: (workloads may ask for more trials, see ``min_trials``).
MIN_TRIALS = 100
MIN_WARM_JOBS = 20
MIN_COLD_JOBS = 20
#: A run stops gathering after this many seconds even if short of the
#: minimum samples (then it reports the shortfall as a failure).
MAX_SECONDS = 120.0
#: Seconds between set-up samples (each in a throwaway context).
SETUP_EVERY_S = 2.0
#: Warm re-passes after each cold campaign pass.
WARM_REPASSES = 5
#: Seconds between host-speed probes (see ``calibrate.py``).
PROBE_EVERY_S = 0.5
#: Probes this close (seconds) to a pass set its slowdown.
PROBE_WINDOW_S = 2.0


def pass_seed(seed: int, index: int) -> int:
    """Campaign seed of pass ``index`` of a run with ``--seed seed``."""
    return seed * 100_003 + index


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, or NaN without enough samples beyond it."""
    if len(values) * (100 - q) < 100 * SAMPLES_BEYOND:
        return math.nan
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Tally:
    """Everything one run measures (untraced) or counts.

    Timings are kept with the number of the pass they were taken in,
    so that each can be scaled by the host's speed around that pass.
    """

    trial_s: List[Tuple[int, float]] = field(default_factory=list)
    iter_s: List[Tuple[int, float]] = field(default_factory=list)
    cold_job_s: List[Tuple[int, float]] = field(default_factory=list)
    warm_job_s: List[Tuple[int, float]] = field(default_factory=list)
    cold_trials: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: ``(time, seconds)`` of each host-speed probe.
    probes: List[Tuple[float, float]] = field(default_factory=list)
    #: ``(start, end)`` time of each pass.
    pass_spans: List[Tuple[float, float]] = field(default_factory=list)

    def probe(self) -> None:
        self.probes.append((time.perf_counter(), calibrate.probe()))

    def begin_pass(self) -> None:
        self._pass_start = time.perf_counter()

    def end_pass(self) -> None:
        self.pass_spans.append((self._pass_start, time.perf_counter()))

    @property
    def passes(self) -> int:
        return len(self.pass_spans)

    def slowdowns(self) -> List[float]:
        """Per pass, how much slower than the reference host the
        machine ran: the median of the probes taken within
        :data:`PROBE_WINDOW_S` of the pass."""
        out = []
        for start, end in self.pass_spans:
            near = [s for t, s in self.probes
                    if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
            out.append(statistics.median(near) / calibrate.CALIBRATION_REF_S)
        return out

    def check(self, ok: bool, message: str) -> None:
        """Count one correctness check; record a breach."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def add_cold_job(self, seconds: float) -> None:
        self.cold_job_s.append((self.passes, seconds))

    def add_warm_job(self, seconds: float) -> None:
        self.warm_job_s.append((self.passes, seconds))

    def add_trials(self, trials, seed: int) -> None:
        """Time ``trials`` of the campaign with seed ``seed`` and check
        each converged; a breach names the trial so it can be re-run."""
        for t in trials:
            self.trial_s.append((self.passes, t.wall_time))
            self.iter_s.append((self.passes,
                                t.wall_time / max(1, t.iterations)))
            self.check(t.converged and math.isfinite(t.final_residual),
                       f"trial {t.matrix}/{t.method}/rate {t.rate:g}/rep "
                       f"{t.repetition} of campaign seed {seed} did not "
                       f"converge to a finite residual "
                       f"({t.final_residual!r})")
        self.cold_trials += len(trials)

    def enough(self, min_trials: int) -> bool:
        return (len(self.trial_s) >= min_trials
                and len(self.warm_job_s) >= MIN_WARM_JOBS
                and len(self.cold_job_s) >= MIN_COLD_JOBS)

    def end_to_end(self, slowdowns: List[float]) -> Dict[str, float]:
        """The end-to-end metrics, every timing divided by the slowdown
        of its pass."""
        def ref(samples):
            return [seconds / slowdowns[k] for k, seconds in samples]

        trial, it = ref(self.trial_s), ref(self.iter_s)
        cold, warm = ref(self.cold_job_s), ref(self.warm_job_s)
        return {
            "trials_per_s": self.cold_trials / sum(cold),
            "trial_ms_p50": 1e3 * percentile(trial, 50),
            "trial_ms_p90": 1e3 * percentile(trial, 90),
            "iter_ms_p50": 1e3 * percentile(it, 50),
            "cold_job_ms_p50": 1e3 * percentile(cold, 50),
            "warm_job_ms_p50": 1e3 * percentile(warm, 50),
        }


def timed(fn: Callable, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def fresh_process_caches() -> None:
    """Forget built matrices and baselines held by this process."""
    engine.clear_caches()
    clear_store_cache()


# ----------------------------------------------------------------------
# offline campaign workloads
# ----------------------------------------------------------------------
@dataclass
class CampaignWorkload:
    """Cold campaign passes into a disk store, each followed by warm
    re-passes over the same store."""

    name: str
    matrix: str
    methods: tuple
    rates: tuple
    knobs: SolverKnobs
    #: Trials a run gathers at least.  Trial costs vary a lot between
    #: seeds on a faulty grid, so steady means need more of them.
    min_trials: int = MIN_TRIALS

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(matrices=[self.matrix], methods=self.methods,
                            rates=self.rates, repetitions=1, seed=seed,
                            knobs=self.knobs, name=self.name)

    def setup(self, root: Path):
        """Fresh store; build the matrix and solve the fault-free
        baseline (what a user pays before the first trial).  Returns
        the context and its set-up seconds."""
        fresh_process_caches()
        started = time.perf_counter()
        store = CampaignStore(root / "store")
        engine._ideal_time(MatrixSpec.parse(self.matrix), self.knobs,
                           store=store)
        seconds = time.perf_counter() - started
        return {"store": store}, seconds

    def run_pass(self, ctx: dict, seed: int, tally: Tally) -> None:
        spec = self.spec(seed)
        store = ctx["store"]
        try:
            cold, seconds = timed(run_campaign, spec, store=store)
        except Exception as exc:  # noqa: BLE001 - a failed check, not a crash
            tally.check(False, f"cold pass (seed {seed}) raised {exc!r}")
            return
        tally.add_cold_job(seconds)
        tally.add_trials(cold.trials, seed)
        tally.check(cold.executed == spec.num_trials,
                    f"cold pass executed {cold.executed} of "
                    f"{spec.num_trials} trials")
        fingerprint = cold.fingerprint()
        for _ in range(WARM_REPASSES):
            warm, seconds = timed(run_campaign, spec, store=store)
            tally.add_warm_job(seconds)
            tally.check(warm.executed == 0 and
                        warm.fingerprint() == fingerprint,
                        f"warm pass (seed {seed}) executed {warm.executed} "
                        f"trials or changed the fingerprint")

    def quiesce(self, ctx: dict) -> None:
        """Nothing to wait for: the offline workloads start no thread."""

    def verify(self, ctx: dict, tally: Tally) -> None:
        """Nothing left to check: passes are checked as they run."""

    def close(self, ctx: dict) -> None:
        pass


# ----------------------------------------------------------------------
# the daemon workload
# ----------------------------------------------------------------------
@dataclass
class DaemonWorkload:
    """One closed-loop client alternating a warm resubmit of a fixed
    grid and a fresh cold grid against an in-process daemon."""

    name: str
    matrix: str
    knobs: SolverKnobs
    warm_methods: tuple
    warm_rates: tuple
    warm_reps: int
    cold_methods: tuple
    cold_rates: tuple
    cold_reps: int
    workers: int
    min_trials: int = MIN_TRIALS
    warm_fingerprint: Optional[str] = None

    def warm_spec(self) -> CampaignSpec:
        return CampaignSpec(matrices=[self.matrix],
                            methods=self.warm_methods,
                            rates=self.warm_rates,
                            repetitions=self.warm_reps, seed=1,
                            knobs=self.knobs, name=f"{self.name}-warm")

    def cold_spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(matrices=[self.matrix],
                            methods=self.cold_methods,
                            rates=self.cold_rates,
                            repetitions=self.cold_reps, seed=seed,
                            knobs=self.knobs, name=f"{self.name}-cold")

    def prime(self, root: Path) -> None:
        """Run the warm grid offline into a store that every daemon of
        the run starts from, and keep its offline fingerprint."""
        reference = run_campaign(self.warm_spec(),
                                 store=CampaignStore(root / "primed"))
        self.warm_fingerprint = reference.fingerprint()

    def setup(self, root: Path):
        """Start a daemon on a copy of the primed store, load the
        matrix and the baseline, and wait until it answers.  Returns the
        context and its set-up seconds (the store copy is not counted).

        Loading the matrix here also keeps the work counts exact: left
        to the first cold job, both workers may load it at once."""
        from repro.service.client import ServiceClient
        from repro.service.server import CampaignService
        fresh_process_caches()
        store_root = root / "store"
        shutil.copytree(root.parent / "primed", store_root)
        started = time.perf_counter()
        store = CampaignStore(store_root)
        service = CampaignService(host="127.0.0.1", port=0,
                                  workers=self.workers, store=store)
        service.start()
        errors = {"count": 0}
        errors_lock = threading.Lock()

        def count_handler_error(request, client_address) -> None:
            with errors_lock:
                errors["count"] += 1

        # Handler exceptions are counted, not printed.
        service._httpd.handle_error = count_handler_error
        client = ServiceClient(service.url())
        client.wait_until_up(timeout=30.0)
        matrix = MatrixSpec.parse(self.matrix)
        engine._problem(matrix, store=service.warm)
        engine._ideal_time(matrix, self.knobs, store=service.warm)
        seconds = time.perf_counter() - started
        return {"service": service, "client": client, "errors": errors,
                "cold": [], "jobs": []}, seconds

    def _job(self, ctx: dict, spec: CampaignSpec):
        client = ctx["client"]
        started = time.perf_counter()
        job_id = client.submit(spec)["id"]
        submitted = time.perf_counter()
        done = None
        for event in client.watch(job_id, read_timeout=60.0):
            if event.get("event") == "done":
                done = event
        seconds = time.perf_counter() - started
        job = ctx["service"].job(job_id)
        ctx["jobs"].append({"submit_s": submitted - started,
                            "queue_s": job.started_at - job.submitted_at,
                            "exec_s": job.finished_at - job.started_at})
        return job, done, seconds

    def run_pass(self, ctx: dict, seed: int, tally: Tally) -> None:
        warm_spec = self.warm_spec()
        job, done, seconds = self._job(ctx, warm_spec)
        tally.add_warm_job(seconds)
        tally.check(done is not None and job.executed == 0
                    and done["fingerprint"] == self.warm_fingerprint,
                    f"warm job {job.id}: state {job.state}, executed "
                    f"{job.executed}, or fingerprint differs offline")
        cold_spec = self.cold_spec(seed)
        job, done, seconds = self._job(ctx, cold_spec)
        tally.add_cold_job(seconds)
        tally.add_trials(list(job.results), seed)
        tally.check(done is not None and job.executed == job.total,
                    f"cold job {job.id}: state {job.state}, executed "
                    f"{job.executed} of {job.total}")
        ctx["cold"].append((seed, done["fingerprint"] if done else None))

    def quiesce(self, ctx: dict) -> None:
        """Wait until the request handlers of finished jobs have ended.
        The daemon's workers then wait on an empty queue and its
        listener on a 0.1 s poll, so no thread of the program runs."""
        for thread in threading.enumerate():
            if "process_request_thread" in thread.name:
                thread.join(timeout=5.0)

    def verify(self, ctx: dict, tally: Tally) -> None:
        """Every cold job's fingerprint equals an offline run's."""
        for seed, fingerprint in ctx["cold"]:
            try:
                offline = run_campaign(self.cold_spec(seed)).fingerprint()
            except Exception as exc:  # noqa: BLE001 - a failed check
                offline = f"raised {exc!r}"
            tally.check(offline == fingerprint,
                        f"cold job seed {seed}: daemon fingerprint "
                        f"differs from offline run_campaign")

    def service_metrics(self, ctx: dict) -> Dict[str, float]:
        jobs = ctx["jobs"]
        trials = ctx["client"].metrics()["cache"]["trials"]
        lookups = trials["hits"] + trials["misses"]
        return {
            "jobs": len(jobs),
            "cache_hit_ratio": trials["hits"] / lookups if lookups else 0.0,
            "handler_errors": ctx["errors"]["count"],
            "submit_ms_p50": 1e3 * statistics.median(
                j["submit_s"] for j in jobs) if jobs else math.nan,
            "queue_wait_ms_p50": 1e3 * statistics.median(
                j["queue_s"] for j in jobs) if jobs else math.nan,
            "exec_ms_p50": 1e3 * statistics.median(
                j["exec_s"] for j in jobs) if jobs else math.nan,
        }

    def close(self, ctx: dict) -> None:
        service = ctx["service"]
        service.shutdown(drain=True, timeout=60.0)
        for thread in list(service._threads):
            thread.join(timeout=30.0)
        service._httpd.server_close()
        # Handler threads of closed connections end on their own; wait
        # so the run leaves nothing behind.
        self.quiesce(ctx)


# ----------------------------------------------------------------------
# the workload table
# ----------------------------------------------------------------------
def build_workloads(workers: int) -> Dict[str, object]:
    faulty = SolverKnobs(tolerance=1e-8, max_iterations=4000, page_size=50)
    clean = SolverKnobs(tolerance=1e-8, max_iterations=4000, page_size=512)
    return {
        "campaign-faulty": CampaignWorkload(
            name="campaign-faulty", matrix="laplacian2d:20",
            methods=("FEIR", "AFEIR", "Lossy", "ckpt"), rates=(5.0, 20.0),
            knobs=faulty, min_trials=400),
        "campaign-clean": CampaignWorkload(
            name="campaign-clean", matrix="laplacian2d:100",
            methods=("FEIR", "AFEIR"), rates=(1.0,), knobs=clean,
            min_trials=200),
        "daemon-mixed": DaemonWorkload(
            name="daemon-mixed", matrix="laplacian2d:20", knobs=faulty,
            warm_methods=("FEIR", "AFEIR"), warm_rates=(1.0, 5.0),
            warm_reps=12, cold_methods=("FEIR", "AFEIR"),
            cold_rates=(5.0,), cold_reps=2, workers=workers),
    }
