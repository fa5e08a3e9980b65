"""Which functions of the program make up each traced layer.

A layer is named after the ``repro`` module it lives in.  Each entry
wraps one public function (plus the campaign engine's baseline solve,
which has no public name) and, where the layer has a work count, an
``after`` hook that adds to the tracer's counters.  Counts derived
from array sizes (kernel flops and bytes) are *computed* from n and
nnz, not measured.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from tracer import Tracer, is_wrapped

Target = Tuple[object, str, str, Optional[Callable]]

#: Layers in report order.
LAYERS = ("runtime.scheduler", "runtime.graph", "solvers",
          "runtime.kernels", "core", "faults", "memory", "campaign.store",
          "campaign.engine", "matrices")

#: Counters added by the ``after`` hooks, per layer.
COUNTERS = {
    "runtime.graph": ("tasks_added",),
    "solvers": ("iterations",),
    "runtime.kernels": ("flops_computed", "bytes_computed"),
    "core": ("pages_recovered", "pages_unrecoverable"),
    "faults": ("injected", "detected"),
    "campaign.store": ("puts", "gets", "hits"),
}


def _nnz(engine) -> int:
    return int(engine.A.nnz)


def _vector_op(flops_per_n: int, bytes_per_n: int) -> Callable:
    def after(tracer: Tracer, args, kwargs, result) -> None:
        n = args[0].n
        tracer.count("runtime.kernels.flops_computed", flops_per_n * n)
        tracer.count("runtime.kernels.bytes_computed", bytes_per_n * n)
    return after


def _spmv_counts(engine) -> Tuple[int, int]:
    # CSR: 8-byte value + 4-byte column index per nonzero, the row
    # pointer, one read of x and one write of the result.
    n, nnz = engine.n, _nnz(engine)
    return 2 * nnz, 12 * nnz + 8 * (n + 1) + 16 * n


def _after_spmv(tracer: Tracer, args, kwargs, result) -> None:
    flops, nbytes = _spmv_counts(args[0])
    tracer.count("runtime.kernels.flops_computed", flops)
    tracer.count("runtime.kernels.bytes_computed", nbytes)


def _after_residual(tracer: Tracer, args, kwargs, result) -> None:
    flops, nbytes = _spmv_counts(args[0])
    n = args[0].n
    tracer.count("runtime.kernels.flops_computed", flops + n)
    tracer.count("runtime.kernels.bytes_computed", nbytes + 16 * n)


def _after_add_task(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("runtime.graph.tasks_added")


def _after_solve(tracer: Tracer, args, kwargs, result) -> None:
    record = result.record
    tracer.count("solvers.iterations", record.iterations)
    tracer.count("faults.injected", record.faults_injected)
    tracer.count("faults.detected", record.faults_detected)
    tracer.count("core.pages_recovered", result.stats.pages_recovered)
    tracer.count("core.pages_unrecoverable",
                 result.stats.pages_unrecoverable)


def _after_get(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("campaign.store.gets")
    if result is not None:
        tracer.count("campaign.store.hits")


def _after_put(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("campaign.store.puts")


def targets() -> List[Target]:
    """``(owner, attribute, layer, after)`` for every traced function."""
    from repro.campaign import engine
    from repro.campaign.spec import MatrixSpec
    from repro.campaign.store import CampaignStore
    from repro.core import manager  # noqa: F401 - imports every strategy
    from repro.core.strategy import RecoveryStrategy
    from repro.faults.scenarios import ErrorScenario
    from repro.memory.manager import MemoryManager
    from repro.runtime.graph import TaskGraph
    from repro.runtime.kernels import LocalKernelEngine
    from repro.runtime.scheduler import ListScheduler
    from repro.service import server
    from repro.solvers.resilient_cg import ResilientCG

    out: List[Target] = [
        (ListScheduler, "run", "runtime.scheduler", None),
        (TaskGraph, "add_task", "runtime.graph", _after_add_task),
        (TaskGraph, "validate", "runtime.graph", None),
        (TaskGraph, "topological_order", "runtime.graph", None),
        (ResilientCG, "solve", "solvers", _after_solve),
        (LocalKernelEngine, "dot", "runtime.kernels", _vector_op(2, 16)),
        (LocalKernelEngine, "spmv", "runtime.kernels", _after_spmv),
        (LocalKernelEngine, "axpy", "runtime.kernels", _vector_op(2, 24)),
        (LocalKernelEngine, "update_direction", "runtime.kernels",
         _vector_op(2, 24)),
        (LocalKernelEngine, "residual", "runtime.kernels", _after_residual),
        (ErrorScenario, "schedule", "faults", None),
        (MatrixSpec, "build", "matrices", None),
        (engine, "run_campaign", "campaign.engine", None),
        (engine, "run_trial", "campaign.engine", None),
        (engine, "_ideal_time", "campaign.engine", None),
        (server, "run_trial", "campaign.engine", None),
    ]
    for name in ("get_trial", "get_matrix", "get_baseline"):
        out.append((CampaignStore, name, "campaign.store", _after_get))
    for name in ("put_trial", "put_matrix", "put_baseline"):
        out.append((CampaignStore, name, "campaign.store", _after_put))
    out.append((CampaignStore, "journal_append", "campaign.store", None))
    for name in ("poison", "touch", "mark_recovered", "overwrite", "state",
                 "is_available", "lost_pages"):
        out.append((MemoryManager, name, "memory", None))
    # Every recovery strategy that defines its own handler (subclasses
    # that inherit one are traced through their base class).
    pending = [RecoveryStrategy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "handle_lost_pages" in vars(cls):
            out.append((cls, "handle_lost_pages", "core", None))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every target; undo with ``tracer.uninstall()``."""
    for owner, attr, layer, after in targets():
        tracer.wrap(owner, attr, layer, after)


def wrapped_targets() -> List[str]:
    """Names of the targets that currently carry a tracer wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in targets()
            if is_wrapped(vars(owner)[attr])]
