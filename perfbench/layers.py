"""Layer attribution from outside the program.

The benchmark never edits the simulator.  It measures each layer by
replacing the live instance bindings of the layer's public methods with
timing wrappers, after the target has been built.  That includes the
uninstrumented ``_*_fast`` twins that ``VansSystem``, the iMC, the DIMMs,
the media and the baselines bind instance-side at build time: wrapping
``getattr(owner, name)`` picks up whatever binding is live, so the traced
run times exactly the code the untraced run executes.

Self time is exclusive: a layer's span minus the spans of the layers it
calls.  A call is counted when control enters a layer from a different
layer, so a layer calling its own helpers counts once.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: Iterations of :func:`calibration_loop` between two units of work.
CALIBRATION_ITERS = 60_000


def calibration_loop(iters: int = CALIBRATION_ITERS) -> int:
    """Fixed pure-Python work that measures how fast the interpreter runs
    right now on this host: per iteration one multiply-add, one mask and
    one dict store.  Unit CPU time divided by the CPU time of this loop is
    steady across a shared machine's speed swings."""
    table = {}
    acc = 0
    for i in range(iters):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        table[acc & 1023] = i
    return acc + len(table)


class Tracer:
    """Exclusive (self) time and boundary-crossing call counts per layer."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = Counter()
        # Frames are [layer, child seconds]; the root frame is no layer.
        self._stack = [[None, 0.0]]

    def timed(self, layer: str, fn):
        """``fn`` wrapped so that each call is a span of ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] != layer:
                calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                parent[1] += dt

        return traced

    def wrap(self, layer: str, owner, attr: str) -> None:
        """Time every call of ``owner.attr`` as ``layer``, instance-side."""
        setattr(owner, attr, self.timed(layer, getattr(owner, attr)))

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` once as a span of ``layer``."""
        return self.timed(layer, fn)(*args, **kwargs)


def count_requests(owner, attr: str, counts: Counter, key: str) -> None:
    """Count calls of ``owner.attr`` into ``counts[key]`` (instance-side)."""
    fn = getattr(owner, attr)

    def counted(*args):
        counts[key] += 1
        return fn(*args)

    setattr(owner, attr, counted)


# ----------------------------------------------------------------------
# the layer map: which live bindings belong to which layer
# ----------------------------------------------------------------------

_DIMM_METHODS = ("read_line", "write_line", "flush", "_flush_wc",
                 "_ait_lookup", "_ait_insert", "_ait_read_block",
                 "_ait_write_block", "warm_fill")
_LAZY_METHODS = ("absorb", "contains", "mark_hot", "is_hot")


def boundary_layer(target) -> str:
    """The layer that owns a target's ``TargetSystem`` methods."""
    return "vans.system" if hasattr(target, "imc") else "baselines"


def request_methods(target):
    """``(method, counter key)`` of every request entry point at the
    ``TargetSystem`` boundary (PMEP's nt-store path is a write)."""
    methods = [("read", "read"), ("write", "write"), ("fence", "fence")]
    if hasattr(target, "write_nt"):
        methods.append(("write_nt", "write"))
    return methods


def instrument_target(target, tracer: Tracer) -> None:
    """Wrap every layer below a built target's boundary."""
    boundary = boundary_layer(target)
    for method, _ in request_methods(target):
        tracer.wrap(boundary, target, method)
    tracer.wrap(boundary, target, "warm_fill")
    imc = getattr(target, "imc", None)
    if imc is None:
        # Baselines: their DRAM device is part of the baseline model.
        return
    for method in ("read", "write", "fence"):
        tracer.wrap("vans.imc", imc, method)
    for dimm in imc.dimms:
        for method in _DIMM_METHODS:
            tracer.wrap("vans.dimm", dimm, method)
        for method in ("access", "access_block"):
            tracer.wrap("dram", dimm.dram, method)
            tracer.wrap("media.xpoint", dimm.media, method)
        for method in ("on_read", "on_write", "translate",
                       "block_write_count"):
            tracer.wrap("media.wear", dimm.wear, method)
        if dimm.lazy is not None:
            for method in _LAZY_METHODS:
                tracer.wrap("optim.lazycache", dimm.lazy, method)


def instrument_full_system(system, tracer: Tracer) -> None:
    """Wrap the CPU layers of a built :class:`repro.cpu.FullSystem`."""
    tracer.wrap("cpu.core", system.core, "execute")
    tracer.wrap("cpu.cache", system.caches, "access")
    tracer.wrap("cpu.tlb", system.tlbs, "translate")
    tracer.wrap("cpu.tlb", system.tlbs, "install")
    if system.core.pretranslation is not None:
        tracer.wrap("optim.pretranslation", system.core.pretranslation,
                    "observe")
