"""Spans around the package's layers, recorded from outside the package.

`install` replaces public functions and methods of the `sparsid` modules
with wrappers that record one span per call: name, start and end on the
wall clock and on the calling thread's CPU clock, parent span and thread
id. Layer times are CPU (busy) time: under the CLI's threaded pipeline a
span's wall time also holds the time its thread waited for the interpreter
lock. Spans are kept in memory and written out when the traced process
ends; `layer_metrics` turns them into the per-layer metrics. Functions a
module no longer has are skipped, so their metrics read 0.
"""

import functools
import json
import threading
import time

import numpy as np

# span record layout
NAME, START, END, CPU_START, CPU_END, PARENT, TID, SIZE = range(8)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, size=None):
        """Wrap fn so each call records a span; size(args) gives a work count."""
        spans, lock, local = self.spans, self._lock, self._local
        clock, cpu = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0, 0, 0, 0, stack[-1] if stack else -1, threading.get_ident(), 0]
            if size is not None:
                span[SIZE] = size(args)
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[CPU_START] = cpu()
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                span[CPU_END] = cpu()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Proxy:
    """A module stand-in that traces some attributes and forwards the rest."""

    def __init__(self, target, **traced):
        self._target = target
        self.__dict__.update(traced)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    """Patch the sparsid modules in this process. Call before cli.main."""
    import sparsid.cli as cli
    import sparsid.dictionary as dictionary
    import sparsid.monitor as monitor
    import sparsid.posterior as posterior
    import sparsid.recursion as recursion
    import sparsid.analyze as analyze

    def patch(modules, attr, name, size=None):
        for mod in modules:
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, tracer.wrap(name, fn, size))

    patch([cli], "run_fit", "cli.run_fit")
    patch([cli], "run_monitor", "cli.run_monitor")
    if hasattr(cli, "json"):
        cli.json = _Proxy(cli.json, dumps=tracer.wrap("cli.json_dumps", cli.json.dumps))
    patch([recursion], "init", "recursion.init")
    patch([recursion], "step", "recursion.step")
    patch([recursion], "step_record", "recursion.step_record")
    patch([recursion], "snapshot", "recursion.snapshot")
    patch([posterior, recursion], "batch_fit", "posterior.batch_fit")
    patch([posterior, recursion], "refresh_horseshoe", "posterior.refresh_horseshoe")
    for method in ("mean_blocks", "covariance_blocks", "std_blocks"):
        patch([posterior.PosteriorState], method, "posterior.solve")
    for mod in (posterior, recursion):
        linalg = getattr(mod, "linalg", None)
        if linalg is not None and hasattr(linalg, "cho_factor"):
            mod.linalg = _Proxy(
                linalg, cho_factor=tracer.wrap("posterior.cho_factor", linalg.cho_factor)
            )
    patch(
        [dictionary, recursion, monitor, posterior, analyze],
        "build_matrix",
        "dictionary.build_matrix",
        size=lambda args: len(args[1]),
    )
    patch([cli, monitor], "utility", "monitor.utility")
    patch([recursion, monitor], "utility_from_differential", "monitor.utility")
    patch([cli, monitor], "check_pe", "monitor.check_pe")
    patch([cli], "render_equations", "analyze.render_equations")
    patch([cli], "score_errors", "analyze.score_errors")


_RUN_SPANS = ("cli.run_fit", "cli.run_monitor")


def layer_metrics(spans: list, records: list, rows_in: int, bytes_out: int) -> dict:
    """Per-layer metrics of one traced CLI process (without trace_overhead_frac).

    Per-step figures cover the streaming path: every span outside
    recursion.init. Self time is a span minus its direct children, which
    run on the span's own thread. cli.self_s is the wall time of the run
    span minus the busy time of the library spans on every thread: parse,
    driver code, JSON emit and waiting at the pipeline's hand-offs.
    """
    n = len(spans)
    wall = np.array([(s[END] - s[START]) / 1e3 for s in spans])  # us
    dur = np.array([(s[CPU_END] - s[CPU_START]) / 1e3 for s in spans])  # us, busy
    names = [s[NAME] for s in spans]
    parent = [s[PARENT] for s in spans]
    child_us = np.zeros(n)
    for i, p in enumerate(parent):
        if p >= 0:
            child_us[p] += dur[i]

    in_init = [False] * n
    for i in range(n):  # parents precede children
        p = parent[i]
        in_init[i] = names[i] == "recursion.init" or (p >= 0 and in_init[p])

    def pick(name, streaming=True, outermost=False):
        return [
            i
            for i in range(n)
            if names[i] == name
            and not (streaming and in_init[i])
            and not (outermost and parent[i] >= 0 and names[parent[i]] == name)
        ]

    steps = max(len(records), 1)
    step_spans = pick("recursion.step")
    refresh = dur[pick("posterior.refresh_horseshoe")] / 1e3
    builds = pick("dictionary.build_matrix")
    rows_built = sum(spans[i][SIZE] for i in builds)
    utility_spans = pick("monitor.utility", outermost=True)
    check_pe = pick("monitor.check_pe")
    json_spans = pick("cli.json_dumps")
    run = [i for i in range(n) if names[i] in _RUN_SPANS]
    # library spans directly under the run span, or at the top of another thread
    library = [
        i
        for i in range(n)
        if names[i] not in _RUN_SPANS
        and names[i] != "cli.json_dumps"
        and (parent[i] == -1 or names[parent[i]] in _RUN_SPANS)
    ]
    classes = [r.get("classification") for r in records]

    def mean(idx):
        return float(np.mean(dur[idx])) if len(idx) else 0.0

    return {
        "posterior.cho_factor_per_step": len(pick("posterior.cho_factor")) / steps,
        "posterior.solve_us_per_step": float(np.sum(dur[pick("posterior.solve", outermost=True)]))
        / steps,
        "recursion.step_self_us": float(np.mean(dur[step_spans] - child_us[step_spans]))
        if step_spans
        else 0.0,
        "recursion.step_record_us": mean(pick("recursion.step_record")),
        "recursion.snapshots_per_step": len(pick("recursion.snapshot")) / steps,
        "posterior.refresh_calls": float(refresh.size),
        "posterior.refresh_ms_p50": float(np.median(refresh)) if refresh.size else 0.0,
        "posterior.refresh_ms_max": float(np.max(refresh)) if refresh.size else 0.0,
        "recursion.init_ms": float(np.sum(dur[pick("recursion.init", streaming=False)])) / 1e3,
        "posterior.batch_fit_ms": float(np.sum(dur[pick("posterior.batch_fit", streaming=False)]))
        / 1e3,
        "dictionary.build_calls_per_step": len(builds) / steps,
        "dictionary.rows_built_per_row_in": rows_built / max(rows_in, 1),
        "dictionary.build_us_per_row": float(np.sum(dur[builds])) / max(rows_built, 1),
        "monitor.utility_us": mean(utility_spans),
        "monitor.informative_frac": classes.count("informative") / steps,
        "monitor.degrading_frac": classes.count("degrading") / steps,
        "monitor.check_pe_us": mean(check_pe),
        "cli.self_s": float(np.sum(wall[run]) - np.sum(dur[library])) / 1e6,
        "cli.json_us_per_record": mean(json_spans),
        "cli.bytes_out_per_step": bytes_out / steps,
        "analyze.render_ms": float(np.sum(dur[pick("analyze.render_equations")])) / 1e3,
        "analyze.score_ms": float(np.sum(dur[pick("analyze.score_errors")])) / 1e3,
    }
