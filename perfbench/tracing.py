"""In-memory span tracer that wraps bartree's layer functions from outside.

The program itself carries no instrumentation.  ``Tracer.install`` replaces
each traced function at every place a caller looks it up: the defining
module, every ``from ... import`` binding in another bartree module, class
attributes (``ObservationMask.child_positions``) and the check table
``bartree.mc.CHECKS``.  ``uninstall`` puts the originals back, so untraced
passes run the unmodified program.

A span's self time is its duration minus the durations of its direct child
spans.  Summed over all spans, self times equal the summed durations of the
top-level spans, so ``sum(self) + unattributed == pass wall`` holds exactly
up to rounding.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import os
import sys
import time
from collections import defaultdict

LAYERS = ("gw", "bar", "estimation", "inference", "limits", "mc", "io", "cli")

# (module, attribute, span name).  An attribute "Class.method" is traced on
# the class.  Span names start with their layer.
TARGETS = (
    ("gw", "simulate_mask", "gw.simulate_mask"),
    ("gw", "ObservationMask.child_positions", "gw.child_positions"),
    ("gw", "ObservationMask.from_ids", "gw.from_ids"),
    ("gw", "estimate_pi", "gw.estimate_pi"),
    ("gw", "spectral", "gw.spectral"),
    ("bar", "simulate_joint", "bar.simulate_joint"),
    ("bar", "ObservedTree.from_pairs", "bar.from_pairs"),
    ("estimation", "estimate_theta", "estimation.estimate_theta"),
    ("estimation", "theta_path", "estimation.theta_path"),
    ("estimation", "sequential_variance_functionals", "estimation.sequential_variance_functionals"),
    ("estimation", "martingale_diagnostics", "estimation.martingale_diagnostics"),
    ("estimation", "accumulate_design", "estimation.accumulate_design"),
    ("estimation", "true_noise_functionals", "estimation.true_noise_functionals"),
    ("inference", "theta_cis", "inference.theta_cis"),
    ("inference", "sigma_rho_cis", "inference.sigma_rho_cis"),
    ("inference", "wald_test", "inference.wald_test"),
    ("limits", "design_limits", "limits.design_limits"),
    ("limits", "limit_matrices", "limits.limit_matrices"),
    ("mc", "mc_limit_matrices", "mc.limit_matrices"),
    ("mc", "mc_consistency_rate", "mc.consistency_rate"),
    ("mc", "mc_qsl", "mc.qsl"),
    ("mc", "mc_clt", "mc.clt"),
    ("mc", "mc_variance_estimators", "mc.variance_estimators"),
    # the per-replicate workers are private; one shared span name gives the
    # replicate-duration distribution
    ("mc", "_rep_design", "mc.replicate"),
    ("mc", "_rep_consistency", "mc.replicate"),
    ("mc", "_rep_qsl", "mc.replicate"),
    ("mc", "_rep_clt", "mc.replicate"),
    ("mc", "_rep_variance", "mc.replicate"),
    ("io", "write_lineage", "io.write_lineage"),
    ("io", "parse_lineage", "io.parse_lineage"),
    ("io", "write_mask", "io.write_mask"),
    ("io", "parse_mask", "io.parse_mask"),
    ("io", "dump_report", "io.dump_report"),
    ("io", "load_mc_config", "io.load_mc_config"),
    ("io", "load_model_config", "io.load_model_config"),
    ("cli", "run_cli", "cli.run_cli"),
)


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None else 0


def _cells(mask) -> int:
    return mask.total_count(mask.depth)


def _count_simulate_joint(c, args, kwargs, result):
    c["bar.simulate_joint.calls"] += 1
    c["bar.cells_simulated"] += _cells(result.mask)
    c["tree_generations"] += result.depth


def _count_write_lineage(c, args, kwargs, result):
    c["io.bytes_written"] += _file_size(args[1])
    c["io.rows"] += _cells(args[0].mask)


def _count_write_mask(c, args, kwargs, result):
    c["io.bytes_written"] += _file_size(args[1])
    c["io.rows"] += _cells(args[0])


def _count_dump_report(c, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    c["io.bytes_written"] += _file_size(path)


def _count_parse_lineage(c, args, kwargs, result):
    c["io.bytes_read"] += _file_size(args[0])
    c["io.rows"] += _cells(result.mask)


def _count_parse_mask(c, args, kwargs, result):
    c["io.bytes_read"] += _file_size(args[0])
    c["io.rows"] += _cells(result)


def _count_load_config(c, args, kwargs, result):
    c["io.bytes_read"] += _file_size(args[0])


# Exact counts recorded at the boundary, after the span has closed.
COUNTERS = {
    "bar.simulate_joint": _count_simulate_joint,
    "io.write_lineage": _count_write_lineage,
    "io.write_mask": _count_write_mask,
    "io.dump_report": _count_dump_report,
    "io.parse_lineage": _count_parse_lineage,
    "io.parse_mask": _count_parse_mask,
    "io.load_mc_config": _count_load_config,
    "io.load_model_config": _count_load_config,
}


CLI_COMMANDS = ("simulate", "estimate", "gw", "verify")


def span_names() -> list[str]:
    """Every span name a pass can record."""
    names = {span for _, _, span in TARGETS if span != "cli.run_cli"}
    return sorted(names | {f"cli.run_cli.{c}" for c in CLI_COMMANDS})


def _span_name(name, args):
    # run_cli is split per subcommand: argument parsing and report assembly
    # differ between them
    if name == "cli.run_cli" and args and args[0]:
        return f"cli.run_cli.{args[0][0]}"
    return name


# Spans whose individual durations are kept (the replicate distribution and
# the per-check wall times); every other span only adds to its totals.
KEEP_DURATIONS = ("mc.",)


class Tracer:
    """Collects spans of one traced pass at a time.

    ``begin`` clears the previous pass; ``end`` closes it against the pass
    wall time measured by the caller.  With ``keep_spans`` off only the
    totals and counts are kept, so a pass traced for its counts alone holds
    no per-span memory.
    """

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._top_s = 0.0
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from bartree import cli, mc  # noqa: F401  (cli loads io; bartree loads the rest)

        modules = [m for n, m in sys.modules.items() if n == "bartree" or n.startswith("bartree.")]
        for mod_name, attr, span in TARGETS:
            owner = sys.modules[f"bartree.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._patch(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
            for key, value in list(mc.CHECKS.items()):
                if value is original:
                    self._patch(mc.CHECKS, key, wrapped)

    def _patch(self, obj, key, value) -> None:
        if isinstance(obj, dict):
            self._patches.append((obj, key, obj[key]))
            obj[key] = value
        else:
            self._patches.append((obj, key, vars(obj)[key]))
            setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        keep_duration = name.startswith(KEEP_DURATIONS)
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _span_name(name, args)
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    self._top_s += duration
                self.self_s[span] += duration - frame[1]
                self.calls[span] += 1
                if keep_duration:
                    self.durations[span].append(duration)
                if self.keep_spans:
                    spans.append((frame[0], parent, span, start, end))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def begin(self) -> None:
        self._top_s = 0.0
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.durations.clear()
        self.counts.clear()

    def end(self, wall: float) -> dict:
        """Aggregate the pass into per-span and per-layer figures."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span, value in self.self_s.items():
            layer_self[span.split(".")[0]] += value
        return {
            "wall_s": wall,
            "unattributed_s": wall - self._top_s,
            "layer_self_s": layer_self,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counts": dict(self.counts),
        }

    def write_spans(self, path) -> None:
        """Write the last pass's spans as gzip CSV (times relative to its first span)."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_us,end_us\n")
            for sid, parent, name, start, end in sorted(self.spans):
                out.write(f"{sid},{parent},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
