"""Spans around gwfract's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function or method by a wrapper that
records one span per call: its name, layer (the gwfract module that defines
it), start, end, parent span and counters read from the call's arguments or
result.  Modules import one another's names, so a function is replaced in
every gwfract module namespace that holds it; otherwise calls between
modules would go unrecorded.  `layer_metrics` turns the spans into the
per-layer metrics named in BENCHMARK.json.
"""

import functools
import json
import statistics
import sys
import time

# (module, qualified name) of every traced callable; the layer is the module.
TRACED = (
    ("branching", "LazyGW.level_codes"),
    ("branching", "LazyGW.expand"),
    ("branching", "sample_gw"),
    ("branching", "extinction_prob"),
    ("branching", "mc_extinction_frequency"),
    ("extraction", "percolation_pipeline"),
    ("extraction", "general_pipeline"),
    ("geometry", "diffuseness_constant"),
    ("geometry", "render"),
    ("geometry", "render_words"),
    ("geometry", "width"),
    ("geometry", "empirical_diffuse_check"),
    ("geometry", "ahlfors_ratio_check"),
    ("geometry", "box_dimension"),
    ("fixpoint", "GFunction.eval"),
    ("fixpoint", "smallest_fixed_point"),
    ("fixpoint", "smallest_fixed_point_bisect"),
    ("fixpoint", "g_k_a_curve"),
    ("fixpoint", "appendix_b_gap"),
    ("symbolic", "FiniteTree.from_text"),
    ("symbolic", "FiniteTree.to_text"),
    ("cli", "main"),
    ("experiments", "exp_non_diffuseness"),
)

PIPELINES = ("extraction.percolation_pipeline", "extraction.general_pipeline")
SAMPLER_WALKS = ("branching.LazyGW.level_codes", "branching.LazyGW.expand")
RENDERS = ("geometry.render", "geometry.render_words")
BALL_CHECKS = ("geometry.empirical_diffuse_check", "geometry.ahlfors_ratio_check")
SOLVERS = ("fixpoint.smallest_fixed_point", "fixpoint.smallest_fixed_point_bisect")
TREE_IO = ("symbolic.FiniteTree.from_text", "symbolic.FiniteTree.to_text")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counters")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.counters = {}
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start


def _counters(name, result):
    """Work counts of one call, read from its result."""
    if name in PIPELINES:
        return {"nodes_sampled": int(result.stats.get("nodes_sampled", 0)),
                "child_tests": int(result.stats.get("child_tests", 0))}
    if name in RENDERS:
        return {"points": int(len(result.points))}
    if name == "geometry.empirical_diffuse_check":
        return {"balls": int(result["tested"])}
    if name == "geometry.ahlfors_ratio_check":
        return {"balls": int(len(result.samples))}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, layer, fn):
        tracer = self
        counts_nodes = name in SAMPLER_WALKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(span)
            before = args[0].nodes_sampled if counts_nodes else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counts_nodes:
                span.counters["nodes"] = args[0].nodes_sampled - before
            else:
                span.counters.update(_counters(name, result))
            return result

        return traced

    def _replace(self, owner, key, new):
        """Replace a module or class attribute, or a dict entry; remember the old."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def install(self):
        """Wrap every traced callable, and every subtree predicate's `member`."""
        from gwfract.extraction import SubtreePredicate

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "gwfract" or k.startswith("gwfract.")]
        for mod_name, qual in TRACED:
            module = sys.modules["gwfract." + mod_name]
            name = "%s.%s" % (mod_name, qual)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, mod_name, raw.__func__))
                else:
                    new = self._wrap(name, mod_name, raw)
                self._replace(cls, meth, new)
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(name, mod_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
                    elif isinstance(value, dict):  # dispatch tables such as EXPERIMENTS
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._replace(value, key, wrapper)
        pending = list(SubtreePredicate.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "member" in cls.__dict__:
                self._replace(cls, "member", self._wrap(
                    "extraction.%s.member" % cls.__name__, "extraction",
                    cls.__dict__["member"]))

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def write_jsonl(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "start": s.start, "end": s.end, "counters": s.counters,
                }) + "\n")


def _outermost(spans, names):
    """Spans named in `names` that have no ancestor also named in `names`."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, rounds, timed_s):
    """Per-layer metrics, per round of the workload, from one run's spans.

    Counts and times are totals divided by the number of rounds; rates and
    means are taken over all rounds.  A layer's self time is the time of its
    spans minus the time of the spans directly inside them.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
    self_by_layer = {}
    for s in spans:
        own = s.duration - child_time.get(id(s), 0.0)
        self_by_layer[s.layer] = self_by_layer.get(s.layer, 0.0) + own

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(group):
        return sum(s.duration for s in group)

    def counter(group, key):
        return sum(s.counters.get(key, 0) for s in group)

    pipelines = _outermost(spans, PIPELINES)
    walks = named(*SAMPLER_WALKS)
    perco = _outermost(spans, ("extraction.percolation_pipeline",))
    members = [s for s in spans if s.name.endswith(".member")]
    certs = named("geometry.diffuseness_constant")
    renders = _outermost(spans, RENDERS)
    widths = named("geometry.width")
    balls = _outermost(spans, BALL_CHECKS)
    evals = named("fixpoint.GFunction.eval")
    top = [s for s in spans if s.parent is None]

    def mean_ms(group):
        return 1e3 * statistics.fmean(s.duration for s in group) if group else 0.0

    per = 1.0 / rounds
    m = {
        "branching.nodes_sampled": (counter(pipelines, "nodes_sampled") * per, "count"),
        "branching.nodes_per_s": (_ratio(counter(walks, "nodes"), total(walks)), "nodes/s"),
        "branching.mc_s": (total(named("branching.mc_extinction_frequency")) * per, "s"),
        "extraction.child_tests": (counter(pipelines, "child_tests") * per, "count"),
        "extraction.member_calls": (len(members) * per, "count"),
        "extraction.child_tests_per_s": (_ratio(counter(perco, "child_tests"), total(perco)), "tests/s"),
        "extraction.self_s": (self_by_layer.get("extraction", 0.0) * per, "s"),
        "geometry.certs": (len(certs) * per, "count"),
        "geometry.cert_ms": (mean_ms(certs), "ms"),
        "geometry.render_points_per_s": (_ratio(counter(renders, "points"), total(renders)), "points/s"),
        "geometry.width_calls": (len(widths) * per, "count"),
        "geometry.width_ms": (mean_ms(widths), "ms"),
        "geometry.balls_per_s": (_ratio(counter(balls, "balls"), total(balls)), "balls/s"),
        "geometry.boxdim_s": (total(named("geometry.box_dimension")) * per, "s"),
        "fixpoint.g_evals": (len(evals) * per, "count"),
        "fixpoint.g_eval_us": (1e3 * mean_ms(evals), "us"),
        "fixpoint.solve_s": (total(_outermost(spans, SOLVERS)) * per, "s"),
        "symbolic.tree_io_s": (total(named(*TREE_IO)) * per, "s"),
        "cli.self_s": (self_by_layer.get("cli", 0.0) * per, "s"),
        "experiments.self_s": (self_by_layer.get("experiments", 0.0) * per, "s"),
        "trace.coverage": (100.0 * _ratio(total(top), timed_s), "%"),
        "trace.wall_s": (timed_s * per, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
