"""Span tracing around the calls into each focklab module.

The tracer patches module attributes where the caller looks them up:
focklab modules import each other with ``from ... import``, so a name
such as ``apply_channel`` is wrapped separately in ``focklab.cmoe``,
``focklab.lemma``, ``focklab.cli`` and ``focklab.channels``.  Nothing
inside ``src/`` changes.  Each span records its name, start, end,
parent and a small info value; spans stay in memory until the run ends.
"""

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, info]
        self._stack = []
        self._patched = []
        self._map_keys = set()
        self.missing = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, info_of=None, **kwargs):
        """Run fn inside a span; info_of(args, kwargs, result) fills its info."""
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[4] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if info_of is not None:
            span[4] = info_of(args, kwargs, result)
        return result

    def wrap(self, module, attr, name, info_of=None, before=None):
        """Replace module.attr with a traced wrapper.

        before(args, kwargs) runs outside the span and its value is
        handed to info_of as a fourth argument.  A name the module no
        longer has is listed in self.missing and its layer reads zero.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if before is None:
                return self.call(name, orig, *args, info_of=info_of, **kwargs)
            pre = before(args, kwargs)
            return self.call(
                name, orig, *args, info_of=lambda a, k, r: info_of(a, k, r, pre), **kwargs
            )

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def uninstall(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)

    # -- focklab wiring ----------------------------------------------------

    def install(self, focklab_modules):
        m = focklab_modules
        channels, states = m["channels"], m["states"]

        def dilation_info(a, k, result):
            return {"bytes": sum(blk.matrix.nbytes for blk in result.blocks)}

        def map_key(args, kwargs):
            spec, d_in = args[0], args[1]
            dims = args[2] if len(args) > 2 else kwargs.get("dims")
            if dims is None:
                dims = channels.default_dims(spec, d_in)
            key = (spec.kind, spec.parameter, float(spec.env_energy), d_in, dims)
            miss = key not in self._map_keys
            self._map_keys.add(key)
            return miss, dims

        def map_info(a, k, cmap, pre):
            miss, dims = pre
            return {
                "miss": miss,
                "map": id(cmap),
                "bytes": sum(b.nbytes for b in cmap.bands),
                "d_out": cmap.d_out,
                "d_sys": dims.d_sys,
            }

        def eig_info(args, k, r):
            return {"dim": int(args[0].shape[0])}

        def vn_info(args, k, r):
            return {"diag": isinstance(args[0], states.DiagonalState)}

        def draw_info(args, k, r):
            return {"kind": args[0].kind}

        def search_info(a, k, result):
            return {"iters": result.iterations, "accepted": result.accepted}

        def check_info(a, k, rep):
            return {"suppressed": rep.verdict is None}

        def grid_info(a, k, report):
            return {"points": report.points_checked}

        for attr in ("beamsplitter_unitary", "squeezer_unitary"):
            self.wrap(channels, attr, "channels.dilation", dilation_info)
        self.wrap(channels, "get_channel_map", "channels.map_build", map_info, before=map_key)
        for mod in ("channels", "cmoe", "lemma"):
            for attr in ("apply_channel", "apply_diagonal"):
                self.wrap(m[mod], attr, "channels.apply")
        self.wrap(m["cli"], "apply_diagonal", "channels.apply")
        self.wrap(m["entropy"], "hermitian_spectrum", "linalg.eig", eig_info)
        self.wrap(m["sampling"], "hermitian_eigh", "linalg.eig", eig_info)
        for mod in ("cmoe", "sampling"):
            self.wrap(m[mod], "von_neumann_entropy", "entropy.vn", vn_info)
        for mod in ("cli", "sampling"):
            self.wrap(m[mod], "draw_state", "sampling.draw", draw_info)
            self.wrap(m[mod], "adversarial_search", "sampling.adversarial", search_info)
        for mod in ("cli", "cmoe", "sampling"):
            self.wrap(m[mod], "check_cmoe", "cmoe.check", check_info)
        self.wrap(m["cmoe"], "bound_for", "cmoe.bound")
        self.wrap(m["cmoe"], "g_inv", "thermal.g_inv")
        self.wrap(m["cli"], "verify_lemma_inequalities", "lemma.grid", grid_info)
        for mod in ("cli", "lemma"):
            self.wrap(m[mod], "solve_p_of_q", "lemma.solver")
            self.wrap(m[mod], "scan_ratio_maximizer", "lemma.scan")
        self.wrap(m["cli"], "pq_norm_saturation_probe", "lemma.probe")


PER_LAYER_FROM_SPANS = (
    "channels.dilation.count",
    "channels.dilation.s",
    "channels.dilation.bytes",
    "channels.map_build.count",
    "channels.map_build.s",
    "channels.map_build.hit_ratio",
    "channels.map.bytes",
    "channels.map.max_d_out",
    "channels.map.max_d_sys",
    "channels.apply.count",
    "channels.apply.self_s",
    "channels.truncation_errors",
    "linalg.eig.count",
    "linalg.eig.s",
    "linalg.eig.mean_dim",
    "entropy.vn.count",
    "entropy.vn.self_s",
    "entropy.vn.diag_count",
    *(
        f"sampling.draw.{kind}.{what}"
        for kind in ("mixed", "pure", "diagonal", "pinned")
        for what in ("count", "s")
    ),
    "sampling.pinned.entropy_evals",
    "sampling.adversarial.iters",
    "sampling.adversarial.s",
    "sampling.adversarial.check_s",
    "sampling.adversarial.accept_ratio",
    "cmoe.check.count",
    "cmoe.check.self_s",
    "cmoe.check.suppressed",
    "cmoe.bound.s",
    "thermal.g_inv.count",
    "thermal.g_inv.s",
    "lemma.grid.s",
    "lemma.grid.points",
    "lemma.solver.count",
    "lemma.solver.s",
    "lemma.scan.s",
    "lemma.probe.s",
    "cli.command.s",
    "cli.self_s",
    "trace.unaccounted_s",
)


def layer_metrics(spans, t0, t1):
    """Per-layer metrics from the spans that start inside [t0, t1]."""
    inside = [i for i, s in enumerate(spans) if t0 <= s[1] <= t1]
    child_s = {}
    for i in inside:
        parent = spans[i][3]
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + spans[i][2] - spans[i][1]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_s(i):
        return dur(i) - child_s.get(i, 0.0)

    def info(i):
        return spans[i][4] or {}

    def nearest(i, names):
        parent = spans[i][3]
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        return parent

    by_name = {}
    for i in inside:
        by_name.setdefault(spans[i][0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    out = {name: 0 for name in PER_LAYER_FROM_SPANS}

    dil = named("channels.dilation")
    out["channels.dilation.count"] = len(dil)
    out["channels.dilation.s"] = sum(dur(i) for i in dil)
    out["channels.dilation.bytes"] = sum(info(i).get("bytes", 0) for i in dil)

    maps = named("channels.map_build")
    misses = [i for i in maps if info(i).get("miss")]
    out["channels.map_build.count"] = len(misses)
    out["channels.map_build.s"] = sum(dur(i) for i in misses)
    out["channels.map_build.hit_ratio"] = (len(maps) - len(misses)) / len(maps) if maps else 0
    distinct = {info(i)["map"]: info(i) for i in maps if "map" in info(i)}
    out["channels.map.bytes"] = sum(d["bytes"] for d in distinct.values())
    out["channels.map.max_d_out"] = max((d["d_out"] for d in distinct.values()), default=0)
    out["channels.map.max_d_sys"] = max((d["d_sys"] for d in distinct.values()), default=0)

    applies = named("channels.apply")
    out["channels.apply.count"] = len(applies)
    out["channels.apply.self_s"] = sum(self_s(i) for i in applies)
    # a nested additive factor re-raises through its outer apply; count once
    out["channels.truncation_errors"] = sum(
        1
        for i in applies
        if info(i).get("error") == "TruncationError"
        and nearest(i, {"channels.apply"}) is None
    )

    eig = named("linalg.eig")
    out["linalg.eig.count"] = len(eig)
    out["linalg.eig.s"] = sum(dur(i) for i in eig)
    out["linalg.eig.mean_dim"] = sum(info(i)["dim"] for i in eig) / len(eig) if eig else 0

    vn = named("entropy.vn")
    out["entropy.vn.count"] = len(vn)
    out["entropy.vn.self_s"] = sum(self_s(i) for i in vn)
    out["entropy.vn.diag_count"] = sum(1 for i in vn if info(i).get("diag"))

    for i in named("sampling.draw"):
        kind = info(i).get("kind")
        out[f"sampling.draw.{kind}.count"] += 1
        out[f"sampling.draw.{kind}.s"] += dur(i)
    out["sampling.pinned.entropy_evals"] = sum(
        1
        for i in vn
        if (d := nearest(i, {"sampling.draw"})) is not None and info(d).get("kind") == "pinned"
    )

    adv = named("sampling.adversarial")
    iters = sum(info(i).get("iters", 0) for i in adv)
    out["sampling.adversarial.iters"] = iters
    out["sampling.adversarial.s"] = sum(dur(i) for i in adv)
    checks = named("cmoe.check")
    out["sampling.adversarial.check_s"] = sum(
        dur(i) for i in checks if spans[i][3] is not None and spans[spans[i][3]][0] == "sampling.adversarial"
    )
    out["sampling.adversarial.accept_ratio"] = (
        sum(info(i).get("accepted", 0) for i in adv) / iters if iters else 0
    )

    out["cmoe.check.count"] = len(checks)
    out["cmoe.check.self_s"] = sum(self_s(i) for i in checks)
    out["cmoe.check.suppressed"] = sum(1 for i in checks if info(i).get("suppressed"))
    out["cmoe.bound.s"] = sum(dur(i) for i in named("cmoe.bound"))
    ginv = named("thermal.g_inv")
    out["thermal.g_inv.count"] = len(ginv)
    out["thermal.g_inv.s"] = sum(dur(i) for i in ginv)

    grid = named("lemma.grid")
    out["lemma.grid.s"] = sum(dur(i) for i in grid)
    out["lemma.grid.points"] = sum(info(i).get("points", 0) for i in grid)
    solver = named("lemma.solver")
    out["lemma.solver.count"] = len(solver)
    out["lemma.solver.s"] = sum(dur(i) for i in solver)
    out["lemma.scan.s"] = sum(dur(i) for i in named("lemma.scan"))
    out["lemma.probe.s"] = sum(dur(i) for i in named("lemma.probe"))

    cmd = named("cli.command")
    out["cli.command.s"] = sum(dur(i) for i in cmd)
    out["cli.self_s"] = sum(self_s(i) for i in cmd)

    top = sum(dur(i) for i in inside if spans[i][3] is None)
    out["trace.unaccounted_s"] = (t1 - t0) - top
    return out
