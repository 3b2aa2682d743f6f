"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the functions listed in ``layers.json`` on every
esikit module attribute that refers to them, because callers resolve those
attributes at call time (``esikit.model.adam_step``,
``esikit.cli.sloreta_solve``, ...). Each call records a span: id, parent
span, name, start and end, all under one run id. Spans stay in memory until
the run writes them out. The VJP closures of the listed primitives are timed
the same way, as ``autodiff.vjp.<primitive>``.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.

Counts made at the same boundaries (``COUNTS``) are computed from arguments
and shapes, not measured, so they repeat exactly for the same inputs:

* ``nmm.rk4_steps``: ceil(duration / dt) per ``simulate_jansen_rit`` call.
* ``autodiff.conv2d.flops`` / ``.bytes``: a forward ``conv2d`` or
  ``transpose_conv2d`` with kernel (co, ci, kh, kw) over a conv-side grid of
  (b, co, ho, wo) counts 2*b*co*ho*wo*ci*kh*kw flops and 8 bytes per element
  of its input, kernel and output; its VJP counts twice the flops and the
  bytes of the incoming gradient, the input and kernel, and both gradients.
* ``tensorio.bytes_written`` / ``bytes_read``: file sizes.
"""

import contextlib
import importlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from esikit import autodiff

# counts that must repeat exactly between two traced passes of the same work
COUNTS = ("nmm.rk4_steps", "autodiff.vars_created", "autodiff.tape_nodes",
          "autodiff.conv2d.flops", "autodiff.conv2d.bytes",
          "tensorio.bytes_written", "tensorio.bytes_read")


def exact_counts(metrics):
    """The numbers that must repeat exactly for the same work."""
    return {k: v for k, v in metrics.items() if k in COUNTS or k.endswith(".calls")}


def _size(v):
    return np.size(v.data if isinstance(v, autodiff.Var) else v)


def _shape(v):
    return np.shape(v.data if isinstance(v, autodiff.Var) else v)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []             # (id, parent, name, start, end)
        self.counts = Counter()
        self.errors = Counter()     # module -> exceptions that left its spans
        self.paused = False
        self._stack = []
        self._next_id = 0
        self._leadfields = []       # lead fields seen by minimum_norm_kernel
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _timed(self, name, module, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[module] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name, module, fn, hook=None, span=True):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if span:
                out = self._timed(name, module, fn, args, kwargs)
            else:
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(out, *args, **kwargs)
            return out
        return traced

    @contextlib.contextmanager
    def pause(self):
        """Calls made by the benchmark's own checks are not traced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- hooks: counts and VJP timing ---------------------------------------

    def _time_vjps(self, prim, module, out, flops=0, nbytes=0):
        for v in out if isinstance(out, tuple) else (out,):
            if not isinstance(v, autodiff.Var) or v._vjp is None:
                continue
            def vjp(g, f=v._vjp):
                self.counts["autodiff.conv2d.flops"] += flops
                self.counts["autodiff.conv2d.bytes"] += nbytes
                return self._timed(f"autodiff.vjp.{prim}", module, f, (g,), {})
            v._vjp = vjp

    def _vjp_hook(self, prim, module):
        return lambda out, *a, **k: self._time_vjps(prim, module, out)

    def _conv_hook(self, prim, conv_side_is_output):
        def hook(out, x, kernel, *a, **k):
            co, ci, kh, kw = _shape(kernel)
            grid = _shape(out) if conv_side_is_output else _shape(x)
            b, _, ho, wo = grid
            flops = 2 * b * co * ho * wo * ci * kh * kw
            n_in, n_k, n_out = _size(x), _size(kernel), _size(out)
            self.counts["autodiff.conv2d.flops"] += flops
            self.counts["autodiff.conv2d.bytes"] += 8 * (n_in + n_k + n_out)
            self._time_vjps(prim, "autodiff", out, 2 * flops,
                            8 * (n_out + 2 * n_in + 2 * n_k))
        return hook

    def _hooks(self):
        c = self.counts

        def rk4(out, params, n_timepoints, sample_rate, seed=None):
            duration = params.burn_in + n_timepoints / sample_rate
            c["nmm.rk4_steps"] += math.ceil(duration / params.dt)

        def placed(out, *a, **k):
            c["nmm.sources_placed"] += len(out[1])

        def written(out, arr, path):
            c["tensorio.bytes_written"] += os.path.getsize(path)

        def read(out, path):
            c["tensorio.bytes_read"] += os.path.getsize(path)

        def kernel(out, lf, *a, **k):
            if not any(seen is lf for seen in self._leadfields):
                self._leadfields.append(lf)

        return {
            "nmm.simulate_jansen_rit": rk4,
            "nmm.generate_source_activity": placed,
            "tensorio.save_tensor": written,
            "tensorio.load_tensor": read,
            "sloreta.minimum_norm_kernel": kernel,
            "autodiff.conv2d": self._conv_hook("conv2d", True),
            "autodiff.transpose_conv2d": self._conv_hook("transpose_conv2d", False),
        }

    # -- installation -------------------------------------------------------

    def _replace(self, orig, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "esikit" and not name.startswith("esikit."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self, layers):
        """Wrap every function and VJP named in the ``layers`` table."""
        hooks = self._hooks()
        Var = autodiff.Var
        for layer in layers:
            module = layer["module"]
            mod = importlib.import_module(f"esikit.{module}")
            vjps = set(layer.get("vjps", ()))
            for fname in layer["functions"]:
                name = f"{module}.{fname}"
                if fname == "Var.backward":
                    orig = Var.__dict__["backward"]
                    self._undo.append((Var, "backward", orig))
                    Var.backward = self._wrap(name, module, orig)
                    continue
                orig = getattr(mod, fname)
                hook = hooks.get(name)
                if fname in vjps and hook is None:
                    hook = self._vjp_hook(fname, module)
                self._replace(orig, self._wrap(name, module, orig, hook))
            for prim in vjps - set(layer["functions"]):
                orig = getattr(mod, prim)
                self._replace(orig, self._wrap(prim, module, orig,
                                               self._vjp_hook(prim, module),
                                               span=False))

        orig_init = Var.__init__

        def init(v, data, parents=(), vjp=None):
            orig_init(v, data, parents, vjp)
            if not self.paused:
                self.counts["autodiff.vars_created"] += 1
                if vjp is not None:
                    self.counts["autodiff.tape_nodes"] += 1
        self._undo.append((Var, "__init__", orig_init))
        Var.__init__ = init

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, layers, timed_s):
        """Every per-layer number of this pass, by metric name.

        ``timed_s`` is the wall time of the pass's timed calls. The share of
        it spent in a module's own listed functions, not in their traced
        callees, is ``<module>.self_share``: halving a module's time speeds
        the pass by about half that share. The share spent inside a listed
        function other than the ``cli.cmd_*`` dispatchers is
        ``trace.span_coverage``.
        """
        child = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[sid]
        out = {}
        for layer in layers:
            module = layer["module"]
            names = [f"{module}.{f}" for f in layer["functions"]]
            names += [f"autodiff.vjp.{p}" for p in layer.get("vjps", ())]
            for name in names:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.total_s"] = total[name]
                out[f"{name}.self_s"] = self_s[name]
            out[f"{module}.errors"] = self.errors[module]
            out[f"{module}.self_share"] = sum(self_s[n] for n in names) / timed_s
        out.update({k: self.counts[k] for k in COUNTS})
        grow = calls["geometry.grow_patch"]
        out["nmm.placement_useful_ratio"] = (
            self.counts["nmm.sources_placed"] / grow if grow else 0.0)
        builds = calls["sloreta.minimum_norm_kernel"]
        out["sloreta.kernel_builds_per_leadfield"] = (
            builds / len(self._leadfields) if self._leadfields else 0.0)
        dispatch = sum(v for k, v in self_s.items() if k.startswith("cli.cmd_"))
        out["trace.span_coverage"] = (sum(self_s.values()) - dispatch) / timed_s
        return out

    def write_spans(self, fh):
        for sid, parent, name, start, end in self.spans:
            fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")
