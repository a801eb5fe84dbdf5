"""Timing wrappers installed from outside the package, and the per-layer
metrics computed from the spans they record.

Each wrapper replaces a public function where the calling module binds it
(for example ``experiments.evolve`` or ``objects.nonpairing_batch``), plus
the scipy/numpy FFT entry points, records a span (name, parent, start,
end, details) in memory, and passes arguments and results through
unchanged.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy.fft
import scipy.fft

from torus_phi4 import counting, experiments, flows, gibbs, noise, objects, spectral

NAME, PARENT, START, END, INFO, FAILED = range(6)
FFT = "spectral.fft"
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
NONPAIRING_CUTOFFS = (8, 16, 32, 64)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _evolve_info(args, kwargs, out):
    return {"gamma": _arg(args, kwargs, 2, "cfg").gamma,
            "steps": _arg(args, kwargs, 1, "path").n_steps}


def _pcn_info(args, kwargs, out):
    return {"chain_steps": _arg(args, kwargs, 2, "n_chains") * out.n_steps,
            "acceptance": out.acceptance_rate}


def _fft_info(args, kwargs, out):
    return {"points": int(_arg(args, kwargs, 0, "x").size)}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, describe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if describe is not None:
                rec[INFO] = describe(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, name, describe=None):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr,
                    classmethod(self._wrap(name, original.__func__, describe)))
        else:
            setattr(owner, attr, self._wrap(name, original, describe))

    def install(self) -> None:
        patch = self._patch
        patch(spectral.ModeLattice, "__init__", "spectral.ModeLattice")
        for mod in (experiments, flows, gibbs):
            patch(mod, "mode_variance_sum", "gibbs.mode_variance_sum")
        patch(experiments, "sample_gibbs_pcn_chains",
              "gibbs.sample_gibbs_pcn_chains", _pcn_info)
        patch(noise.NoisePath, "generate", "noise.NoisePath.generate")
        patch(experiments, "evolve", "flows.evolve", _evolve_info)
        patch(flows, "wick_cubic", "nonlinearity.wick_cubic")
        for mod in (objects, flows):
            patch(mod, "nonpairing_batch", "nonlinearity.nonpairing_batch",
                  lambda a, k, o: {"N": _arg(a, k, 0, "lat").n_cut})
        patch(experiments, "regularity_scan", "objects.regularity_scan")
        patch(counting, "build_tensor", "counting.build_tensor",
              lambda a, k, o: {"nnz": o.nnz})
        for fn in ("tensor_norms", "fiber_norm_sup", "matricization_norm"):
            patch(counting, fn, f"counting.{fn}")
        for fn in ("fft2", "ifft2"):
            patch(spectral, fn, FFT, _fft_info)
        for mod in (scipy.fft, numpy.fft):
            for fn in FFT_FUNCS:
                patch(mod, fn, FFT, _fft_info)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, name, fn):
        """Run fn() as the top span of a traced round."""
        return self._wrap(name, fn)()


def round_metrics(spans: list, first: int, top: str) -> dict:
    """Per-layer metrics of one traced round: the spans it recorded, which
    start at index `first` of the tracer's list.

    Times are inclusive span durations unless named self_s, which
    subtracts the time of the wrapped calls a span makes.  An FFT span
    nested in another FFT span is not counted twice.
    """
    dur = [s[END] - s[START] for s in spans]
    parent = [s[PARENT] - first if s[PARENT] >= first else -1 for s in spans]
    child = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    def parent_is(i, name):
        return parent[i] >= 0 and spans[parent[i]][NAME] == name

    by = defaultdict(list)
    for i, s in enumerate(spans):
        if not (s[NAME] == FFT and parent_is(i, FFT)):
            by[s[NAME]].append(i)

    def total(name):
        return sum(dur[i] for i in by[name])

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    def info(i, key):
        return spans[i][INFO][key]

    m = {}
    m["spectral.ModeLattice.constructions"] = len(by["spectral.ModeLattice"])
    m["gibbs.mode_variance_sum.calls"] = len(by["gibbs.mode_variance_sum"])
    m["spectral.fft.calls"] = len(by[FFT])
    m["spectral.fft.mpoints"] = sum(info(i, "points") for i in by[FFT]) / 1e6
    m["spectral.fft.s"] = total(FFT)

    pcn = by["gibbs.sample_gibbs_pcn_chains"]
    chain_steps = sum(info(i, "chain_steps") for i in pcn)
    m["gibbs.sample_gibbs_pcn_chains.s"] = total("gibbs.sample_gibbs_pcn_chains")
    m["gibbs.pcn.chain_steps_per_s"] = rate(chain_steps, m["gibbs.sample_gibbs_pcn_chains.s"])
    m["gibbs.pcn.acceptance"] = rate(
        sum(info(i, "acceptance") * info(i, "chain_steps") for i in pcn), chain_steps)

    m["noise.NoisePath.generate.s"] = total("noise.NoisePath.generate")
    m["noise.NoisePath.generate.calls"] = len(by["noise.NoisePath.generate"])

    ev = [i for i in by["flows.evolve"] if not spans[i][FAILED]]
    m["flows.evolve.s"] = total("flows.evolve")
    m["flows.evolve.calls"] = len(by["flows.evolve"])
    for label, keep in (("", lambda g: True), ("gamma0.", lambda g: g == 0.0),
                        ("damped.", lambda g: g > 0.0)):
        sel = [i for i in ev if keep(info(i, "gamma"))]
        m[f"flows.evolve.{label}steps_per_s"] = rate(
            sum(info(i, "steps") for i in sel), sum(dur[i] for i in sel))
    m["flows.evolve.failed"] = len(by["flows.evolve"]) - len(ev)

    wc = by["nonlinearity.wick_cubic"]
    m["nonlinearity.wick_cubic.calls"] = len(wc)
    m["nonlinearity.wick_cubic.us_per_call"] = rate(1e6 * total("nonlinearity.wick_cubic"), len(wc))

    npb = by["nonlinearity.nonpairing_batch"]
    m["nonlinearity.nonpairing_batch.calls"] = len(npb)
    m["nonlinearity.nonpairing_batch.s"] = total("nonlinearity.nonpairing_batch")
    for n_cut in NONPAIRING_CUTOFFS:
        sel = [i for i in npb if info(i, "N") == n_cut]
        m[f"nonlinearity.nonpairing_batch.us_per_call.N{n_cut}"] = rate(
            1e6 * sum(dur[i] for i in sel), len(sel))

    scan = by["objects.regularity_scan"]
    m["objects.regularity_scan.s"] = total("objects.regularity_scan")
    m["objects.self_s"] = sum(dur[i] - child[i] for i in scan)

    m["counting.build_tensor.s"] = total("counting.build_tensor")
    m["counting.build_tensor.nnz"] = sum(info(i, "nnz") for i in by["counting.build_tensor"])
    m["counting.tensor_norms.s"] = total("counting.tensor_norms")
    m["counting.fiber_norm_sup.s"] = total("counting.fiber_norm_sup")
    m["counting.fibers"] = sum(1 for i in by["counting.tensor_norms"]
                               if parent_is(i, "counting.fiber_norm_sup"))
    m["counting.matricization_norm.calls"] = len(by["counting.matricization_norm"])
    m["counting.matricization_norm.s"] = total("counting.matricization_norm")

    m["experiments.self_s"] = sum(dur[i] - child[i] for i in by[top])
    return m


COUNTS = ("spectral.ModeLattice.constructions", "gibbs.mode_variance_sum.calls",
          "spectral.fft.calls", "spectral.fft.mpoints",
          "noise.NoisePath.generate.calls", "flows.evolve.calls",
          "flows.evolve.failed", "nonlinearity.wick_cubic.calls",
          "nonlinearity.nonpairing_batch.calls", "counting.build_tensor.nnz",
          "counting.fibers", "counting.matricization_norm.calls")


def combine(rounds: list) -> dict:
    """Median over traced rounds; counts are the same in every round."""
    return {k: (rounds[0][k] if k in COUNTS
                else statistics.median(r[k] for r in rounds))
            for k in rounds[0]}


UNITS = {
    "spectral.ModeLattice.constructions": "count",
    "gibbs.mode_variance_sum.calls": "count",
    "spectral.fft.calls": "count",
    "spectral.fft.mpoints": "Mpoints",
    "spectral.fft.s": "s",
    "gibbs.sample_gibbs_pcn_chains.s": "s",
    "gibbs.pcn.chain_steps_per_s": "steps/s",
    "gibbs.pcn.acceptance": "ratio",
    "noise.NoisePath.generate.s": "s",
    "noise.NoisePath.generate.calls": "count",
    "flows.evolve.s": "s",
    "flows.evolve.calls": "count",
    "flows.evolve.steps_per_s": "steps/s",
    "flows.evolve.gamma0.steps_per_s": "steps/s",
    "flows.evolve.damped.steps_per_s": "steps/s",
    "flows.evolve.failed": "count",
    "nonlinearity.wick_cubic.calls": "count",
    "nonlinearity.wick_cubic.us_per_call": "us",
    "nonlinearity.nonpairing_batch.calls": "count",
    "nonlinearity.nonpairing_batch.s": "s",
    **{f"nonlinearity.nonpairing_batch.us_per_call.N{n}": "us"
       for n in NONPAIRING_CUTOFFS},
    "objects.regularity_scan.s": "s",
    "objects.self_s": "s",
    "counting.build_tensor.s": "s",
    "counting.build_tensor.nnz": "count",
    "counting.tensor_norms.s": "s",
    "counting.fiber_norm_sup.s": "s",
    "counting.fibers": "count",
    "counting.matricization_norm.calls": "count",
    "counting.matricization_norm.s": "s",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}
