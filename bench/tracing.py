"""Span tracing of cuntzlim from outside the package.

The tracer wraps the public functions of each layer and records one span per
call: (name, start, end, parent, root).  `homs`, `limits`, `parser`, `gauge`
and `cli` bind `multiply`, `apply` and the others with `from ... import`, so a
wrapper is installed under every module-level name in the package that refers
to the original object, not only in the defining module.  Spans live in
compact arrays and are written out when the benchmark ends.

Self time of a span is its duration minus the part of its interval covered by
its child spans (see `self_times`).
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# GaussianRational arithmetic dunders, aliases included (`__radd__` is
# `__add__`, `__rmul__` is `__mul__`): every one counts as a scalar op.
SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__neg__", "__truediv__")

# (span name, module, attribute) for the module-level functions of each layer.
FUNCTIONS = (
    ("algebra.multiply", "algebra", "multiply"),
    ("algebra.add", "algebra", "add"),
    ("algebra.scale", "algebra", "scale"),
    ("algebra.adjoint", "algebra", "adjoint"),
    ("algebra.normalize", "algebra", "normalize"),
    ("algebra.equals", "algebra", "equals"),
    ("homs.apply", "homs", "apply"),
    ("homs.compose", "homs", "compose"),
    ("homs.make_hom", "homs", "make_hom"),
    ("homs.validate", "homs", "_validate"),
    ("homs.build", "homs", "f"),
    ("homs.build", "homs", "f_inf"),
    ("homs.build", "homs", "q"),
    ("limits.classify_monomial", "limits", "classify_monomial"),
    ("limits.decompose_element", "limits", "decompose_element"),
    ("limits.psi", "limits", "psi"),
    ("limits.check_coherent", "limits", "check_coherent"),
    ("limits.state_omega", "limits", "state_omega"),
    ("gauge.uhf_chain_check", "gauge", "uhf_chain_check"),
    ("parser.parse", "parser", "parse"),
    ("parser.render", "parser", "render"),
    ("cli.verify.decomposition", "cli", "verify_decomposition"),
    ("cli.verify.inverse_system", "cli", "verify_inverse_system"),
    ("cli.verify.state", "cli", "verify_state"),
)


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch the package."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.counts = Counter()
        self._patches = []
        self._stack = [-1]
        self._root = [-1]
        self.clear()

    def clear(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.root = array("i")
        self.counts.clear()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span recording ----------------------------------------------------
    def begin(self, name, is_root=False):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        if is_root:
            self._root.append(idx)
        self.root.append(self._root[-1])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def finish(self, idx, is_root=False):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        if is_root:
            self._root.pop()

    def wrap(self, name, fn, after=None):
        """Span-recording wrapper; `after(args, result)` updates counters."""
        nid = self._id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, roots, stack, root = self.parent, self.root, self._stack, self._root

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            roots.append(root[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count_only(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new, also):
        """Replace `original` under every module-level name in the package
        and in the modules `also`."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "cuntzlim" or name.startswith("cuntzlim."))]
        for mod in mods + list(also):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self, also=()):
        import cuntzlim
        from cuntzlim import algebra, scalars

        if self._patches:
            raise RuntimeError("tracer already installed")
        # The arrays are rebound by clear(); wrappers capture them, so clear
        # before wrapping.
        self.clear()
        counts = self.counts

        def multiply_after(args, out):
            counts["algebra.multiply.terms_out"] += len(out.terms)

        def normalize_after(args, out):
            if out.terms != args[0].terms:
                counts["algebra.normalize.changed"] += 1

        after = {"algebra.multiply": multiply_after,
                 "algebra.normalize": normalize_after}
        for span, modname, attr in FUNCTIONS:
            mod = getattr(cuntzlim, modname)
            original = getattr(mod, attr)
            self._patch_everywhere(original, self.wrap(span, original, after.get(span)), also)
        gr = scalars.GaussianRational
        for attr in SCALAR_DUNDERS:
            self._patch(gr, attr, self.wrap("scalars.op", vars(gr)[attr]))
        from cuntzlim.homs import GenHom

        self._patch(GenHom, "image", self.wrap("homs.image", GenHom.image))
        self._patch(algebra.AlgebraTag, "check_word",
                    self.count_only("algebra.check_word", algebra.AlgebraTag.check_word))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def spans(self):
        return zip(self.name, self.start, self.end, self.parent, self.root)

    def write(self, path):
        """Tab-separated spans: name, start_ns, end_ns, parent index, root index."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\troot\n")
            names = self.names
            for n, s, e, p, r in self.spans():
                fh.write("%s\t%d\t%d\t%d\t%d\n" % (names[n], s, e, p, r))


def self_times(start, end, parent):
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to its own.  Columns of equal length;
    parent is an index or -1."""
    n = len(start)
    out = array("q", (end[i] - start[i] for i in range(n)))
    cur_s, cur_e = array("q", [0]) * n, array("q", [-1]) * n
    # children in start order, so each parent's covered intervals merge left to right
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        s, e = max(start[i], start[p]), min(end[i], end[p])
        if e <= s:
            continue
        if cur_e[p] < 0 or s > cur_e[p]:
            if cur_e[p] >= 0:
                out[p] -= cur_e[p] - cur_s[p]
            cur_s[p], cur_e[p] = s, e
        else:
            cur_e[p] = max(cur_e[p], e)
    for p in range(n):
        if cur_e[p] >= 0:
            out[p] -= cur_e[p] - cur_s[p]
    return out


def summarize(tracer):
    """Per-name call counts, self time and inclusive time (ns) for the spans
    recorded so far."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls, self_ns, incl_ns = Counter(), Counter(), Counter()
    for nid, s, e, st in zip(tracer.name, tracer.start, tracer.end, selfs):
        name = tracer.names[nid]
        calls[name] += 1
        self_ns[name] += st
        incl_ns[name] += e - s
    return calls, self_ns, incl_ns
