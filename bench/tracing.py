"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of ``formleb.cli``, ``forms``,
``lebesgue``, ``linalg`` and ``measures``, the ``NonNegativeForm``
constructor check, and ``numpy.linalg.{eigh, eigvalsh, svd}``. The modules
import names from each other (``from .linalg import is_psd``), so every
module's binding of a wrapped function is replaced, not only the defining
one. ``uninstall`` restores the originals, so untraced passes run the
unmodified package.

Spans live in flat arrays with a parent index; self time is a span's
duration minus that of its direct children. Only calls made inside a
benchmark operation (``begin_op`` .. ``end_op``) are recorded. The tracer's
own counting (hashing ``is_psd`` arguments, say) runs in ``bench.count``
spans of its own, so it is charged to no layer and is taken out of the
operation time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "forms", "lebesgue", "linalg", "measures")
FACTORIZATIONS = ("eigh", "eigvalsh", "svd")
OP = "bench.op"
COUNT = "bench.count"


def _factor_n3(shape) -> int:
    """Computed cost unit of one factorization: n^3 for n x n, m n min(m, n) else."""
    m, n = shape[-2], shape[-1]
    return m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._in_op = False
        self._patches: list[tuple[object, str, object]] = []
        # counters recorded at the same boundaries as the spans
        self.factor_n3 = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.psd_calls = 0
        self.psd_distinct = 0
        self._psd_seen: set[bytes] = set()

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self._in_op = True
        self._psd_seen = set()
        self._op_span = self._open(self._id(OP))

    def end_op(self) -> None:
        self._close(self._op_span)
        self.psd_distinct += len(self._psd_seen)
        self._in_op = False

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)
        cid = self._id(COUNT)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._in_op:
                return fn(*args, **kwargs)
            if before is not None:
                c = self._open(cid)
                before(args)
                self._close(c)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                c = self._open(cid)
                after(result)
                self._close(c)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _count_factor(self, args) -> None:
        self.factor_n3 += _factor_n3(np.shape(args[0]))

    def _count_psd(self, args) -> None:
        self.psd_calls += 1
        a = np.ascontiguousarray(args[0])
        self._psd_seen.add(hashlib.blake2b(a.tobytes(), digest_size=16).digest() + str(a.shape).encode())

    def _count_in(self, args) -> None:
        self.bytes_in += len(args[0])

    def _count_out(self, result) -> None:
        self.bytes_out += len(result)

    # -- patching ------------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every traced function wherever the package binds it."""
        import numpy.linalg as nla

        modules = {layer: getattr(pkg, layer) for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                before = after = None
                if (layer, attr) == ("linalg", "is_psd"):
                    before = self._count_psd
                elif (layer, attr) == ("cli", "parse_input"):
                    before = self._count_in
                elif (layer, attr) == ("cli", "emit_output"):
                    after = self._count_out
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn, before, after)
        for fname in FACTORIZATIONS:
            fn = getattr(nla, fname)
            self._patch(nla, fname, self._wrap(f"numpy.linalg.{fname}", fn, self._count_factor))

        for mod in (pkg, pkg.selftest, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])

        nonneg = pkg.forms.NonNegativeForm
        self._patch(nonneg, "__post_init__", self._wrap("forms.nonneg_init", nonneg.__post_init__))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total duration s, total self s).

        A span's self time is its duration minus that of its direct children.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=self_t, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(excl[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span (name, parent, start, end) out as one .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_metrics(tr: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics: name -> (value, unit)."""
    tot = tr.totals()
    ops, op_time, _ = tot.get(OP, (0, 0.0, 0.0))
    ops = max(ops, 1)
    op_time -= tot.get(COUNT, (0, 0.0, 0.0))[1]  # the tracer's counting is not the program's

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def per_op_calls(name):
        return (calls(name) / ops, "1/op")

    def per_op_ms(seconds):
        return (1000.0 * seconds / ops, "ms/op")

    checks = sum(self_s(n) for n in tot if n.startswith("lebesgue.is_"))
    factor_counts = {f: calls(f"numpy.linalg.{f}") for f in FACTORIZATIONS}
    lapack = sum(incl(f"numpy.linalg.{f}") for f in FACTORIZATIONS)
    atomwise = incl("measures.lebesgue_decompose_measure")
    m = {
        "cli.parse_input.self_ms": per_op_ms(self_s("cli.parse_input")),
        "cli.emit_output.self_ms": per_op_ms(self_s("cli.emit_output")),
        "cli.run_command.self_ms": per_op_ms(self_s("cli.run_command")),
        "cli.bytes_in": (tr.bytes_in / ops, "B/op"),
        "cli.bytes_out": (tr.bytes_out / ops, "B/op"),
        "forms.nonneg_init.calls": per_op_calls("forms.nonneg_init"),
        "forms.is_dominating.calls": per_op_calls("forms.is_dominating"),
        "forms.is_dominating.self_ms": per_op_ms(self_s("forms.is_dominating")),
        "forms.construct_dominating.self_ms": per_op_ms(self_s("forms.construct_dominating")),
        "forms.classify_range.self_ms": per_op_ms(self_s("forms.classify_range")),
        "forms.is_bounded_by.self_ms": per_op_ms(self_s("forms.is_bounded_by")),
        "lebesgue.build_context.calls": per_op_calls("lebesgue.build_context"),
        "lebesgue.build_context.self_ms": per_op_ms(self_s("lebesgue.build_context")),
        "lebesgue.decompose.self_ms": per_op_ms(self_s("lebesgue.decompose")),
        "lebesgue.decompose_nonneg.self_ms": per_op_ms(self_s("lebesgue.decompose_nonneg")),
        "lebesgue.checks.self_ms": per_op_ms(checks),
        "linalg.is_psd.calls": per_op_calls("linalg.is_psd"),
        "linalg.is_psd.self_ms": per_op_ms(self_s("linalg.is_psd")),
        "linalg.kernel_basis.calls": per_op_calls("linalg.kernel_basis"),
        "linalg.pinv_sqrt.calls": per_op_calls("linalg.pinv_sqrt"),
        "linalg.psd_rank.calls": per_op_calls("linalg.psd_rank"),
        "linalg.operator_norm.calls": per_op_calls("linalg.operator_norm"),
        **{f"linalg.{f}": (c / ops, "1/op") for f, c in factor_counts.items()},
        "linalg.factorizations": (sum(factor_counts.values()) / ops, "1/op"),
        "linalg.factor_n3": (tr.factor_n3 / ops, "1/op"),
        "linalg.lapack_ms": per_op_ms(lapack),
        "linalg.lapack_share": (lapack / op_time if op_time else 0.0, "1"),
        "linalg.psd_checks_per_matrix": (
            tr.psd_calls / tr.psd_distinct if tr.psd_distinct else 0.0,
            "1",
        ),
        "measures.decompose_via_forms.self_ms": per_op_ms(self_s("measures.decompose_via_forms")),
        "measures.lebesgue_decompose_measure.self_ms": per_op_ms(
            self_s("measures.lebesgue_decompose_measure")
        ),
        "measures.form_path_ratio": (
            incl("measures.decompose_via_forms") / atomwise if atomwise else 0.0,
            "1",
        ),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }
    return m
