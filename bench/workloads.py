"""Workload definitions: input generators, operations and output checks.

Every workload is a list of ``Instance`` values generated from a seed before
any timing starts. An operation sees only the generated arrays or bytes.
Each instance carries what its generator knows about the right answer, and
``check`` compares an operation's result against it after the clock stops.

One *pass* is the whole instance list; the harness always runs whole passes,
so the share of failing operations depends only on the seed, never on how
many operations fitted into the run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Bound into this module by ``bind`` once the harness has imported the
# package from the checkout; operations look names up through these module
# objects at call time, so the tracer's patched bindings are the ones called.
fl = None
cli = None

SUM_REL = 1e-9  # parts must reproduce their input to this relative accuracy


def bind(formleb_pkg, cli_mod) -> None:
    global fl, cli
    fl, cli = formleb_pkg, cli_mod


@dataclass
class Instance:
    kind: str
    size: int
    data: dict
    expect: dict = field(default_factory=dict)
    scale: float = 1.0  # factor every generated matrix was multiplied by


# ---------------------------------------------------------------------------
# random matrices


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def psd_factor(rng, n, rank):
    """n x rank factor B with B B* of unit order."""
    return crandn(rng, n, rank) / np.sqrt(2.0 * n)


def indefinite(rng, n):
    """Hermitian with eigenvalues of both signs (n >= 2), magnitudes in [0.2, 1]."""
    lam = rng.uniform(0.2, 1.0, n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    Q, _ = np.linalg.qr(crandn(rng, n, n))
    return (Q * lam) @ Q.conj().T


def contraction(rng, r, norm=0.9):
    X = crandn(rng, r, r)
    return X * (norm / np.linalg.norm(X, 2))


def gram(B):
    return B @ B.conj().T


def dominated_by(rng, B):
    """A form t = B X B* that sigma = B B* dominates (||X|| = 0.9 < 1)."""
    return B @ contraction(rng, B.shape[1]) @ B.conj().T


def scale_exponents(rng, count, lo, hi):
    """Stratified uniform exponents on [lo, hi]: one per equal-width stratum."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# library operations (small-dense, large-dense)

DENSE_KINDS = (
    "decompose",
    "decompose-constructed",
    "decompose-nonneg",
    "is-ac",
    "is-singular",
    "classify",
    "bounded",
)


def _dense_instance(rng, kind, n, k, scale):
    """Instance number k of a kind at n >= 2; k alternates the known answer."""
    want = k % 2 == 0
    if kind == "decompose":
        rs, rw = rng.integers(1, n + 1, size=2)
        B = psd_factor(rng, n, rs)
        data = {"t": dominated_by(rng, B), "sigma": gram(B), "omega": gram(psd_factor(rng, n, rw))}
        expect = {}
    elif kind == "decompose-constructed":
        rt, rw = rng.integers(1, n + 1, size=2)
        t = crandn(rng, n, rt) @ crandn(rng, rt, n) / (2.0 * n)
        data = {"t": t, "omega": gram(psd_factor(rng, n, rw))}
        expect = {}
    elif kind == "decompose-nonneg":
        rs, rw = rng.integers(1, n + 1, size=2)
        data = {"sigma": gram(psd_factor(rng, n, rs)), "omega": gram(psd_factor(rng, n, rw))}
        expect = {}
    elif kind == "is-ac":
        # ac iff range(sigma) lies in range(omega)
        rw = int(rng.integers(1, n + 1 if want else n))
        W = psd_factor(rng, n, rw)
        rs = int(rng.integers(1, n + 1))
        if want:
            S = W @ crandn(rng, rw, rs) / np.sqrt(2.0 * rw)
        else:
            S = psd_factor(rng, n, rs)
        data = {"sigma": gram(S), "omega": gram(W)}
        expect = {"result": want}
    elif kind == "is-singular":
        # singular iff the ranges meet only in 0: generic ranks decide it
        if want:
            rs = int(rng.integers(1, n))
            rw = int(rng.integers(1, n - rs + 1))
        else:
            rs = int(rng.integers(1, n + 1))
            rw = int(rng.integers(max(1, n - rs + 1), n + 1))
        data = {"sigma": gram(psd_factor(rng, n, rs)), "omega": gram(psd_factor(rng, n, rw))}
        expect = {"result": rs + rw <= n}
    elif kind == "classify":
        data, expect = _classify_instance(rng, n, k % 4)
    elif kind == "bounded":
        # bounded iff ker(omega) annihilates t and t*
        rw = int(rng.integers(1, n + 1 if want else n))
        W = psd_factor(rng, n, rw)
        if want:
            t = W @ crandn(rng, rw, rw) @ W.conj().T
        else:
            t = crandn(rng, n, n) / np.sqrt(2.0 * n)
        data = {"t": t, "omega": gram(W)}
        expect = {"result": want}
    else:
        raise ValueError(kind)
    data = {key: np.ascontiguousarray(v * scale) for key, v in data.items()}
    return Instance(kind, n, data, expect, scale)


def _classify_instance(rng, n, variant):
    """Quadratic-range classes known by construction.

    0: PSD form; 1: Hermitian indefinite; 2: PD real part, indefinite
    imaginary part; 3: PD real part, PSD imaginary part. For a PD real part
    A and imaginary part B the smallest sector constant is the spectral
    radius of A^(-1/2) B A^(-1/2).
    """
    if variant == 0:
        M = gram(psd_factor(rng, n, int(rng.integers(1, n + 1))))
        return {"t": M}, {"nonneg": True, "real": True, "halfplane": True, "quadrant": True, "c": 0.0}
    if variant == 1:
        return {"t": indefinite(rng, n)}, {"nonneg": False, "real": True, "halfplane": False, "quadrant": False, "c": None}
    A = gram(psd_factor(rng, n, n)) + 0.1 * np.eye(n)
    if variant == 2:
        B = indefinite(rng, n)
    else:
        B = gram(psd_factor(rng, n, int(rng.integers(1, n + 1))))
    lam, V = np.linalg.eigh(A)
    iroot = (V / np.sqrt(lam)) @ V.conj().T
    c = float(np.max(np.abs(np.linalg.eigvalsh(iroot @ B @ iroot))))
    quadrant = variant == 3
    return {"t": A + 1j * B}, {"nonneg": False, "real": False, "halfplane": True, "quadrant": quadrant, "c": c}


def dense_instances(rng, plan, scale_range):
    """One instance of every kind per size in ``plan``, kinds interleaved.

    The k-th instance of a kind gets variant k, so known answers alternate
    across sizes as well as across repeats. Scale exponents are stratified
    per kind, so every kind covers the scale range evenly in every pass.
    """
    per_kind = len(plan)
    exps = {
        kind: np.zeros(per_kind) if scale_range is None else scale_exponents(rng, per_kind, *scale_range)
        for kind in DENSE_KINDS
    }
    return [
        _dense_instance(rng, kind, n, k, 10.0 ** exps[kind][k])
        for k, n in enumerate(plan)
        for kind in DENSE_KINDS
    ]


def unit_scale(inst: Instance) -> Instance:
    """The same instance divided back to unit scale."""
    data = {key: v / inst.scale for key, v in inst.data.items()}
    return Instance(inst.kind, inst.size, data, inst.expect)


def run_dense(inst: Instance):
    d = inst.data
    kind = inst.kind
    if kind == "decompose":
        return fl.decompose(
            fl.SesquilinearForm(d["t"]), fl.NonNegativeForm(d["omega"]), fl.NonNegativeForm(d["sigma"])
        )
    if kind == "decompose-constructed":
        t = fl.SesquilinearForm(d["t"])
        sigma = fl.construct_dominating(t)
        return sigma, fl.decompose(t, fl.NonNegativeForm(d["omega"]), sigma)
    if kind == "decompose-nonneg":
        return fl.decompose_nonneg(fl.NonNegativeForm(d["sigma"]), fl.NonNegativeForm(d["omega"]))
    if kind == "is-ac":
        return fl.is_absolutely_continuous(fl.NonNegativeForm(d["sigma"]), fl.NonNegativeForm(d["omega"]))
    if kind == "is-singular":
        return fl.is_singular_nonneg(fl.NonNegativeForm(d["sigma"]), fl.NonNegativeForm(d["omega"]))
    if kind == "classify":
        return fl.classify_range(fl.SesquilinearForm(d["t"]))
    if kind == "bounded":
        return fl.is_bounded_by(fl.SesquilinearForm(d["t"]), fl.NonNegativeForm(d["omega"]))
    raise ValueError(kind)


def sums_to(parts, whole) -> bool:
    total = sum(np.asarray(p) for p in parts)
    ref = float(np.max(np.abs(whole)))
    return float(np.max(np.abs(total - whole))) <= SUM_REL * ref


def _triple_ok(triple, t, sigma) -> bool:
    w = triple.witnesses
    return sums_to(
        (triple.regular.matrix, triple.mixed.matrix, triple.strongly_singular.matrix), t
    ) and sums_to((w.absolutely_continuous.matrix, w.singular.matrix), sigma)


def sector_close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= 1e-6 * max(1.0, want)


def check_dense(inst: Instance, out) -> bool:
    d, e = inst.data, inst.expect
    kind = inst.kind
    if kind == "decompose":
        return _triple_ok(out, d["t"], d["sigma"])
    if kind == "decompose-constructed":
        sigma, triple = out
        return _triple_ok(triple, d["t"], sigma.matrix)
    if kind == "decompose-nonneg":
        return sums_to((out.absolutely_continuous.matrix, out.singular.matrix), d["sigma"])
    if kind in ("is-ac", "is-singular"):
        return out is e["result"]
    if kind == "classify":
        return (
            (out.nonneg, out.real, out.halfplane, out.quadrant)
            == (e["nonneg"], e["real"], e["halfplane"], e["quadrant"])
            and out.sector == (e["c"] is not None)
            and sector_close(out.sector_constant, e["c"])
        )
    if kind == "bounded":
        return out[0] is e["result"]
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# measure-atoms


def measure_instances(rng, sizes, counts, planted_every=20):
    """Atomic measures; ~30% of reference atoms exactly null.

    Exactly one instance in ``planted_every`` carries a reference atom at
    1e-12 x max(nu): the direct path keeps it in the support, the form path's
    relative cutoff drops it, and ``decompose_via_forms`` must raise
    INCONSISTENT_RANK. That is a known defect and is counted as a failure.
    """
    plan = [k for k, c in zip(sizes, counts) for _ in range(c)]
    planted = set(
        rng.choice(len(plan), size=max(1, len(plan) // planted_every), replace=False).tolist()
    )
    out = []
    for i, k in enumerate(plan):
        mu = crandn(rng, k) * rng.uniform(0.5, 2.0, k)
        nu = rng.uniform(0.1, 1.0, k)
        nu[rng.permutation(k)[: int(round(0.3 * k))]] = 0.0
        if i in planted:
            pos = np.flatnonzero(nu)
            nu[rng.choice(pos)] = 1e-12 * float(nu.max())
        labels = tuple(f"a{j}" for j in range(k))
        data = {"atoms": labels, "mu": mu, "nu": nu.astype(complex)}
        out.append(Instance("measure", k, data, {"planted": i in planted}))
    return out


def run_measure(inst: Instance):
    d = inst.data
    space = fl.AtomicMeasureSpace(d["atoms"])
    return fl.decompose_via_forms(fl.ComplexMeasure(space, d["mu"]), fl.ComplexMeasure(space, d["nu"]))


def measure_split_ok(mu, nu, ac, sing, support, atoms) -> bool:
    """ac + sing = mu, ac null off the reference support, sing null on it."""
    positive = nu.real > 0.0
    slack = SUM_REL * float(np.max(np.abs(mu)))
    return (
        sums_to((ac, sing), mu)
        and float(np.max(np.abs(ac[~positive]), initial=0.0)) <= slack
        and float(np.max(np.abs(sing[positive]), initial=0.0)) <= slack
        and tuple(support) == tuple(a for a, p in zip(atoms, positive) if p)
    )


def check_measure(inst: Instance, out) -> bool:
    d = inst.data
    return measure_split_ok(
        d["mu"], d["nu"], out.absolutely_continuous.values, out.singular.values, out.support, d["atoms"]
    )


# ---------------------------------------------------------------------------
# cli-docs

CHECK_KINDS = (
    "membership",
    "regular",
    "strongly-singular",
    "mixed",
    "ac",
    "singular-nonneg",
    "singular-sufficient",
    "omega-bounded",
)
DOC_KINDS = (
    "decompose",
    "decompose-constructed",
    "decompose-nonneg",
    "classify",
    "dominate",
    "measure",
) + tuple(f"check/{c}" for c in CHECK_KINDS)
INVALID_CODES = ("MALFORMED_JSON", "SCHEMA_VIOLATION", "NOT_PSD", "NOT_DOMINATING")


def encode(a) -> list:
    """Matrix or measure as nested [re, im] pairs, the CLI's wire format."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _unitary(rng, n):
    Q, R = np.linalg.qr(crandn(rng, n, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _mixed_case(rng, n, want):
    """t, omega, alpha, beta for check/mixed, in a random orthonormal frame.

    Blocks a and b of the frame carry alpha and beta; omega lives on a and
    the rest, so alpha is omega-a.c., beta omega-singular, and alpha, beta
    mutually singular. t couples a and b only (norm 0.9, dominated by
    alpha + beta); the failing variant adds an a-a block, which the
    compression to ker(beta) sees.
    """
    U = _unitary(rng, n)
    ra = max(1, n // 3)
    rb = max(1, n // 3)
    a, b = slice(0, ra), slice(ra, ra + rb)
    core = np.zeros((n, n), dtype=complex)
    core[a, b] = contraction(rng, max(ra, rb))[:ra, :rb]
    core[b, a] = contraction(rng, max(ra, rb))[:rb, :ra]
    if not want:
        core[a, a] = 0.05 * np.eye(ra)
    pa = np.zeros(n)
    pa[a] = 1.0
    pb = np.zeros(n)
    pb[b] = 1.0
    pw = pa.copy()
    pw[ra + rb :] = rng.uniform(0.5, 1.0, n - ra - rb)

    def frame(d):
        return (U * d) @ U.conj().T

    return {"t": U @ core @ U.conj().T, "omega": frame(pw), "alpha": frame(pa), "beta": frame(pb)}


def _doc_for(rng, kind, n, k):
    """(document object, subcommand, expectation) of one valid document, n >= 3."""
    want = k % 2 == 0
    if kind == "measure":
        m = max(2, min(32, n))
        mu = crandn(rng, m)
        nu = rng.uniform(0.1, 1.0, m)
        nu[rng.permutation(m)[: int(round(0.3 * m))]] = 0.0
        atoms = [f"x{j}" for j in range(m)]
        doc = {"kind": "measure", "atoms": atoms, "mu": encode(mu), "nu": encode(nu)}
        return doc, "measure", {"mu": mu, "nu": nu, "atoms": atoms}
    if kind in ("decompose", "decompose-constructed", "decompose-nonneg", "classify"):
        inst = _dense_instance(rng, kind, n, k, 1.0)
        doc = {key: encode(v) for key, v in inst.data.items()}
        cmd = "decompose" if kind == "decompose-constructed" else kind
        doc["kind"] = cmd
        return doc, cmd, {**inst.expect, **inst.data}
    if kind == "dominate":
        t = crandn(rng, n, n) / np.sqrt(2.0 * n)
        return {"kind": "dominate", "t": encode(t)}, "dominate", {"t": t}
    sub = kind.split("/", 1)[1]
    if sub == "membership":
        B = psd_factor(rng, n, int(rng.integers(1, n + 1)))
        sigma = gram(B) if want else 0.5 * gram(B)
        mats = {"t": dominated_by(rng, B), "sigma": sigma}
    elif sub in ("regular", "omega-bounded"):
        inst = _dense_instance(rng, "bounded", n, k, 1.0)
        mats, want = inst.data, inst.expect["result"]
    elif sub == "ac":
        inst = _dense_instance(rng, "is-ac", n, k, 1.0)
        mats, want = inst.data, inst.expect["result"]
    elif sub == "singular-nonneg":
        inst = _dense_instance(rng, "is-singular", n, k, 1.0)
        mats, want = inst.data, inst.expect["result"]
    elif sub == "strongly-singular":
        # cert = B B* dominates t = B X B*; cert is omega-singular iff the
        # ranges of B and of omega's factor meet only in 0
        rs = max(1, n // 3)
        rw = n - rs if want else n
        B = psd_factor(rng, n, rs)
        mats = {"t": dominated_by(rng, B), "sigma": gram(B), "omega": gram(psd_factor(rng, n, rw))}
    elif sub == "mixed":
        mats = _mixed_case(rng, n, want)
    elif sub == "singular-sufficient":
        # ker(t) contains range(omega) -> sufficient test succeeds;
        # an invertible t has trivial kernels -> it cannot
        W = psd_factor(rng, n, int(rng.integers(1, n)))
        if want:
            Qw, _ = np.linalg.qr(W)
            t = crandn(rng, n, n) @ (np.eye(n) - Qw @ Qw.conj().T)
        else:
            t = crandn(rng, n, n) + 2.0 * n * np.eye(n)
        mats = {"t": t, "omega": gram(W)}
    else:
        raise ValueError(sub)
    doc = {key: encode(v) for key, v in mats.items()}
    doc["kind"] = "check"
    doc["check"] = sub
    return doc, "check", {"result": want}


def _invalid_doc(rng, code, n):
    if code == "MALFORMED_JSON":
        doc, cmd, _ = _doc_for(rng, "decompose-nonneg", n, 0)
        raw = json.dumps(doc).encode()
        return raw[: len(raw) // 2], cmd
    if code == "SCHEMA_VIOLATION":
        doc, cmd, _ = _doc_for(rng, "classify", n, 0)
        doc["colour"] = "blue"
        return json.dumps(doc).encode(), cmd
    if code == "NOT_PSD":
        doc, cmd, _ = _doc_for(rng, "decompose-nonneg", n, 0)
        doc["omega"] = encode(-np.eye(n))
        return json.dumps(doc).encode(), cmd
    if code == "NOT_DOMINATING":
        B = psd_factor(rng, n, n)
        doc = {
            "kind": "decompose",
            "t": encode(dominated_by(rng, B)),
            "sigma": encode(0.5 * gram(B)),
            "omega": encode(gram(psd_factor(rng, n, n))),
        }
        return json.dumps(doc).encode(), "decompose"
    raise ValueError(code)


def cli_instances(rng, sizes, reps):
    """Every subcommand and check sub-kind at every size, plus one invalid
    document per error code in every rep (5.4% of the documents)."""
    out = []
    for r in range(reps):
        for j, n in enumerate(sizes):
            k = r * len(sizes) + j
            for kind in DOC_KINDS:
                doc, cmd, expect = _doc_for(rng, kind, n, k)
                raw = json.dumps(doc).encode()
                out.append(Instance(kind, n, {"raw": raw, "cmd": cmd}, {"status": "ok", **expect}))
        for i, code in enumerate(INVALID_CODES):
            n = sizes[(r + i) % len(sizes)]
            raw, cmd = _invalid_doc(rng, code, n)
            out.append(Instance(f"invalid/{code}", n, {"raw": raw, "cmd": cmd}, {"status": "error", "code": code}))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def run_doc(inst: Instance) -> bytes:
    """parse_input -> run_command -> emit_output, as the CLI does in process."""
    raw = inst.data["raw"]
    try:
        problem = cli.parse_input(raw)
        result = cli.run_command(inst.data["cmd"], problem)
    except cli.ParseError as exc:
        result = cli._error_output(hashlib.sha256(raw).hexdigest(), exc)
    return cli.emit_output(result)


def check_doc(inst: Instance, out: bytes) -> bool:
    e = inst.expect
    obj = json.loads(out)
    if obj["status"] != e["status"]:
        return False
    if e["status"] == "error":
        return obj["error"]["code"] == e["code"]
    r = obj["results"]
    kind = inst.kind
    if kind in ("decompose", "decompose-constructed"):
        sigma = e["sigma"] if "sigma" in e else decode(r["sigma"])
        parts = [decode(r[key]) for key in ("t_r", "t_m", "t_ss")]
        return sums_to(parts, e["t"]) and sums_to(
            (decode(r["sigma_a"]), decode(r["sigma_s"])), sigma
        )
    if kind == "decompose-nonneg":
        return sums_to((decode(r["sigma_a"]), decode(r["sigma_s"])), e["sigma"])
    if kind == "classify":
        return (
            (r["nonneg"], r["real"], r["halfplane"], r["quadrant"])
            == (e["nonneg"], e["real"], e["halfplane"], e["quadrant"])
            and r["sector"] == (e["c"] is not None)
            and sector_close(r["c"], e["c"])
        )
    if kind == "dominate":
        return obj["diagnostics"]["membership_verified"] is True
    if kind == "measure":
        return measure_split_ok(
            e["mu"], e["nu"], decode(r["mu_a"]), decode(r["mu_s"]), r["support"], e["atoms"]
        )
    return r["result"] is e["result"]


# ---------------------------------------------------------------------------
# registry

# Per pass: at least 100 latency samples, so that 10 lie beyond the 90th
# percentile, in passes short enough that each instance gets several tries
# in a run. Unequal counts keep the median inside the k = 64 class and the
# 90th percentile inside the k = 128 class, not on the edge between two.
SMALL_PLAN = tuple(range(2, 9)) * 20  # 980 instances
LARGE_PLAN = (64,) * 11 + (128,) * 2 + (160,) * 2  # 105 instances
MEASURE_SIZES = (16, 64, 128, 256)
MEASURE_COUNTS = (42, 40, 15, 3)


@dataclass(frozen=True)
class Workload:
    make: Callable[[Any, bool], list]  # (rng, tiny) -> instances of one pass
    run: Callable[[Instance], Any]
    check: Callable[[Instance, Any], bool]


# Why each workload exists: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    "small-dense": Workload(
        lambda rng, tiny: dense_instances(rng, tuple(range(2, 9)) * 2 if tiny else SMALL_PLAN, (-6.0, 6.0)),
        run_dense,
        check_dense,
    ),
    "large-dense": Workload(
        lambda rng, tiny: dense_instances(rng, (12, 16) if tiny else LARGE_PLAN, None),
        run_dense,
        check_dense,
    ),
    "cli-docs": Workload(
        lambda rng, tiny: cli_instances(rng, (3, 8) if tiny else (3, 8, 16, 32, 48), 1 if tiny else 3),
        run_doc,
        check_doc,
    ),
    "measure-atoms": Workload(
        lambda rng, tiny: measure_instances(
            rng, *(((4, 8), (6, 5)) if tiny else (MEASURE_SIZES, MEASURE_COUNTS))
        ),
        run_measure,
        check_measure,
    ),
}


def warmup_set(instances):
    """The smallest instance of every kind: fills lazy caches and first-call
    paths without running a whole pass."""
    seen = {}
    for inst in instances:
        if inst.kind not in seen or inst.size < seen[inst.kind].size:
            seen[inst.kind] = inst
    return list(seen.values())
