"""The benchmark's workloads: seeded inputs, timed operations, checks.

Each workload is a closed loop with one caller: the next operation is
issued when the previous one has returned.  A workload is four
functions:

* ``setup(bounds)`` builds what the program needs before the first
  operation (root data and generators) and returns it;
* ``requests(seed, refs, bounds)`` makes the operations from the seed;
* ``op(ctx, request)`` performs one operation and returns its raw
  output (the worker times these calls);
* ``check(requests, outputs, refs)`` returns, per request, a failure
  description or ``None`` (an output of ``None`` marks an operation
  that raised).  Checks run outside the timed region.

The weylkit names are bound here at module level on purpose: the
tracer wraps calls through this namespace as boundary spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from weylkit.lattice import Weight, build_root_datum
from weylkit.coxeter import generators, identity_element, length, multiply
from weylkit.coxeter import reduced_word
from weylkit.hecke import kl_basis_element
from weylkit.charring import weyl_character
from weylkit.lcf import sl2_lcf_valid
from weylkit.cli import main as cli_main

# kl_table: every b_x with l(x) <= bound, per type.
KL_BOUNDS = {"A2": 10, "B2": 10, "G2": 11}
# lcf_window: the --max-len of one `weylkit lcf` call per type.
LCF_BOUNDS = {"A2": 10, "B2": 11, "G2": 12}
LCF_PRIMES = (5, 7, 11, 13)
COXETER_NUMBERS = {"A2": 3, "B2": 4, "G2": 6}
# char_sweep: rank-one validity at p = 11 over the orbit up to p^3,
# one weight per block of SL2_BLOCK consecutive orbit weights, plus one
# G2 Weyl character per block of G2_BLOCK weights (a, h - a) with
# consecutive a, for each height h = a + b in the band.  Neighbouring
# weights cost about the same, so the seed moves the total work little.
SL2_P = 11
SL2_MAX = 11 ** 3
SL2_BLOCK = 12
G2_BAND = (15, 17)
G2_BLOCK = 6


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def word_key(word) -> str:
    return ".".join(str(i) for i in word)


def parse_word_key(key: str) -> tuple[int, ...]:
    return tuple(int(i) for i in key.split(".")) if key else ()


# --------------------------------------------------------------- kl_table

def kl_setup(bounds=KL_BOUNDS):
    ctx = {}
    for series in bounds:
        datum = build_root_datum(series)
        ctx[series] = (generators(datum), identity_element(datum))
    return ctx


def kl_requests(seed, refs, bounds=KL_BOUNDS):
    reqs = [(series, word)
            for series, bound in bounds.items()
            for word in map(parse_word_key, refs[series])
            if len(word) <= bound]
    random.Random(seed).shuffle(reqs)
    return reqs


def kl_op(ctx, req):
    series, word = req
    gens, x = ctx[series]
    for i in word:
        x = multiply(x, gens[i])
    return x, kl_basis_element(x)


def kl_terms_json(b):
    """The terms of b_x as [[word y, [[exponent, coefficient], ...]], ...]."""
    return [[reduced_word(y), [list(t) for t in poly.coeffs]]
            for y, poly in b.terms]


def kl_oracle(x, b) -> str | None:
    """P_{x,x} = 1; every other P_{y,x} has positive coefficients on
    exponents in [1, l(x) - l(y)] with the parity of l(x) - l(y)."""
    lx = length(x)
    diagonal = [poly for y, poly in b.terms if y == x]
    if len(diagonal) != 1 or diagonal[0].coeffs != ((0, 1),):
        return "P_{x,x} is not 1"
    for y, poly in b.terms:
        if y == x:
            continue
        gap = lx - length(y)
        for e, c in poly.coeffs:
            if c <= 0 or not 1 <= e <= gap or (gap - e) % 2:
                return f"P_{{y,x}} term {c}*v^{e} breaks the bounds (gap {gap})"
    return None


def kl_check(requests, outputs, refs):
    fails = []
    for (series, word), out in zip(requests, outputs):
        if out is None:
            fails.append("raised")
            continue
        x, b = out
        if digest(kl_terms_json(b)) != refs[series][word_key(word)]:
            fails.append(f"{series} b_{word_key(word)} differs from the reference")
            continue
        fails.append(kl_oracle(x, b))
    return fails


# ------------------------------------------------------------- lcf_window

def lcf_setup(bounds=LCF_BOUNDS):
    return None


def lcf_requests(seed, refs, bounds=LCF_BOUNDS):
    rng = random.Random(seed)
    reqs = []
    for series, max_len in bounds.items():
        primes = [p for p in LCF_PRIMES if p >= COXETER_NUMBERS[series]]
        reqs.append((series, rng.choice(primes), max_len))
    return reqs


def lcf_op(ctx, req):
    series, p, max_len = req
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["lcf", series, "--p", str(p), "--max-len",
                         str(max_len), "--format", "json"])
    return code, buf.getvalue()


def lcf_entries_by_word(doc):
    """Nonzero entries as [row word, column word, entry], sorted: the
    reduced words label the orbit independently of p, while the row
    order (by weight) depends on p."""
    words = doc["words"]
    return sorted([words[i], words[j], e]
                  for i, row in enumerate(doc["entries"])
                  for j, e in enumerate(row) if e)


def unitriangular(entries) -> bool:
    return all(row[i] == 1 and not any(row[i + 1:])
               for i, row in enumerate(entries))


def lcf_check(requests, outputs, refs):
    fails = []
    for (series, p, max_len), out in zip(requests, outputs):
        if out is None:
            fails.append("raised")
            continue
        code, text = out
        if code != 0:
            fails.append(f"exit code {code}")
            continue
        doc = json.loads(text)
        if digest(lcf_entries_by_word(doc)) != refs[f"{series}:{max_len}"]:
            fails.append(f"{series} p={p} entries differ from the reference")
        elif not unitriangular(doc["entries"]):
            fails.append(f"{series} p={p} matrix is not unitriangular")
        else:
            fails.append(None)
    return fails


# ------------------------------------------------------------- char_sweep

def sl2_orbit():
    """Dominant orbit of zero under the p-dilated dot action for SL2."""
    return [n for n in range(SL2_MAX + 1)
            if n % (2 * SL2_P) in (0, 2 * SL2_P - 2)]


def g2_blocks():
    lo, hi = G2_BAND
    return [[(a, h - a) for a in range(start, min(start + G2_BLOCK, h + 1))]
            for h in range(lo, hi + 1) for start in range(0, h + 1, G2_BLOCK)]


def char_setup(bounds=None):
    ctx = {}
    for series in ("A1", "G2"):
        datum = build_root_datum(series)
        generators(datum)
        ctx[series] = datum
    return ctx


def char_requests(seed, refs, bounds=None):
    rng = random.Random(seed)
    orbit = sl2_orbit()
    reqs = [("sl2", rng.choice(orbit[i:i + SL2_BLOCK]))
            for i in range(0, len(orbit), SL2_BLOCK)]
    reqs += [("g2", rng.choice(block)) for block in g2_blocks()]
    rng.shuffle(reqs)
    return reqs


def char_op(ctx, req):
    kind, arg = req
    if kind == "sl2":
        return sl2_lcf_valid(arg, SL2_P)
    return weyl_character(ctx["G2"], Weight(arg))


def weyl_dimension(datum, lam) -> int:
    """Weyl dimension formula: product over positive coroots a of
    <lam + rho, a> / <rho, a>."""
    num = den = 1
    for _, coroot in datum.positive_roots:  # rho = (1, ..., 1)
        num *= sum((l + 1) * c for l, c in zip(lam, coroot.coords))
        den *= sum(coroot.coords)
    return num // den


def char_check(requests, outputs, refs):
    valid = set(refs["valid"])
    g2 = build_root_datum("G2")
    fails = []
    for (kind, arg), out in zip(requests, outputs):
        if out is None:
            fails.append("raised")
        elif kind == "sl2":
            if out != (arg in valid):
                fails.append(f"validity at n={arg} differs from the reference")
            elif arg < SL2_P ** 2 and not out:
                fails.append(f"n={arg} has two base-p digits but is invalid")
            else:
                fails.append(None)
        else:
            terms = dict((w.coords, c) for w, c in out.terms)
            if sum(terms.values()) != weyl_dimension(g2, arg):
                fails.append(f"G2 {arg}: dimension is not the Weyl dimension")
            elif terms.get(tuple(arg)) != 1:
                fails.append(f"G2 {arg}: highest weight multiplicity is not 1")
            else:
                fails.append(None)
    return fails


SPECS = {
    "kl_table": (kl_setup, kl_requests, kl_op, kl_check, KL_BOUNDS),
    "lcf_window": (lcf_setup, lcf_requests, lcf_op, lcf_check, LCF_BOUNDS),
    "char_sweep": (char_setup, char_requests, char_op, char_check, None),
}
