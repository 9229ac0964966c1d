"""Regenerate the pinned references under perfbench/ref/.

    python3 perfbench/make_refs.py

Run this only on a commit whose outputs are trusted: the references
are what every later run is checked against.  It writes

* ``kl_table.json``: per type, the reduced word of every element up to
  the pinned length bound, each mapped to the digest of its b_x as
  ``[[word y, P_{y,x}], ...]`` (the request words are these keys);
* ``lcf_window.json``: per ``type:max_len``, the digest of the nonzero
  decomposition-matrix entries keyed by reduced word, after checking
  that every allowed prime gives the same digest;
* ``char_sweep.json``: the rank-one orbit weights up to p^3 at which
  the character formula is valid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402
from scaling import SCALING_LENGTHS  # noqa: E402
from weylkit.coxeter import _elements_up_to_length, reduced_word  # noqa: E402
from weylkit.hecke import kl_basis_element  # noqa: E402
from weylkit.lattice import build_root_datum  # noqa: E402
from weylkit.lcf import sl2_lcf_valid  # noqa: E402


def kl_refs():
    bounds = dict(w.KL_BOUNDS)
    bounds["A2"] = max(bounds["A2"], *SCALING_LENGTHS)
    out = {}
    for series, bound in bounds.items():
        table = {}
        for x in _elements_up_to_length(build_root_datum(series), bound):
            b = kl_basis_element(x)
            broken = w.kl_oracle(x, b)
            if broken:
                raise SystemExit(f"{series} {reduced_word(x)}: {broken}")
            table[w.word_key(reduced_word(x))] = w.digest(w.kl_terms_json(b))
        words = sorted(map(w.parse_word_key, table), key=lambda t: (len(t), t))
        keys = [w.word_key(t) for t in words]
        out[series] = {k: table[k] for k in keys}
        print(f"kl_table {series} <= {bound}: {len(table)} elements")
    return out


def lcf_refs():
    sizes = [("A2", n) for n in SCALING_LENGTHS] + list(w.LCF_BOUNDS.items())
    out = {}
    for series, max_len in sorted(set(sizes)):
        primes = [p for p in w.LCF_PRIMES if p >= w.COXETER_NUMBERS[series]]
        reqs = [(series, p, max_len) for p in primes]
        digests = set()
        for code, text in (w.lcf_op(None, req) for req in reqs):
            doc = json.loads(text)
            if code != 0 or not w.unitriangular(doc["entries"]):
                raise SystemExit(f"lcf {series} {max_len}: bad output")
            digests.add(w.digest(w.lcf_entries_by_word(doc)))
        if len(digests) != 1:
            raise SystemExit(f"lcf {series} {max_len}: entries depend on p")
        out[f"{series}:{max_len}"] = digests.pop()
        print(f"lcf_window {series} max_len {max_len}: p in {primes} agree")
    return out


def char_refs():
    valid = [n for n in w.sl2_orbit() if sl2_lcf_valid(n, w.SL2_P)]
    print(f"char_sweep: {len(valid)} of {len(w.sl2_orbit())} weights valid")
    return {"valid": valid}


def main() -> int:
    ref = HERE / "ref"
    ref.mkdir(exist_ok=True)
    for name, make in (("kl_table", kl_refs), ("lcf_window", lcf_refs),
                       ("char_sweep", char_refs)):
        with open(ref / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(make(), fh, indent=0)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
