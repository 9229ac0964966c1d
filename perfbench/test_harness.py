"""Tests of the benchmark harness's own arithmetic and tracing.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def make_spans(records) -> spans.Spans:
    """Spans from (name, parent, start, end, size, error) tuples."""
    names: list[str] = []
    cols = [array(c) for c in ("i", "i", "d", "d", "q", "b")]
    for name, *rest in records:
        if name not in names:
            names.append(name)
        for col, value in zip(cols, [names.index(name), *rest]):
            col.append(value)
    return spans.Spans(names, *cols)


def test_self_time_from_nested_spans():
    # cli.main [0, 10]
    #   lcf.decomposition_matrix [1, 9], 4 nonzero entries
    #     hecke.kl_basis_element [2, 5], 10 terms
    #       coxeter.multiply [3, 4]
    #     hecke.kl_basis_element [6, 7], 6 terms, raised
    s = make_spans([
        ("cli.main", -1, 0.0, 10.0, 0, 0),
        ("lcf.decomposition_matrix", 0, 1.0, 9.0, 4, 0),
        ("hecke.kl_basis_element", 1, 2.0, 5.0, 10, 0),
        ("coxeter.multiply", 2, 3.0, 4.0, 0, 0),
        ("hecke.kl_basis_element", 1, 6.0, 7.0, 6, 1),
    ])
    m = spans.layer_metrics(s)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["lcf.self_s"] == pytest.approx(4.0)
    assert m["hecke.self_s"] == pytest.approx(3.0)
    assert m["coxeter.self_s"] == pytest.approx(1.0)
    assert (m["cli.calls"], m["lcf.calls"], m["hecke.calls"],
            m["coxeter.calls"]) == (1, 1, 2, 1)
    assert m["hecke.errors"] == 1 and m["lcf.errors"] == 0
    assert m["coxeter.multiply_calls"] == 1
    assert m["hecke.kl_terms"] == 16
    assert m["lcf.kept_ratio"] == pytest.approx(4 / 16)
    assert m["charring.calls"] == 0 and m["lattice.self_s"] == 0.0


def test_self_times_add_up_to_top_level_spans():
    s = make_spans([
        ("hecke.kl_basis_element", -1, 0.0, 4.0, 3, 0),
        ("coxeter.length", 0, 0.5, 1.5, 0, 0),
        ("coxeter.length", 0, 2.0, 2.25, 0, 0),
        ("lattice.build_root_datum", -1, 5.0, 5.5, 0, 0),
    ])
    m = spans.layer_metrics(s)
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(4.5)
    assert m["coxeter.length_calls"] == 2
    assert m["lcf.kept_ratio"] == 0.0  # nothing fetched under lcf


def test_quartiles_match_statistics_quantiles():
    q1, med, q3 = stats.quartiles(range(1, 11))
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert stats.spread(range(1, 11)) == pytest.approx(1.0)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_verdict_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 0.8 for v in parent]
    assert stats.verdict(parent, faster, "lower") == ("better", 10, 0)
    assert stats.verdict(faster, parent, "lower") == ("worse", 0, 10)
    # two lost pairs: 8 of 10 is not enough
    mixed = faster[:8] + [11.0, 11.0]
    assert stats.verdict(parent, mixed, "lower")[0] == "unresolved"
    # every pair won, but by less than the parent's interquartile spread
    nudged = [v - 0.01 for v in parent]
    assert stats.verdict(parent, nudged, "lower") == ("unresolved", 10, 0)
    # for a metric where higher is better the roles swap
    assert stats.verdict(parent, faster, "higher") == ("worse", 0, 10)
    # ties count for neither side
    assert stats.verdict(parent, list(parent), "lower") == ("unresolved", 0, 0)


def test_recorder_spans_boundary_calls_and_restores_them():
    import weylkit.charring as charring
    from weylkit.coxeter import generators, multiply
    from weylkit.lattice import Weight, build_root_datum

    caller = types.ModuleType("bench_caller")
    caller.generators = generators
    caller.multiply = multiply
    add = charring.Character.__add__
    rec = spans.Recorder()
    rec.install([caller])
    try:
        gens = caller.generators(build_root_datum("A1"))
        caller.multiply(gens[0], gens[1])
        one = charring.trivial_character(1)
        one + one  # an operator called from outside charring
        charring.tensor(one, one)  # charring internals are not spans
    finally:
        rec.uninstall()
    assert caller.multiply is multiply
    assert charring.Character.__add__ is add
    names = [rec.names[i] for i in rec.name]
    assert names == ["coxeter.generators", "coxeter.multiply",
                     "charring.Character.__add__"]
    assert list(rec.parent) == [-1, -1, -1]
    assert list(rec.size) == [2, 0, 1]
    assert all(e >= s for s, e in zip(rec.start, rec.end))
    assert Weight((0,)) in dict(one.terms)


def test_span_file_round_trip(tmp_path):
    rec = spans.Recorder()
    traced = rec._spanned(lambda n: list(range(n)), "coxeter.dominant_orbit")
    traced(3)
    with pytest.raises(ValueError):
        rec._spanned(int, "lattice.parse")("x")
    rec.write(tmp_path / "t.spans")
    back = spans.read_spans(tmp_path / "t.spans")
    assert back.names == ["coxeter.dominant_orbit", "lattice.parse"]
    assert list(back.size) == [3, 0] and list(back.error) == [0, 1]
    m = spans.layer_metrics(back)
    assert m["coxeter.orbit_rows"] == 3 and m["lattice.errors"] == 1


def test_metric_names_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
