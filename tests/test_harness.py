import hashlib
import json
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from corpora import (
    hasse_connected,
    random_separable_poset,
    strict_relations,
    type_a_height_at_most_one,
    type_a_height_one_posets,
)
from lieposet import (
    BasisElement,
    CampaignConfig,
    PrincipalElement,
    functional,
    h01_slots,
    index_formula,
    index_oracle,
    induced_subposet,
    poset_from_graph,
    poset_from_mask,
    report_json_bytes,
    report_text,
    run_campaign,
    structure_constants,
)
from lieposet import harness, index_engine, linalg
from lieposet.harness import CHECKS, SKIPPED, run_checks_on_poset


def test_small_campaign_all_pass():
    cfg = CampaignConfig(plan=(("C", 2),), seed=1)
    report = run_campaign(cfg)
    assert report["posets"] == {"C1": 2, "C2": 8}
    assert report["failures"] == []
    assert report["summary"]["formula_vs_oracle"]["pass"] == 10
    # zero-instance checks report skipped, never pass
    assert report["summary"]["cd_isomorphism"]["pass"] == 0
    assert report["summary"]["cd_isomorphism"]["skipped"] == 10


def test_campaign_mixed_families():
    cfg = CampaignConfig(plan=(("D", 2), ("B", 2)), seed=0)
    report = run_campaign(cfg)
    assert report["failures"] == []
    assert report["summary"]["cd_isomorphism"]["pass"] == 3
    assert report["summary"]["b_reduction"]["pass"] == 3


def test_report_deterministic_across_runs_and_jobs():
    cfg1 = CampaignConfig(plan=(("C", 2), ("D", 2)), seed=7, jobs=1)
    cfg2 = CampaignConfig(plan=(("C", 2), ("D", 2)), seed=7, jobs=2)
    b1 = report_json_bytes(run_campaign(cfg1))
    b2 = report_json_bytes(run_campaign(cfg1))
    b3 = report_json_bytes(run_campaign(cfg2))
    assert b1 == b2 == b3


@pytest.mark.parametrize(
    "plan, jobs, cpus, sizes, posets",
    [((("C", 1),), 8, 8, [2], {"C1": 2}), ((("C", 2),), 3, 8, [3], {"C1": 2, "C2": 8}),
     ((("C", 2),), 1, 8, [], {"C1": 2, "C2": 8}), ((), 1, 8, [], {}), ((), 3, 8, [], {}),
     ((("C", 2),), 10**6, 4, [4], {"C1": 2, "C2": 8}),
     ((("C", 2),), 10**6, None, [], {"C1": 2, "C2": 8})],
    ids=["C1-jobs8", "C2-jobs3", "C2-jobs1", "empty-jobs1", "empty-jobs3",
         "C2-jobs1e6-cpus4", "C2-jobs1e6-cpus-unknown"],
)
def test_pool_has_no_idle_workers(monkeypatch, plan, jobs, cpus, sizes, posets):
    # C:1 holds two posets, so --jobs 8 forks two workers, not eight, and
    # no more workers start than os.cpu_count() reports (one where it
    # reports None, which opens no pool); the fake pool maps in this
    # process, so no process is started.  An empty plan opens no pool and
    # reports zero counts.
    opened = []
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    class InProcessPool:
        def __init__(self, size):
            opened.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    class Context:
        Pool = InProcessPool

    monkeypatch.setattr(harness, "get_context", lambda method: Context)
    serial = report_json_bytes(run_campaign(CampaignConfig(plan=plan, seed=7)))
    pooled = report_json_bytes(run_campaign(CampaignConfig(plan=plan, seed=7, jobs=jobs)))
    assert opened == sizes
    assert pooled == serial
    report = json.loads(serial)
    assert report["posets"] == posets and report["failures"] == []
    total = sum(posets.values())
    assert all(sum(cell.values()) == total for cell in report["summary"].values())


def test_pool_chunk_does_not_grow_with_the_plan(monkeypatch):
    # the results a chunk holds, in a worker and in the parent, stay bounded
    chunks = []

    class RecordingPool:
        def __init__(self, size):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return iter(())

    class Context:
        Pool = RecordingPool

    monkeypatch.setattr(harness, "get_context", lambda method: Context)
    for plan in ((("C", 2),), (("C", 5),)):
        run_campaign(CampaignConfig(plan=plan, jobs=2))
    assert chunks[0] == chunks[1] == harness.POOL_CHUNK


def test_serial_campaign_releases_results(monkeypatch):
    # outcomes are counted as they arrive: while poset k runs, no outcome
    # list of posets before k - 1 is still alive
    inner = harness.run_checks_on_poset
    refs = []

    class Outcomes(list):
        """A list that takes weak references."""

    def tracked(*args):
        assert all(ref() is None for ref in refs[:-1])
        outcomes = Outcomes(inner(*args))
        refs.append(weakref.ref(outcomes))
        return outcomes

    monkeypatch.setattr(harness, "run_checks_on_poset", tracked)
    report = run_campaign(CampaignConfig(plan=(("C", 3),), seed=0))
    assert len(refs) == sum(report["posets"].values()) == 74


def test_seed_changes_report_config_only_on_pass():
    r1 = run_campaign(CampaignConfig(plan=(("C", 2),), seed=1))
    r2 = run_campaign(CampaignConfig(plan=(("C", 2),), seed=2))
    assert r1["summary"] == r2["summary"]
    assert r1["config"] != r2["config"]


@pytest.mark.parametrize("value", [1, -3])
def test_report_does_not_depend_on_the_replay_point(monkeypatch, value):
    # on a connected class poset the reduction replay ends at rank n, or
    # n - 1 with no odd cycle, at every nonzero point, and every rank the
    # campaign takes is proved on the H block: with every draw of a point
    # forced to one constant the acceptance report is the same, byte for
    # byte.  The point cache is emptied around the patch, so the replays
    # read the forced draws and not points cached at seed 0, and no forced
    # point outlives the test
    counts = []

    def constant(rng, count):
        counts.append(count)
        return [value] * count

    cfg = CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3)))
    index_engine._point.cache_clear()
    monkeypatch.setattr(index_engine, "_nonzero_ints", constant)
    try:
        payload = report_json_bytes(run_campaign(cfg))
    finally:
        index_engine._point.cache_clear()
    assert hashlib.sha256(payload).hexdigest() == (
        "13c5722d03d12cca19d0627440c537805b59f3daff573f1d14b8229d06210b92"
    )
    # one forced draw per count the replays needed, each read once
    assert counts and len(counts) == len(set(counts))


def test_default_report_bytes_pinned():
    # the report bytes are the behavioural contract: a change to them
    # must be deliberate and update this digest
    payload = report_json_bytes(run_campaign(CampaignConfig()))
    assert hashlib.sha256(payload).hexdigest() == (
        "ccce07162db20c7602d3ea35bbf3713a57ebe04c170ce5d918f2cc493626f547"
    )


def _mask(family, n, edges, loops=()):
    edge_slots, loop_slots = h01_slots(family, n)
    mask = sum(1 << edge_slots.index(e) for e in edges)
    return mask | sum(1 << (len(edge_slots) + loop_slots.index(v)) for v in loops)


@pytest.mark.parametrize(
    "edges, loops, components",
    [
        ([(1, 2), (2, 3), (3, 4), (1, 3)], (4,), 1),
        ([(1, 2), (2, 3), (1, 3)], (), 2),  # a triangle plus the isolated vertex 4
    ],
)
def test_oracle_computed_once_per_distinct_poset(monkeypatch, edges, loops, components):
    # the whole poset ranks through one _class_index call, each distinct
    # component subposet through one miss of the component cache
    calls = []
    inner = harness._class_index

    def counted(P):
        calls.append(P)
        return inner(P)

    monkeypatch.setattr(harness, "_class_index", counted)
    mask = _mask("C", 4, edges, loops)
    whole = poset_from_mask("C", 4, mask)
    assert len(whole.relation_graph.components) == components
    outcomes = run_checks_on_poset("C", 4, mask, tuple(CHECKS))
    assert all(outcome is None or outcome == SKIPPED for outcome in outcomes)
    # a connected poset is its own component subposet; otherwise each
    # component and the whole poset are computed once
    assert calls.count(whole) == 1
    misses = harness._component_index.cache_info().misses
    assert misses == (0 if components == 1 else components)
    assert len(calls) == 1 + misses


@pytest.mark.parametrize("family, built", [("C", 0), ("D", 0), ("B", 1)])
def test_spanning_component_is_the_poset_itself(monkeypatch, family, built):
    # a connected C or D poset is its own component subposet, so no
    # subposet is built; in B the component drops 0 and is of type D
    calls = []
    inner = harness.poset_from_graph

    def counted(*key):
        calls.append(key)
        return inner(*key)

    monkeypatch.setattr(harness, "poset_from_graph", counted)
    P = poset_from_mask(family, 3, _mask(family, 3, [(1, 2), (2, 3)]))
    ctx = harness.CheckContext()
    assert harness.check_disjoint_additivity(P, ctx) is None
    assert len(calls) == built
    assert list(ctx.memo) == [("oracle", P)]


def _components(family, n, mask):
    """(vertices, key) of each component of a poset of the mask."""
    P = poset_from_mask(family, n, mask)
    G = P.relation_graph
    comps = G.components
    return P, [(c.vertices, key) for c, key in zip(comps, harness._component_keys(P, G, comps))]


def test_component_key_determines_the_subposet():
    # the key read off the relation graph rebuilds the very subposet that
    # induced_subposet cuts out, so equal keys mean equal subposets
    for family, n_max in (("C", 4), ("D", 4), ("B", 3)):
        for n in range(1, n_max + 1):
            for mask in range(1 << sum(map(len, h01_slots(family, n)))):
                P, parts = _components(family, n, mask)
                for vertices, (kind, k, edges, loops) in parts:
                    part = induced_subposet(P, [v for w in vertices for v in (w, -w)])
                    assert part == poset_from_graph(kind, k, edges, loops), (P, vertices)


def test_sampled_component_rank_fails_the_check_uncached(monkeypatch):
    # every component the campaign ranks is of the paper's class, whose
    # rank is proved on the H block; with that path forced away the rank
    # draws trial points, which fails the check naming the component, and
    # nothing is cached
    monkeypatch.setattr(index_engine, "_h_block", lambda basis, table: None)
    (failure,) = run_checks_on_poset("C", 3, 1, ("disjoint_additivity",))
    assert failure["witness"] == {
        "error": "InvariantViolation",
        "message": "the rank of class poset SignedPoset(C;2;-2<=1,-1<=2) was sampled",
    }
    assert harness._component_index.cache_info().currsize == 0


@pytest.mark.parametrize("check", ["formula_vs_oracle", "frobenius_criterion"])
def test_sampled_poset_rank_fails_the_check(monkeypatch, check):
    # the whole poset's index takes the same proved path as a component's:
    # a sampled rank fails the check naming the poset
    monkeypatch.setattr(index_engine, "_h_block", lambda basis, table: None)
    (failure,) = run_checks_on_poset("C", 1, 1, (check,))
    assert failure["witness"] == {
        "error": "InvariantViolation",
        "message": "the rank of class poset SignedPoset(C;1;-1<=1) was sampled",
    }


def test_raising_component_oracle_fails_every_poset_holding_it(monkeypatch):
    # nothing is cached for a component whose rank raises, so each poset
    # that contains it ranks it again and records the failure, not only
    # the first; the poset that is that component fails through the same
    # index function
    shared = structure_constants(poset_from_graph("C", 2, [(1, 2)]))
    inner = harness.generic_rank
    faults = []

    def faulty(C, *args):
        if C == shared:
            faults.append(C)
            raise ZeroDivisionError("injected")
        return inner(C, *args)

    monkeypatch.setattr(harness, "generic_rank", faulty)
    key = ("C", 2, ((1, 2),), ())
    expected = set()
    for n in (1, 2, 3):
        for mask in range(1 << sum(map(len, h01_slots("C", n)))):
            _, parts = _components("C", n, mask)
            if any(k == key for _, k in parts):
                expected.add((n, mask))
    report = run_campaign(CampaignConfig(plan=(("C", 3),), checks=("disjoint_additivity",)))
    failed = {(f["poset"]["n"], f["poset"]["mask"]) for f in report["failures"]}
    assert len(expected) > 1 and failed == expected
    assert {f["witness"]["error"] for f in report["failures"]} == {"ZeroDivisionError"}
    assert len(faults) == len(expected)


def test_each_distinct_component_built_and_ranked_once_per_campaign(monkeypatch):
    # the acceptance plan: 44 distinct components, built and ranked once
    # each, beside the 1,184 posets' own oracles; a second campaign in the
    # same process starts from an empty cache and counts the same
    counts = {"poset_from_graph": 0, "_class_index": 0}

    def counting(name, inner):
        def counted(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    cfg = CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3)), seed=0)
    for _ in range(2):
        payload = report_json_bytes(run_campaign(cfg))
        assert hashlib.sha256(payload).hexdigest().startswith("13c5722d")
        assert counts == {"poset_from_graph": 44, "_class_index": 1184 + 44}
        info = harness._component_index.cache_info()
        assert info.misses == info.currsize == 44
        counts.update(dict.fromkeys(counts, 0))


def test_campaign_closes_no_poset_and_runs_no_height_pass(monkeypatch):
    # every poset and every component of a campaign is built from its
    # relation graph, already closed and carrying its height pair and graph
    # (the closure made 1,228 calls and the height pass 1,184 before)
    from lieposet import posets

    counts = {"build_poset": 0, "_heights": 0}

    def counting(name, inner):
        def counted(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(posets, name, counting(name, getattr(posets, name)))
    cfg = CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3)), seed=0)
    payload = report_json_bytes(run_campaign(cfg))
    assert hashlib.sha256(payload).hexdigest().startswith("13c5722d")
    assert counts == {"build_poset": 0, "_heights": 0}


def test_component_cache_reset_per_campaign(monkeypatch):
    # a campaign starts from an empty cache: wrong indices that a campaign
    # on another plan left there change nothing, and the next campaign
    # ranks every component it reads itself
    cfg = CampaignConfig(plan=(("C", 3), ("D", 3)), seed=4)
    fresh = report_json_bytes(run_campaign(cfg))
    misses = harness._component_index.cache_info().misses
    with monkeypatch.context() as patch:
        patch.setattr(harness, "generic_rank", lambda C, *args: (0, False))
        poisoned = run_campaign(CampaignConfig(plan=(("C", 2), ("D", 2)), seed=4))
    assert poisoned["failures"] and harness._component_index.cache_info().currsize > 0
    assert report_json_bytes(run_campaign(cfg)) == fresh
    assert harness._component_index.cache_info().misses == misses


def test_derived_objects_computed_once_per_poset(monkeypatch):
    # a connected Frobenius C4 poset: the path 1-2-3-4 with a loop at 4
    from lieposet import algebra, posets

    algebra._borel_rows("C", 4)  # the Borel basis and rows, built once per process
    algebra.structure_constants.cache_clear()

    principal_calls = []
    height_calls = []
    led_calls = []
    inner_principal = harness.principal_element
    inner_heights = posets._heights
    inner_led = algebra._led_at

    def counted_principal(P, F):
        principal_calls.append(P)
        return inner_principal(P, F)

    def counted_heights(elements, relations):
        height_calls.append(elements)
        return inner_heights(elements, relations)

    def counted_led(family, position, top):
        led_calls.append(position)
        return inner_led(family, position, top)

    monkeypatch.setattr(harness, "principal_element", counted_principal)
    monkeypatch.setattr(posets, "_heights", counted_heights)
    monkeypatch.setattr(algebra, "_led_at", counted_led)
    mask = _mask("C", 4, [(1, 2), (2, 3), (3, 4)], (4,))
    outcomes = run_checks_on_poset("C", 4, mask, tuple(CHECKS))
    by_check = dict(zip(CHECKS, outcomes))
    assert by_check["principal_element"] is None and by_check["binary_spectrum"] is None
    assert len(principal_calls) == 1
    # one table; it and the parity check of index_formula read the basis
    # off the cached Borel basis, with no leading position looked up
    assert algebra.structure_constants.cache_info().misses == 1
    assert led_calls == []
    # no height pass: the poset is built from its relation graph, which
    # fixes its height pair, and carries that pair from construction
    assert height_calls == []


def test_warm_campaign_looks_up_no_leading_position(monkeypatch):
    # every basis is a filter of the cached Borel basis of its (family,
    # n): once a campaign has built those, a second campaign runs no
    # per-poset pass over the relations and no sort
    from lieposet import algebra

    cfg = CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3)))
    first = report_json_bytes(run_campaign(cfg))
    calls = []
    inner = algebra._led_at

    def counted(family, position, top):
        calls.append(position)
        return inner(family, position, top)

    monkeypatch.setattr(algebra, "_led_at", counted)
    assert report_json_bytes(run_campaign(cfg)) == first
    assert calls == []


def test_default_report_bytes_pinned_under_optimize():
    # python -O strips assert statements, so no correctness check may live
    # in one: the report must not change
    code = (
        "import hashlib\n"
        "from lieposet.harness import CampaignConfig, report_json_bytes, run_campaign\n"
        "payload = report_json_bytes(run_campaign(CampaignConfig()))\n"
        "print(__debug__, hashlib.sha256(payload).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert proc.stdout.split() == [
        "False",
        "ccce07162db20c7602d3ea35bbf3713a57ebe04c170ce5d918f2cc493626f547",
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_in_one_check_is_recorded_as_fail(monkeypatch, jobs):
    # a ZeroDivisionError from one check on one poset becomes that result's
    # failure; the campaign finishes and every other result is unchanged
    plan = (("C", 2), ("D", 2))
    clean = run_campaign(CampaignConfig(plan=plan, seed=7, jobs=jobs))
    work = [
        (family, n, mask)
        for family, n_max in plan
        for n in range(1, n_max + 1)
        for mask in range(1 << sum(map(len, h01_slots(family, n))))
    ]
    clean_results = [run_checks_on_poset(*w, tuple(CHECKS)) for w in work]
    target = poset_from_mask("C", 2, 5)
    check = CHECKS["dimension_formula"]

    def faulty(P, ctx):
        if P == target:
            raise ZeroDivisionError("injected")
        return check(P, ctx)

    monkeypatch.setitem(CHECKS, "dimension_formula", faulty)
    report = run_campaign(CampaignConfig(plan=plan, seed=7, jobs=jobs))
    assert clean["failures"] == []
    assert report["failures"] == [
        {
            "poset": {"family": "C", "n": 2, "mask": 5},
            "check": "dimension_formula",
            "status": "fail",
            "witness": {"error": "ZeroDivisionError", "message": "injected"},
        }
    ]
    summary = {name: dict(cell) for name, cell in clean["summary"].items()}
    summary["dimension_formula"]["pass"] -= 1
    summary["dimension_formula"]["fail"] += 1
    assert report["summary"] == summary
    assert report["config"] == clean["config"] and report["posets"] == clean["posets"]
    for w, before in zip(work, clean_results):
        after = run_checks_on_poset(*w, tuple(CHECKS))
        changed = [(a, b) for a, b in zip(after, before) if a != b]
        if w == ("C", 2, 5):
            ((failure, _),) = changed
            assert failure["check"] == "dimension_formula" and failure["status"] == "fail"
        else:
            assert changed == []


def test_failed_kirillov_solve_runs_once_and_fails_each_check(monkeypatch):
    # the triangle C3 is Frobenius, and its form is solved on the block
    # A^T alone; a solve that finds rank 1 and no solution is one fault,
    # solved once and recorded by each of the three checks that read the
    # principal element
    from lieposet import frobenius

    calls = []

    def lost_rank(rows, rhs, ncols):
        calls.append(ncols)
        return 1, None

    monkeypatch.setattr(frobenius, "solve", lost_rank)
    checks = ("frobenius_kernel", "principal_element", "binary_spectrum")
    mask = _mask("C", 3, [(1, 2), (1, 3), (2, 3)], ())
    outcomes = run_checks_on_poset("C", 3, mask, checks)
    assert calls == [3]
    assert [o["check"] for o in outcomes] == list(checks)
    assert all(o["status"] == "fail" for o in outcomes)
    singular = {"error": "SingularForm", "message": "the Kirillov form of F is singular"}
    assert [o["witness"] for o in outcomes] == [{"kernel_dim": "4"}, singular, singular]


def test_fixed_point_fault_fails_only_the_principal_checks(monkeypatch):
    # a wrong ad(x) breaks the fixed-point identity, which the principal
    # element checks; the kernel check reads the Kirillov form alone and
    # passes
    from lieposet import frobenius

    inner = frobenius._integer_ad

    def off_by_one(P, X):
        diagonal, off = inner(P, X)
        return diagonal[:-1] + (diagonal[-1] + 1,), off

    monkeypatch.setattr(frobenius, "_integer_ad", off_by_one)
    checks = ("frobenius_kernel", "principal_element", "binary_spectrum")
    mask = _mask("C", 3, [(1, 2), (1, 3), (2, 3)], ())
    outcomes = run_checks_on_poset("C", 3, mask, checks)
    assert outcomes[0] is None
    fault = {
        "error": "InvariantViolation",
        "message": "fixed-point identity F(ad(x)(Y(2,3))) = F(Y(2,3)) fails",
    }
    assert [(o["check"], o["status"], o["witness"]) for o in outcomes[1:]] == [
        ("principal_element", "fail", fault),
        ("binary_spectrum", "fail", fault),
    ]


def test_frobenius_kernel_keeps_singular_witness(monkeypatch):
    # the zero functional has no principal element; the check then
    # eliminates its Kirillov form for the kernel it reports
    monkeypatch.setattr(harness, "frobenius_functional", lambda P: functional(P, {}))
    (failure,) = run_checks_on_poset("C", 1, 1, ("frobenius_kernel",))
    assert failure["status"] == "fail"
    assert failure["witness"] == {"kernel_dim": "2"}


def _principal(coefficients=(), diagonal=None):
    """A stand-in for principal_element that returns a fixed element."""
    return lambda P, F: PrincipalElement(coefficients, diagonal, "other")


@pytest.mark.parametrize(
    "check, poset, target, fake, witness",
    [
        # the oracle gives the whole poset index 1; its two components
        # have index 1 each and sum to 2
        ("disjoint_additivity", ("C", 2, 0), "_class_index", lambda P: 1,
         {"component_sum": "2", "whole": "1", "components": "2"}),
        # the looped C1 is Frobenius: the formula gives index 0
        ("formula_vs_oracle", ("C", 1, 1), "_class_index", lambda P: 1,
         {"formula": "0", "oracle": "1"}),
        ("principal_element", ("C", 1, 1), "principal_element", _principal(),
         {"reason": "principal element not diagonal"}),
        ("principal_element", ("C", 1, 1), "principal_element",
         _principal(diagonal=((-1, Fraction(1, 2)), (1, Fraction(1, 2)))),
         {"convention": "other"}),
        # mirrored +-1/2, but +1/2 on the positive row: not h-hat
        ("principal_element", ("C", 1, 1), "principal_element",
         _principal(diagonal=((-1, Fraction(-1, 2)), (1, Fraction(1, 2)))),
         {"convention": "other"}),
        # ad(H(1)) on H(1), Z(1) has eigenvalues 0 and 2
        ("binary_spectrum", ("C", 1, 1), "principal_element",
         _principal(coefficients=((BasisElement("C", "H", 1), Fraction(1)),)),
         {"zeros": "1", "ones": "0", "dim": "2"}),
        # a replay that ends at rank 0 after no step
        ("reduction_trace", ("C", 1, 1), "_replay", lambda P, rank: (0, 0),
         {"final_rank": "0", "expected": "1", "steps": "0"}),
    ],
    ids=["disjoint_additivity", "formula_vs_oracle", "principal_element-reason",
         "principal_element-convention", "principal_element-mirrored", "binary_spectrum",
         "reduction_trace"],
)
def test_failure_witness(monkeypatch, check, poset, target, fake, witness):
    # each check's witness, from a fault injected under the check
    monkeypatch.setattr(harness, target, fake)
    (failure,) = run_checks_on_poset(*poset, (check,))
    assert failure["status"] == "fail" and failure["check"] == check
    assert failure["witness"] == witness


TRIANGLE_MASK = _mask("C", 3, [(1, 2), (1, 3), (2, 3)])


def test_replay_start_rank_fault_fails_the_campaign_check(monkeypatch):
    # the campaign's replay starts at the rank the oracle proved, so an
    # oracle index 4 too low puts the start rank 2 too high, and the rank
    # the replay takes after its last step no longer agrees with it
    true = harness._class_index
    monkeypatch.setattr(harness, "_class_index", lambda P: true(P) - 4)
    (failure,) = run_checks_on_poset("C", 3, TRIANGLE_MASK, ("reduction_trace",))
    assert failure["status"] == "fail"
    assert failure["witness"] == {
        "error": "InvariantViolation",
        "message": "rank drifted from 5 to 3 by the end of the replay",
    }


def test_replay_end_rank_fault_fails_the_campaign_check(monkeypatch):
    # the oracle ranks the H block once, and the replay takes one rank,
    # after its last step: that one rank 2 too high fails the check
    calls = []
    true = index_engine.integer_rank

    def shifted(rows, ncols):
        calls.append(ncols)
        return true(rows, ncols) + 2 * (len(calls) == 2)

    monkeypatch.setattr(index_engine, "integer_rank", shifted)
    (failure,) = run_checks_on_poset("C", 3, TRIANGLE_MASK, ("reduction_trace",))
    assert failure["status"] == "fail"
    assert failure["witness"] == {
        "error": "InvariantViolation",
        "message": "rank drifted from 3 to 5 by the end of the replay",
    }
    assert len(calls) == 2


def test_campaign_replay_reuses_the_oracle_rank_and_builds_no_snapshot(monkeypatch):
    # the acceptance campaign ranks each of its 646 replays once, at the
    # end, and builds no ReductionStep; reduce still snapshots its steps
    eliminations, snapshots = [], []
    true_bareiss, true_step = linalg._bareiss, index_engine.ReductionStep

    def counted_bareiss(m, ncols):
        eliminations.append(ncols)
        return true_bareiss(m, ncols)

    def counted_step(**fields):
        snapshots.append(fields["kind"])
        return true_step(**fields)

    monkeypatch.setattr(linalg, "_bareiss", counted_bareiss)
    monkeypatch.setattr(index_engine, "ReductionStep", counted_step)
    report = run_campaign(CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3))))
    assert report["summary"]["reduction_trace"]["pass"] == 646
    assert (len(eliminations), snapshots) == (2050, [])
    trace = index_engine.reduce(poset_from_mask("C", 3, TRIANGLE_MASK))
    assert snapshots == ["Init", "OddCycleElim", "SelfLoopElim", "SelfLoopElim"]
    assert len(trace.steps) == 3


def test_one_frobenius_functional_per_frobenius_poset(monkeypatch):
    # the kernel, principal-element and spectrum checks of each of the
    # acceptance plan's 176 Frobenius posets read one functional, built
    # once in the poset's CheckContext (two per poset before)
    calls = []
    inner = harness.frobenius_functional

    def counted(P):
        calls.append(P)
        return inner(P)

    monkeypatch.setattr(harness, "frobenius_functional", counted)
    report = run_campaign(CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3))))
    assert report["summary"]["frobenius_kernel"]["pass"] == 176
    assert len(calls) == len(set(calls)) == 176


def test_acceptance_campaign_table_cache_counts():
    # a jobs-1 acceptance campaign from an empty table cache builds 1,275
    # tables and reads 2,483 again: 2,358 by one poset's own checks (646
    # of them the replay's start rank), 28 by components that recur across
    # posets, 22 by verify_B_reduction and 75 by verify_CD_isomorphism
    structure_constants.cache_clear()
    payload = report_json_bytes(run_campaign(CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3)))))
    assert hashlib.sha256(payload).hexdigest().startswith("13c5722d")
    info = structure_constants.cache_info()
    assert (info.hits, info.misses) == (2483, 1275)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(plan=(("C", 1),), checks=("nope",)))


def test_config_rejects_unknown_check_like_every_other_field():
    with pytest.raises(ValueError, match="unknown checks"):
        CampaignConfig(plan=(("C", 1),), checks=("dimension_formula", "nope"))


@pytest.mark.parametrize(
    "plan, fields, message",
    [((("C", 2), ("C", 1)), {}, "family 'C' appears more than once in the plan"),
     ((("D", 1), ("B", 2), ("D", 3)), {}, "family 'D' appears more than once in the plan"),
     ((("C", 0),), {}, "n_max of family 'C' must be >= 1, got 0"),
     ((("B", -1),), {}, "n_max of family 'B' must be >= 1, got -1"),
     ((("A", 2),), {}, "family 'A' is not one of B, C, D"),
     ((("E", 1),), {}, "family 'E' is not one of B, C, D"),
     ((("C", 2),), {"checks": ("dimension_formula", "dimension_formula")},
      "check 'dimension_formula' appears more than once"),
     ((("C", 2),), {"trials": 0}, "trials must be >= 1"),
     ((("C", 2), ("B", 129)), {}, "n_max of family 'B' must be <= 128, got 129"),
     ((("C", True),), {}, "n_max of family 'C' must be an integer, got True"),
     ((("C", 1.5),), {}, "n_max of family 'C' must be an integer, got 1.5"),
     ((("C", 2),), {"jobs": 1.5}, "jobs must be an integer, got 1.5"),
     # read as a sequence, the string would be one check per character
     ((("C", 2),), {"checks": "dimension_formula"},
      "checks must be a sequence of names, got 'dimension_formula'")],
    ids=["repeated", "repeated-apart", "zero", "negative", "family-A", "unknown",
         "repeated-check", "trials-zero", "above-max-n", "n-max-bool", "n-max-float",
         "jobs-float", "checks-string"],
)
def test_plan_rejected_before_any_poset_runs(plan, fields, message, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "_worker", lambda item: ran.append(item) or [])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_campaign(CampaignConfig(plan=plan, **fields))
    assert ran == []


def test_report_text_renders():
    report = run_campaign(CampaignConfig(plan=(("C", 1),), seed=0))
    text = report_text(report)
    assert "formula_vs_oracle" in text and "failures: 0" in text
    payload = json.loads(report_json_bytes(report).decode())
    assert payload["summary"] == report["summary"]


def test_random_separable_poset_is_separable():
    import random

    from lieposet import is_separable

    rng = random.Random(5)
    for _ in range(50):
        P = random_separable_poset(rng, max_positive=4)
        assert P.family == "C" and is_separable(P)


def test_type_a_height_one_enumeration():
    posets = list(type_a_height_one_posets(3))
    # connected height-one posets on {1,2,3}: vee, wedge, and paths
    assert all(len(strict_relations(P)) >= 2 for P in posets)
    for P in posets:
        assert type_a_height_at_most_one(P) and hasse_connected(P)
    disconnected = list(type_a_height_one_posets(3, connected_only=False))
    assert len(disconnected) > len(posets)


def test_acceptance_report_bytes_pinned():
    # the acceptance plan C:4,D:4,B:3 at seed 0, the campaign the bench times
    cfg = CampaignConfig(plan=(("C", 4), ("D", 4), ("B", 3)), seed=0)
    payload = report_json_bytes(run_campaign(cfg))
    assert hashlib.sha256(payload).hexdigest() == (
        "13c5722d03d12cca19d0627440c537805b59f3daff573f1d14b8229d06210b92"
    )
