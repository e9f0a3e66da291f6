import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from corpora import (
    hasse_connected,
    random_separable_poset,
    type_a_height_at_most_one,
    type_a_height_one_posets,
)
from lieposet import (
    BasisElement,
    CampaignConfig,
    PrincipalElement,
    functional,
    graph_components,
    h01_slots,
    index_formula,
    index_oracle,
    induced_subposet,
    poset_from_graph,
    poset_from_mask,
    reduce,
    relation_graph,
    report_json_bytes,
    report_text,
    run_campaign,
)
from lieposet import harness, index_engine
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
    "plan, jobs, sizes, posets",
    [((("C", 1),), 8, [2], {"C1": 2}), ((("C", 2),), 3, [3], {"C1": 2, "C2": 8}),
     ((("C", 2),), 1, [], {"C1": 2, "C2": 8}), ((), 1, [], {}), ((), 3, [], {})],
    ids=["C1-jobs8", "C2-jobs3", "C2-jobs1", "empty-jobs1", "empty-jobs3"],
)
def test_pool_has_no_idle_workers(monkeypatch, plan, jobs, sizes, posets):
    # C:1 holds two posets, so --jobs 8 forks two workers, not eight; the
    # fake pool maps in this process, so no process is started.  An empty
    # plan opens no pool and reports zero counts.
    opened = []

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
    # the whole poset ranks through index_oracle, a component subposet
    # through index_oracle_sampled
    calls = []

    def counting(inner):
        def counted(P, **kwargs):
            calls.append(P)
            return inner(P, **kwargs)
        return counted

    for name in ("index_oracle", "index_oracle_sampled"):
        monkeypatch.setattr(harness, name, counting(getattr(harness, name)))
    mask = _mask("C", 4, edges, loops)
    assert len(graph_components(relation_graph(poset_from_mask("C", 4, mask)))) == components
    outcomes = run_checks_on_poset("C", 4, mask, tuple(CHECKS), seed=3, trials=5)
    assert all(outcome is None or outcome == SKIPPED for outcome in outcomes)
    # a connected poset is its own component subposet; otherwise each
    # component and the whole poset are computed once
    assert len(calls) == (1 if components == 1 else components + 1)


@pytest.mark.parametrize("family, induced", [("C", 0), ("D", 0), ("B", 1)])
def test_spanning_component_is_the_poset_itself(monkeypatch, family, induced):
    # a connected C or D poset is its own component subposet, so no
    # subposet is built; in B the component drops 0 and is of type D
    calls = []
    inner = harness.induced_subposet

    def counted(P, elements):
        calls.append(elements)
        return inner(P, elements)

    monkeypatch.setattr(harness, "induced_subposet", counted)
    P = poset_from_mask(family, 3, _mask(family, 3, [(1, 2), (2, 3)]))
    ctx = harness.CheckContext(seed=5, trials=5)
    assert harness.check_disjoint_additivity(P, ctx) is None
    assert len(calls) == induced
    assert len(ctx.memo) == 1 + induced


def _components(family, n, mask):
    """(vertices, key) of each component of a poset of the mask."""
    P = poset_from_mask(family, n, mask)
    G = relation_graph(P)
    comps = graph_components(G)
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


def test_sampled_components_rank_at_each_posets_seed(monkeypatch):
    # with the H block forced away every oracle draws, so the component
    # shared by the two posets (the edge 1-2 relabelled) is ranked at each
    # poset's own seed and the campaign memo stays empty
    monkeypatch.setattr(index_engine, "_h_block", lambda basis, table: None)
    calls = []
    inner = harness.index_oracle_sampled

    def counted(P, trials, seed):
        calls.append((P, seed))
        return inner(P, trials=trials, seed=seed)

    monkeypatch.setattr(harness, "index_oracle_sampled", counted)
    shared = poset_from_graph("C", 2, [(1, 2)])
    masks = [_mask("C", 3, [(1, 2)]), _mask("C", 3, [(2, 3)])]
    for mask in masks:
        assert run_checks_on_poset("C", 3, mask, ("disjoint_additivity",), 0, 5) == [None]
    seeds = [harness.poset_seed(0, "C", 3, mask) for mask in masks]
    assert seeds[0] != seeds[1]
    assert [seed for P, seed in calls if P == shared] == seeds
    assert len(calls) == 4 and harness._component_index == {}


def test_raising_component_oracle_fails_every_poset_holding_it(monkeypatch):
    # nothing is stored for a component whose oracle raises, so each
    # poset that contains it records the failure, not only the first
    shared = poset_from_graph("C", 2, [(1, 2)])
    inner = harness.index_oracle_sampled

    def faulty(P, trials, seed):
        if P == shared:
            raise ZeroDivisionError("injected")
        return inner(P, trials=trials, seed=seed)

    monkeypatch.setattr(harness, "index_oracle_sampled", faulty)
    key = ("C", 2, ((1, 2),), ())
    expected = set()
    for n in (1, 2, 3):
        for mask in range(1 << sum(map(len, h01_slots("C", n)))):
            _, parts = _components("C", n, mask)
            if len(parts) > 1 and any(k == key for _, k in parts):
                expected.add((n, mask))
    report = run_campaign(CampaignConfig(plan=(("C", 3),), checks=("disjoint_additivity",)))
    failed = {(f["poset"]["n"], f["poset"]["mask"]) for f in report["failures"]}
    assert len(expected) > 1 and failed == expected
    assert {f["witness"]["error"] for f in report["failures"]} == {"ZeroDivisionError"}
    assert key not in harness._component_index


def test_each_distinct_component_built_and_ranked_once_per_campaign(monkeypatch):
    # the acceptance plan: 44 distinct components, built and ranked once
    # each, beside the 1,184 posets' own oracles; a second campaign in the
    # same process starts from an empty memo and counts the same
    counts = {"induced_subposet": 0, "index_oracle": 0, "index_oracle_sampled": 0}

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
        assert counts == {"induced_subposet": 44, "index_oracle": 1184,
                          "index_oracle_sampled": 44}
        assert len(harness._component_index) == 44
        counts.update(dict.fromkeys(counts, 0))


def test_component_memo_bound_and_reset(monkeypatch):
    # a memo bounded at two entries drops the least recently used, and a
    # wrong entry left from before a campaign is emptied by run_campaign
    cfg = CampaignConfig(plan=(("C", 3), ("D", 3)), seed=4)
    unbounded = report_json_bytes(run_campaign(cfg))
    monkeypatch.setattr(harness, "COMPONENT_MEMO_SIZE", 2)
    harness._component_index[("C", 1, (), ())] = 99
    assert report_json_bytes(run_campaign(cfg)) == unbounded
    assert len(harness._component_index) == 2
    ctx = harness.CheckContext(seed=0, trials=5)
    P, parts = _components("C", 3, _mask("C", 3, [(1, 2)], (3,)))
    for vertices, key in parts:
        ctx.component(P, vertices, key)
    assert list(harness._component_index) == [key for _, key in parts]


def test_derived_objects_computed_once_per_poset(monkeypatch):
    # a connected Frobenius C4 poset: the path 1-2-3-4 with a loop at 4
    from lieposet import algebra, posets

    algebra._borel("C", 4)  # built once per process, with its own basis
    algebra.structure_constants.cache_clear()
    algebra.build_basis.cache_clear()

    principal_calls = []
    height_calls = []
    inner_principal = harness.principal_element
    inner_heights = posets._heights

    def counted_principal(P, F):
        principal_calls.append(P)
        return inner_principal(P, F)

    def counted_heights(elements, relations):
        height_calls.append(elements)
        return inner_heights(elements, relations)

    monkeypatch.setattr(harness, "principal_element", counted_principal)
    monkeypatch.setattr(posets, "_heights", counted_heights)
    mask = _mask("C", 4, [(1, 2), (2, 3), (3, 4)], (4,))
    outcomes = run_checks_on_poset("C", 4, mask, tuple(CHECKS), seed=3, trials=5)
    by_check = dict(zip(CHECKS, outcomes))
    assert by_check["principal_element"] is None and by_check["binary_spectrum"] is None
    assert len(principal_calls) == 1
    # one basis: the table and the parity check of index_formula share it
    assert algebra.build_basis.cache_info().misses == 1
    # one height pair: one pass gives the longest chain in P+ and in P
    assert len(height_calls) == 1


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
    clean_results = [run_checks_on_poset(*w, tuple(CHECKS), 7, 5) for w in work]
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
        after = run_checks_on_poset(*w, tuple(CHECKS), 7, 5)
        changed = [(a, b) for a, b in zip(after, before) if a != b]
        if w == ("C", 2, 5):
            ((failure, _),) = changed
            assert failure["check"] == "dimension_formula" and failure["status"] == "fail"
        else:
            assert changed == []


def test_failed_kirillov_solve_runs_once_and_fails_each_check(monkeypatch):
    # the triangle C3 is Frobenius; an odd rank from the solve is one
    # fault, solved once and recorded by each of the three checks that
    # read the principal element
    from lieposet import frobenius

    calls = []

    def odd_rank(rows, rhs, ncols):
        calls.append(ncols)
        return 1, None

    monkeypatch.setattr(frobenius, "solve", odd_rank)
    checks = ("frobenius_kernel", "principal_element", "binary_spectrum")
    mask = _mask("C", 3, [(1, 2), (1, 3), (2, 3)], ())
    outcomes = run_checks_on_poset("C", 3, mask, checks, seed=0, trials=5)
    assert len(calls) == 1
    assert [o["check"] for o in outcomes] == list(checks)
    message = "evaluated Kirillov form has odd rank 1"
    assert all(
        o["witness"] == {"error": "InvariantViolation", "message": message} for o in outcomes
    )


def test_frobenius_kernel_keeps_singular_witness(monkeypatch):
    # the zero functional has no principal element; the check then
    # eliminates its Kirillov form for the kernel it reports
    monkeypatch.setattr(harness, "frobenius_functional", lambda P: functional(P, {}))
    (failure,) = run_checks_on_poset("C", 1, 1, ("frobenius_kernel",), 0, 5)
    assert failure["status"] == "fail"
    assert failure["witness"] == {"kernel_dim": "2"}


def _principal(coefficients=(), diagonal=None):
    """A stand-in for principal_element that returns a fixed element."""
    return lambda P, F: PrincipalElement(coefficients, diagonal, "other")


def _rank_zero_trace(P, seed):
    """The trace of reduce with no steps and an initial rank of 0."""
    trace = reduce(P, seed=seed)
    return replace(trace, initial=replace(trace.initial, rank=0), steps=())


@pytest.mark.parametrize(
    "check, poset, target, fake, witness",
    [
        # the oracle gives every poset index 1: two components sum to 2
        ("disjoint_additivity", ("C", 2, 0), "index_oracle",
         lambda P, trials, seed: 1,
         {"component_sum": "2", "whole": "1", "components": "2"}),
        ("principal_element", ("C", 1, 1), "principal_element", _principal(),
         {"reason": "principal element not diagonal"}),
        ("principal_element", ("C", 1, 1), "principal_element",
         _principal(diagonal=((-1, Fraction(1, 2)), (1, Fraction(1, 2)))),
         {"convention": "other", "mirrored": "False"}),
        # ad(H(1)) on H(1), Z(1) has eigenvalues 0 and 2
        ("binary_spectrum", ("C", 1, 1), "principal_element",
         _principal(coefficients=((BasisElement("C", "H", 1), Fraction(1)),)),
         {"zeros": "1", "ones": "0", "dim": "2"}),
        ("reduction_trace", ("C", 1, 1), "reduce", _rank_zero_trace,
         {"final_rank": "0", "expected": "1", "steps": "0"}),
    ],
    ids=["disjoint_additivity", "principal_element-reason",
         "principal_element-convention", "binary_spectrum", "reduction_trace"],
)
def test_failure_witness(monkeypatch, check, poset, target, fake, witness):
    # each check's witness, from a fault injected under the check
    monkeypatch.setattr(harness, target, fake)
    (failure,) = run_checks_on_poset(*poset, (check,), 0, 5)
    assert failure["status"] == "fail" and failure["check"] == check
    assert failure["witness"] == witness


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(plan=(("C", 1),), checks=("nope",)))


def test_config_rejects_unknown_check_like_every_other_field():
    with pytest.raises(ValueError, match="unknown checks"):
        CampaignConfig(plan=(("C", 1),), checks=("dimension_formula", "nope"))


@pytest.mark.parametrize(
    "plan, checks",
    [((("C", 2), ("C", 1)), ()), ((("D", 1), ("B", 2), ("D", 3)), ()),
     ((("C", 0),), ()), ((("B", -1),), ()), ((("A", 2),), ()), ((("E", 1),), ()),
     ((("C", 2),), ("dimension_formula", "dimension_formula"))],
    ids=["repeated", "repeated-apart", "zero", "negative", "family-A", "unknown",
         "repeated-check"],
)
def test_plan_rejected_before_any_poset_runs(plan, checks, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "_worker", lambda item: ran.append(item) or [])
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(plan=plan, checks=checks))
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
    assert all(len(P.strict_relations) >= 2 for P in posets)
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
