"""Exhaustive verification campaigns over small poset corpora.

A campaign enumerates every height-(0,0)/(0,1) poset of the configured
families (one per labeled relation graph, identified by its slot bitmask)
and runs each enabled check.  A check returns None on a pass, SKIPPED
where it does not apply and a witness dict on a failure, so a pass or a
skip builds no witness.  Outcomes are counted as they arrive and only
failures are kept: memory does not grow with the plan, and with a fixed
seed the JSON report is byte identical across runs and worker counts.

Derived objects are shared at two scopes.  A CheckContext holds what one
poset's checks share: its oracle, its principal element and the oracle
of each of its component subposets.  The campaign shares the index of a
component subposet across posets, keyed by the component after the
order-preserving relabelling onto 1..k; an index enters that memo only
when its oracle drew no trial point, since it then depends on the
component alone and not on the seed of the poset that holds it.  Every
component of the paper's class takes that path, so each distinct one is
built and ranked once per campaign.  `run_campaign` empties the memo
before it starts, so a campaign, and each worker it forks, starts empty.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field

from .algebra import structure_constants, verify_B_reduction, verify_CD_isomorphism
from .errors import SingularForm
from .frobenius import (
    frobenius_functional,
    is_frobenius_by_graph,
    kernel_dim,
    principal_element,
    spectrum,
)
from .index_engine import index_formula, index_oracle, index_oracle_sampled, reduce
from .posets import (
    SIGNED_FAMILIES,
    graph_components,
    h01_slots,
    induced_subposet,
    poset_from_mask,
    relation_graph,
    rg_connected,
)

_FAMILY_INDEX = {"A": 0, "B": 1, "C": 2, "D": 3}

# a check's outcome where it does not apply; pooled outcomes are pickled: test with ==
SKIPPED = "skipped"

# posets per pool task: a constant, so that the results a chunk holds in
# a worker and in the parent do not grow with the plan
POOL_CHUNK = 32

# distinct component subposets the campaign memo holds, least recently
# used dropped first; the plan C:5,D:5,B:4 has 690
COMPONENT_MEMO_SIZE = 1024

# component key -> index, for the components whose oracle drew nothing;
# least recently used first
_component_index = {}


def _mix(*parts):
    """Deterministic 64-bit mix of integers (independent of PYTHONHASHSEED)."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h ^= (part + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = (h * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return h


def poset_seed(base_seed, family, n, mask):
    return _mix(base_seed, _FAMILY_INDEX[family], n, mask) % (2**31)


@dataclass(frozen=True)
class CampaignConfig:
    """What to enumerate and how: ((family, n_max), ...), checks, seed.

    A plan family outside B/C/D or repeated, a repeated or unknown
    check, n_max below 1, and trials or jobs below 1 raise ValueError,
    before any poset runs.
    """

    plan: tuple = (("C", 3), ("D", 3), ("B", 2))
    checks: tuple = ()  # empty means all registered checks
    seed: int = 0
    trials: int = 5
    jobs: int = 1

    def __post_init__(self):
        families = [family for family, _ in self.plan]
        for family, n_max in self.plan:
            if family not in SIGNED_FAMILIES:
                raise ValueError(f"family {family!r} is not one of B, C, D")
            if families.count(family) > 1:
                raise ValueError(f"family {family!r} appears more than once in the plan")
            if n_max < 1:
                raise ValueError(f"n_max of family {family!r} must be >= 1, got {n_max}")
        for name in self.checks:
            if self.checks.count(name) > 1:
                raise ValueError(f"check {name!r} appears more than once")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        unknown = [name for name in self.checks if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")

    def enabled_checks(self):
        return self.checks or tuple(CHECKS)


@dataclass(frozen=True)
class CheckContext:
    """Seed and trials for one poset's checks, plus their memo.

    Build one per poset: the memo holds the oracle of the poset, the
    oracle of each component subposet that the campaign memo does not
    hold, and the principal element of the poset, or the exception one
    raised, which each later reader gets again.
    """

    seed: int
    trials: int
    memo: dict = field(default_factory=dict, compare=False)

    def _once(self, key, compute):
        if key not in self.memo:
            try:
                self.memo[key] = compute()
            except Exception as exc:
                self.memo[key] = exc
        if isinstance(self.memo[key], Exception):
            raise self.memo[key]
        return self.memo[key]

    def oracle(self, P):
        """index_oracle(P) at this context's seed and trials, computed once."""
        return self._once(
            ("oracle", P),
            lambda: index_oracle(P, trials=self.trials, seed=self.seed),
        )

    def principal(self, P):
        """principal_element of the Frobenius functional of P, computed once."""
        return self._once(
            ("principal", P),
            lambda: principal_element(P, frobenius_functional(P)),
        )

    def component(self, P, vertices, key):
        """The oracle index of the component subposet of P on ±vertices.

        `key` is the component relabelled onto 1..k (`_component_keys`).
        Its index is read from the campaign memo, or computed at this
        context's seed and trials and stored there when its oracle drew
        nothing.  A sampled index, or an exception, stays in this context's
        memo only.
        """
        index = _component_index.pop(key, None)
        if index is None:
            index, sampled = self._once(
                ("component", key),
                lambda: index_oracle_sampled(
                    induced_subposet(P, [v for w in vertices for v in (w, -w)]),
                    trials=self.trials,
                    seed=self.seed,
                ),
            )
            if sampled:
                return index
            if len(_component_index) >= COMPONENT_MEMO_SIZE:
                del _component_index[next(iter(_component_index))]
        _component_index[key] = index
        return index


def _component_keys(P, G, comps):
    """(family, k, edges, loops) of each of comps, the components of the
    relation graph G of P, relabelled onto 1..k in vertex order, as
    `induced_subposet` does.

    The family is that of the component subposet: D for a B poset, whose
    component drops 0.
    """
    family = "D" if P.family == "B" else P.family
    edges, loops = sorted(G.edges), sorted(G.loops)
    keys = []
    for comp in comps:
        label = {v: k for k, v in enumerate(comp.vertices, start=1)}
        keys.append((
            family,
            len(comp.vertices),
            tuple((label[i], label[j]) for i, j in edges if i in label),
            tuple(label[v] for v in loops if v in label),
        ))
    return keys


def check_dimension_formula(P, ctx):
    G = relation_graph(P)
    basis, _ = structure_constants(P)
    expected = G.n + G.edge_count
    return None if len(basis) == expected else {"dim": len(basis), "expected": expected}


def check_formula_vs_oracle(P, ctx):
    f = index_formula(P)
    o = ctx.oracle(P)
    return None if f == o else {"formula": f, "oracle": o, "seed": ctx.seed}


def check_disjoint_additivity(P, ctx):
    G = relation_graph(P)
    comps = graph_components(G)
    if len(comps) == 1 and P.family != "B":
        # one component spans every vertex, so it induces P itself; in
        # family B the induced subposet would drop 0 and be of type D
        total = ctx.oracle(P)
    else:
        total = sum(
            ctx.component(P, comp.vertices, key)
            for comp, key in zip(comps, _component_keys(P, G, comps))
        )
    whole = ctx.oracle(P)
    if total == whole:
        return None
    return {"component_sum": total, "whole": whole, "components": len(comps)}


def check_frobenius_criterion(P, ctx):
    by_graph = is_frobenius_by_graph(P)
    by_oracle = ctx.oracle(P) == 0
    return None if by_graph == by_oracle else {"graph": by_graph, "oracle": by_oracle}


def check_frobenius_kernel(P, ctx):
    if not is_frobenius_by_graph(P):
        return SKIPPED
    try:
        # a principal element exists only for a nonsingular Kirillov form,
        # so its solve already shows kernel 0
        ctx.principal(P)
        dim = 0
    except SingularForm:
        dim = kernel_dim(P, frobenius_functional(P))
    return None if dim == 0 else {"kernel_dim": dim}


def check_principal_element(P, ctx):
    if not is_frobenius_by_graph(P):
        return SKIPPED
    element = ctx.principal(P)
    if element.diagonal is None:
        return {"reason": "principal element not diagonal"}
    diag = dict(element.diagonal)
    mirrored = all(diag[e] == -diag[-e] for e in P.elements if e > 0)
    halves = all(abs(v) * 2 == 1 for e, v in element.diagonal if e != 0)
    if mirrored and halves:
        return None
    return {"convention": element.half_convention, "mirrored": mirrored}


def check_binary_spectrum(P, ctx):
    if not is_frobenius_by_graph(P):
        return SKIPPED
    report = spectrum(P, ctx.principal(P))
    if report.is_binary:
        return None
    return {"zeros": report.zero_count, "ones": report.one_count, "dim": report.dim}


def check_cd_isomorphism(P, ctx):
    if P.family != "D":
        return SKIPPED
    verify_CD_isomorphism(P)
    return None


def check_b_reduction(P, ctx):
    if P.family != "B":
        return SKIPPED
    verify_B_reduction(P)
    return None


def check_reduction_trace(P, ctx):
    if P.family != "C" or not rg_connected(P):
        return SKIPPED
    G = relation_graph(P)
    trace = reduce(P, seed=ctx.seed)
    has_odd = any(c.has_odd_cycle for c in graph_components(G))
    expected = G.n if has_odd else G.n - 1
    if trace.final_rank == expected:
        return None
    return {"final_rank": trace.final_rank, "expected": expected,
            "steps": len(trace.steps)}


CHECKS = {
    "dimension_formula": check_dimension_formula,
    "formula_vs_oracle": check_formula_vs_oracle,
    "disjoint_additivity": check_disjoint_additivity,
    "frobenius_criterion": check_frobenius_criterion,
    "frobenius_kernel": check_frobenius_kernel,
    "principal_element": check_principal_element,
    "binary_spectrum": check_binary_spectrum,
    "cd_isomorphism": check_cd_isomorphism,
    "b_reduction": check_b_reduction,
    "reduction_trace": check_reduction_trace,
}


def _run_check(fn, P, ctx):
    """What one check returns; any exception it raises is a failure.

    A fault in one check on one poset is recorded with its type and
    message instead of ending the campaign.
    """
    try:
        return fn(P, ctx)
    except Exception as exc:
        return {"error": type(exc).__name__, "message": exc}


def run_checks_on_poset(family, n, mask, checks, seed, trials):
    """One outcome per check, in order: None, SKIPPED or a failure object."""
    P = poset_from_mask(family, n, mask)
    ctx = CheckContext(seed=poset_seed(seed, family, n, mask), trials=trials)
    outcomes = []
    for name in checks:
        outcome = _run_check(CHECKS[name], P, ctx)
        if outcome is not None and outcome != SKIPPED:
            outcome = {
                "poset": {"family": family, "n": n, "mask": mask},
                "check": name,
                "status": "fail",
                "witness": {key: str(value) for key, value in outcome.items()},
            }
        outcomes.append(outcome)
    return outcomes


def get_context(method):
    """multiprocessing.get_context, imported on the first pool.

    Only a campaign with jobs > 1 opens a pool, so no other command or
    import of the package pays for loading multiprocessing.
    """
    import multiprocessing

    return multiprocessing.get_context(method)


def _worker(args):
    return run_checks_on_poset(*args)


def run_campaign(cfg):
    """Run every enabled check over the configured corpora; returns a report."""
    checks = cfg.enabled_checks()
    sizes = [
        (family, n, 1 << sum(map(len, h01_slots(family, n))))
        for family, n_max in cfg.plan
        for n in range(1, n_max + 1)
    ]
    total = sum(size for _, _, size in sizes)
    work = (
        (family, n, mask, checks, cfg.seed, cfg.trials)
        for family, n, size in sizes
        for mask in range(size)
    )
    jobs = min(cfg.jobs, total)
    _component_index.clear()
    summary = {name: {"pass": 0, "fail": 0, "skipped": 0} for name in checks}
    failures = []
    with get_context("fork").Pool(jobs) if jobs > 1 else nullcontext() as pool:
        if pool is None:
            batches = map(_worker, work)
        else:
            batches = pool.imap(_worker, work, POOL_CHUNK)
        for batch in batches:
            for name, outcome in zip(checks, batch):
                if outcome is None:
                    summary[name]["pass"] += 1
                elif outcome == SKIPPED:
                    summary[name]["skipped"] += 1
                else:
                    summary[name]["fail"] += 1
                    failures.append(outcome)
    return {
        "config": {
            "plan": [[family, n_max] for family, n_max in cfg.plan],
            "checks": list(checks),
            "seed": cfg.seed,
            "trials": cfg.trials,
        },
        "posets": {f"{family}{n}": size for family, n, size in sizes},
        "summary": summary,
        "failures": failures,
    }


def report_json_bytes(report):
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def report_text(report):
    lines = ["campaign report"]
    lines.append(
        "  posets: "
        + ", ".join(f"{key}={value}" for key, value in sorted(report["posets"].items()))
    )
    width = max(len(name) for name in report["summary"])
    for name in sorted(report["summary"]):
        cell = report["summary"][name]
        lines.append(
            f"  {name:<{width}}  pass={cell['pass']:<6} fail={cell['fail']:<4} "
            f"skipped={cell['skipped']}"
        )
    lines.append(f"  failures: {len(report['failures'])}")
    for failure in report["failures"][:20]:
        lines.append(f"    {failure}")
    return "\n".join(lines) + "\n"
