"""Exhaustive verification campaigns over small poset corpora.

A campaign enumerates every height-(0,0)/(0,1) poset of the configured
families (one per labeled relation graph, identified by its slot bitmask)
and runs each enabled check.  A check returns None on a pass, SKIPPED
where it does not apply and a witness dict on a failure, so a pass or a
skip builds no witness.  Outcomes are counted as they arrive and only
failures are kept: memory does not grow with the plan, and the JSON
report is byte identical across runs and worker counts.

No check draws a random number.  Every poset the campaign ranks, whole
or a component, is of the paper's class, whose rank is proved on the H
block and draws no trial point: one function, `_class_index`, computes
such an index and raises InvariantViolation on a sampled rank.  The
reduction replay runs at the default point of its body,
`index_engine._replay`, builds no snapshot, and starts from the rank
the poset's oracle proved; on the class it ends at the same rank at
every nonzero point.  So every outcome depends on the poset alone; the
configured seed and trials are only echoed in the report.

Derived objects are shared at two scopes.  A CheckContext holds what one
poset's checks share: its index, its Frobenius functional and its
principal element.  The campaign shares the index of each component
subposet across posets through `_component_index`, an lru_cache keyed by
the component after the order-preserving relabelling onto 1..k; an
exception is not cached.
Each distinct component is built and ranked once per campaign:
`run_campaign` empties the cache before it starts, so a campaign, and
each worker it forks, starts empty.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache

from . import ORACLE_TRIALS
from .algebra import structure_constants, verify_B_reduction, verify_CD_isomorphism
from .errors import InvariantViolation
from .frobenius import (
    frobenius_functional,
    is_frobenius_by_graph,
    kernel_dim,
    principal_element,
    spectrum,
)
from .index_engine import _replay, generic_rank, index_formula
from .posets import (
    MAX_N,
    SIGNED_FAMILIES,
    h01_slots,
    poset_from_graph,
    poset_from_mask,
    rg_connected,
)

# a check's outcome where it does not apply; pooled outcomes are pickled: test with ==
SKIPPED = "skipped"

# posets per pool task: a constant, so that the results a chunk holds in
# a worker and in the parent do not grow with the plan
POOL_CHUNK = 32


@dataclass(frozen=True)
class CampaignConfig:
    """What to enumerate and how: ((family, n_max), ...), checks, jobs.

    A plan family outside B/C/D or repeated, checks given as one string,
    a repeated or unknown check, an n_max or jobs that is not an int,
    n_max below 1 or above posets.MAX_N, and trials or jobs below 1
    raise ValueError, before any poset runs.  No check reads seed or
    trials: the report only echoes them.  They stay as fields because
    the bench builds its configs with them; ROADMAP item 14 removes them
    together with the bench's use.
    """

    plan: tuple = (("C", 3), ("D", 3), ("B", 2))
    checks: tuple = ()  # empty means all registered checks
    seed: int = 0
    trials: int = ORACLE_TRIALS
    jobs: int = 1

    def __post_init__(self):
        families = [family for family, _ in self.plan]
        for family, n_max in self.plan:
            if family not in SIGNED_FAMILIES:
                raise ValueError(f"family {family!r} is not one of B, C, D")
            if families.count(family) > 1:
                raise ValueError(f"family {family!r} appears more than once in the plan")
            if type(n_max) is not int:
                raise ValueError(f"n_max of family {family!r} must be an integer, got {n_max!r}")
            if n_max < 1:
                raise ValueError(f"n_max of family {family!r} must be >= 1, got {n_max}")
            if n_max > MAX_N:
                raise ValueError(
                    f"n_max of family {family!r} must be <= {MAX_N}, got {n_max}"
                )
        # a string would be read as one check per character
        if isinstance(self.checks, str):
            raise ValueError(f"checks must be a sequence of names, got {self.checks!r}")
        for name in self.checks:
            if self.checks.count(name) > 1:
                raise ValueError(f"check {name!r} appears more than once")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if type(self.jobs) is not int:
            raise ValueError(f"jobs must be an integer, got {self.jobs!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        unknown = [name for name in self.checks if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")

    def enabled_checks(self):
        return self.checks or tuple(CHECKS)


@dataclass(frozen=True)
class CheckContext:
    """The memo of one poset's checks.

    Build one per poset: the memo holds the index of the poset, its
    Frobenius functional and its principal element, or the exception one
    raised, which each later reader gets again.
    """

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
        """`_class_index(P)`, computed once."""
        return self._once(("oracle", P), lambda: _class_index(P))

    def functional(self, P):
        """`frobenius_functional(P)`, built once."""
        return self._once(("functional", P), lambda: frobenius_functional(P))

    def principal(self, P):
        """principal_element of the Frobenius functional of P, computed once."""
        return self._once(
            ("principal", P), lambda: principal_element(P, self.functional(P))
        )


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


def _class_index(P):
    """The index of P, a poset of the paper's class: dim minus the rank of
    its structure-constant table.

    The table of such a poset scales diagonally, so `generic_rank` proves
    the rank on the H block and draws no trial point; a sampled rank
    raises InvariantViolation naming P.
    """
    basis, table = structure_constants(P)
    rank, sampled = generic_rank((basis, table))
    if sampled:
        raise InvariantViolation(f"the rank of class poset {P!r} was sampled")
    return len(basis) - rank


# the plan C:5,D:5,B:4 has 690 distinct components
@lru_cache(maxsize=1024)
def _component_index(key):
    """The index of the component subposet with this `_component_keys` key."""
    return _class_index(poset_from_graph(*key))


def check_dimension_formula(P, ctx):
    G = P.relation_graph
    basis, _ = structure_constants(P)
    expected = G.n + G.edge_count
    return None if len(basis) == expected else {"dim": len(basis), "expected": expected}


def check_formula_vs_oracle(P, ctx):
    f = index_formula(P)
    o = ctx.oracle(P)
    return None if f == o else {"formula": f, "oracle": o}


def check_disjoint_additivity(P, ctx):
    G = P.relation_graph
    comps = G.components
    if len(comps) == 1 and P.family != "B":
        # one component spans every vertex, so it induces P itself; in
        # family B the induced subposet would drop 0 and be of type D
        total = ctx.oracle(P)
    else:
        total = sum(map(_component_index, _component_keys(P, G, comps)))
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
    # _solve_kirillov keeps the last (P, F), so the principal element
    # the next two checks share, on the same functional, does not
    # eliminate the form again
    dim = kernel_dim(P, ctx.functional(P))
    return None if dim == 0 else {"kernel_dim": dim}


def check_principal_element(P, ctx):
    if not is_frobenius_by_graph(P):
        return SKIPPED
    element = ctx.principal(P)
    if element.diagonal is None:
        return {"reason": "principal element not diagonal"}
    # a diagonal element is a combination of the H elements, and this
    # convention fixes each coefficient at 1/2: the element is h-hat
    if element.half_convention == "negatives-plus-half":
        return None
    return {"convention": element.half_convention}


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
    G = P.relation_graph
    # the replay's instantiated block is -B0^T scaled by the nonzero
    # values of its point, and a diagonal scaling keeps the rank (the
    # argument in generic_rank's docstring): its start rank is rank B0,
    # half the rank the oracle proved on the H block
    basis, _ = structure_constants(P)
    final_rank, steps = _replay(P, (len(basis) - ctx.oracle(P)) // 2)
    has_odd = any(c.has_odd_cycle for c in G.components)
    expected = G.n if has_odd else G.n - 1
    if final_rank == expected:
        return None
    return {"final_rank": final_rank, "expected": expected, "steps": steps}


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


def run_checks_on_poset(family, n, mask, checks):
    """One outcome per check, in order: None, SKIPPED or a failure object."""
    P = poset_from_mask(family, n, mask)
    ctx = CheckContext()
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
        (family, n, mask, checks)
        for family, n, size in sizes
        for mask in range(size)
    )
    # no more workers than posets or CPUs: one more would sit idle
    jobs = min(cfg.jobs, total, os.cpu_count() or 1)
    _component_index.cache_clear()
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
