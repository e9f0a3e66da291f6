"""The four benchmark workloads, each a closed loop of one client.

A workload turns a seed into rounds of items.  Every round has the same
mix of item kinds and sizes, so rounds cost about the same on every seed,
while the seed changes the graphs, points and queries inside them.  A run
repeats rounds until the requested seconds have passed, always finishing
the round in progress, and empties the structure-constants cache at the
start of each round: peak memory then reflects one round, not how many
rounds a faster program fits into the run.

Importing this module imports lieposet; that import is part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from lieposet import algebra, formats, frobenius, harness, index_engine, posets

import graphs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HALF = Fraction(1, 2)


def tail(samples, cap):
    """(percentile, value) at the highest percentile of a fixed ladder, at
    most `cap`, that leaves at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 98, 95, 90, 80, 75, 50):
        rank = -(-pct * n // 100)
        if pct <= cap and n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered) if ordered else 0.0


# Time reference_work() takes on the machine running at full speed.  Times
# are reported at this speed: see Speed.
REFERENCE_S = 0.015


def reference_work():
    """Fixed pure-Python work in the program's style: Fractions, dicts and
    fraction-free integer row operations."""
    total = Fraction(0)
    counts = {}
    for i in range(1, 4500):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        key = (i % 61, i % 7)
        counts[key] = counts.get(key, 0) + i
    rows = [[(i * j + i) % 17 - 8 for j in range(20)] for i in range(20)]
    for k in range(19):
        lead = rows[k][k] or 1
        for i in range(k + 1, 20):
            head = rows[i][k]
            rows[i] = [a * lead - head * b for a, b in zip(rows[i], rows[k])]
    return total, len(counts), rows[-1][-1]


class Speed:
    """How slowly the shared machine ran, piece by piece.

    The speed of this machine swings by up to 2x within seconds, because
    other tenants share its cores.  A run cuts its timed section into
    segments (a round, a CLI query, or 8 posets of a campaign) and runs
    `work` between them, outside the timed time.  A segment's factor is the
    mean time of the runs on either side over `nominal_s`, the time `work`
    takes at full speed: 1.0 is full speed, 2.0 half speed.  A segment's
    time divided by its factor is its time at full speed.
    """

    def __init__(self, work=reference_work, nominal_s=REFERENCE_S):
        self.work = work
        self.nominal_s = nominal_s
        self.samples = []
        self.segment_factors = []
        self.item_segments = []  # segment index of every measured item
        self.raw_s = 0.0  # timed seconds
        self.full_speed_s = 0.0  # the same at full speed
        self._last = self.sample()

    def sample(self):
        begin = perf_counter()
        self.work()
        spent = perf_counter() - begin
        self.samples.append(spent)
        return spent

    def start(self):
        """Open a timed section; cut() splits it into segments."""
        self._section = [0.0, 0.0]
        self._mark = perf_counter()

    def cut(self, items):
        """End the current segment after measured item number `items`."""
        spent = perf_counter() - self._mark
        now = self.sample()
        factor = (self._last + now) / 2 / self.nominal_s
        self._last = now
        self.item_segments += [len(self.segment_factors)] * (items - len(self.item_segments))
        self.segment_factors.append(factor)
        self._section[0] += spent
        self._section[1] += spent / factor
        self._mark = perf_counter()

    def item_factors(self, window=5):
        """Per item, the median factor of the `window` segments around its
        own: one segment's two samples are too few for a single item."""
        half = window // 2
        smooth = [
            statistics.median(self.segment_factors[max(0, k - half):k + half + 1])
            for k in range(len(self.segment_factors))
        ]
        return [smooth[k] for k in self.item_segments]

    def stop(self, items):
        """Close the section; returns its (seconds, seconds at full speed)."""
        self.cut(items)
        self.raw_s += self._section[0]
        self.full_speed_s += self._section[1]
        return tuple(self._section)


def clear_cache():
    """Empty the structure-constants cache, through any tracing wrapper."""
    fn = algebra.structure_constants
    while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()


@dataclass
class Outcome:
    """What one pass over rounds measured, and which items went wrong."""

    latencies: list = field(default_factory=list)
    round_walls: list = field(default_factory=list)
    done: list = field(default_factory=list)  # (label, item) in run order
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # item label -> problem
    checks: list = field(default_factory=list)  # (name, ok, detail)
    speed: Speed = field(default_factory=Speed)
    full_speed_walls: list = field(default_factory=list)  # round_walls at full speed

    def merge(self, other):
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.checks += other.checks


class Workload:
    """Rounds of seeded items run one at a time; subclasses define items."""

    name = ""
    tail_cap = 95  # highest tail percentile reported, see tail()
    trace_rounds = 4  # fixed work of a traced run
    sample_every = None  # items between speed samples inside a round
    rusage_who = "self"

    def __init__(self, seed):
        self.seed = seed
        self.rounds = [self.make_round(r) for r in range(self.pregenerated)]

    def round_items(self, r):
        while len(self.rounds) <= r:
            self.rounds.append(self.make_round(len(self.rounds)))
        return self.rounds[r]

    def rng(self, r):
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def passes(self, out, seconds=None, rounds=None):
        """Closed loop over rounds until `seconds` elapse or `rounds` are done."""
        start = perf_counter()
        r = 0
        while True:
            clear_cache()
            out.speed.start()
            for label, item in self.round_items(r):
                t = perf_counter()
                try:
                    problem = self.run_item(item)
                except Exception as exc:  # a crash is a failed item, not a dead run
                    problem = f"{type(exc).__name__}: {exc}"
                out.latencies.append(perf_counter() - t)
                out.attempted += 1
                out.done.append((label, item))
                if problem:
                    out.failures[label] = problem
                if self.sample_every and out.attempted % self.sample_every == 0:
                    out.speed.cut(len(out.latencies))
            wall, full_speed = out.speed.stop(len(out.latencies))
            out.round_walls.append(wall)
            out.full_speed_walls.append(full_speed)
            r += 1
            done = perf_counter() - start
            if (rounds is not None and r >= rounds) or (seconds is not None and done >= seconds):
                break
        return out

    def run(self, seconds):
        return self.finish(self.passes(Outcome(speed=self.make_speed()), seconds=seconds))

    def make_speed(self):
        return Speed()

    def finish(self, out):
        """Checks over a whole pass, made outside any timed or traced section."""
        out.checks.append((self.verdict, not out.failures,
                           f"{len(out.failures)} of {out.attempted} items wrong"))
        return out

    def trace(self, tracer):
        """Fixed work untraced, then the same work traced; returns
        (per-layer extras, merged outcome)."""
        plain = self.passes(Outcome(speed=self.make_speed()), rounds=self.trace_rounds)
        tracer.install()
        try:
            traced = self.passes(Outcome(speed=self.make_speed()), rounds=self.trace_rounds)
        finally:
            tracer.uninstall()
        self.finish(plain)
        plain.merge(self.finish(traced))
        return overhead(plain.speed.full_speed_s, traced.speed.full_speed_s), plain

    def sizes(self):
        items = self.round_items(0)
        return {"items_per_round": len(items), "round_0": [label for label, _ in items]}


def overhead(untraced, traced):
    """Tracing overhead from the same work's time at full speed, both ways."""
    return {
        "trace.untraced_wall_s": untraced,
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }


# ---------------------------------------------------------------------------


class CampaignAcceptance(Workload):
    """run_campaign on the acceptance plan with every check, at jobs=1.

    One round is one whole campaign over 1,184 posets.  Per-poset latency
    comes from timing each harness.run_checks_on_poset call.
    """

    name = "campaign-acceptance"
    PLAN = (("C", 4), ("D", 4), ("B", 3))
    tail_cap = 99
    pregenerated = 0
    sample_every = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.cfg = harness.CampaignConfig(plan=self.PLAN, seed=seed, trials=5, jobs=1)
        self.campaigns = 0

    def sizes(self):
        counts = {}
        for family, n_max in self.PLAN:
            for n in range(1, n_max + 1):
                slots = n * (n - 1) // 2 + (n if family == "C" else 0)
                counts[f"{family}{n}"] = 1 << slots
        return {"plan": [list(p) for p in self.PLAN], "posets": counts,
                "posets_total": sum(counts.values()), "checks": len(harness.CHECKS)}

    def campaign(self, out, cfg):
        """One campaign; returns its report bytes, or None if it raised."""
        clear_cache()
        total = self.sizes()["posets_total"]
        tag = f"c{self.campaigns}/j{cfg.jobs}"
        self.campaigns += 1
        report = payload = error = None
        out.speed.start()
        try:
            report = harness.run_campaign(cfg)
            payload = harness.report_json_bytes(report)
        except Exception as exc:  # the whole campaign is lost
            error = exc
        wall, full_speed = out.speed.stop(len(out.latencies))
        out.round_walls.append(wall)
        out.full_speed_walls.append(full_speed)
        if error is not None:
            out.attempted += total
            for k in range(total):
                out.failures[f"{tag}:{k}"] = repr(error)
            return None
        out.attempted += sum(report["posets"].values())
        for failure in report["failures"]:
            p = failure["poset"]
            out.failures[f"{tag}:{p['family']}{p['n']}:{p['mask']}"] = failure["check"]
        for check, cell in report["summary"].items():
            if cell.get("pass", 0) + cell.get("skipped", 0) != total:
                out.failures[f"{tag}:summary:{check}"] = f"{cell} over {total} posets"
        return payload

    @contextmanager
    def timed_posets(self, out):
        """Time every harness.run_checks_on_poset call and sample the
        machine's speed every `sample_every` posets."""
        inner = harness.run_checks_on_poset
        latencies = out.latencies

        def timed(*args, **kwargs):
            begin = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(perf_counter() - begin)
                if len(latencies) % self.sample_every == 0:
                    out.speed.cut(len(latencies))

        harness.run_checks_on_poset = timed
        try:
            yield
        finally:
            harness.run_checks_on_poset = inner

    def run(self, seconds):
        out = Outcome()
        digests = []
        start = perf_counter()
        with self.timed_posets(out):
            while True:
                payload = self.campaign(out, self.cfg)
                digests.append(payload and hashlib.sha256(payload).hexdigest())
                if perf_counter() - start >= seconds:
                    break
        out.checks.append(("report_sha256_stable", len(set(digests)) == 1 and digests[0] is not None,
                           f"{len(digests)} campaign(s), sha256 {digests[0]}"))
        out.checks.append(("failures_empty", not out.failures, f"{len(out.failures)} failing posets"))
        return out

    def trace(self, tracer):
        plain, traced, pooled = Outcome(), Outcome(), Outcome()
        with self.timed_posets(plain):
            plain_bytes = self.campaign(plain, self.cfg)
        tracer.install()
        try:
            with self.timed_posets(traced):
                traced_bytes = self.campaign(traced, self.cfg)
        finally:
            tracer.uninstall()
        j2 = harness.CampaignConfig(plan=self.PLAN, seed=self.seed, trials=5, jobs=2)
        pooled_bytes = self.campaign(pooled, j2)
        plain.merge(traced)
        plain.merge(pooled)
        same = plain_bytes is not None and plain_bytes == traced_bytes == pooled_bytes
        plain.checks.append(("report_bytes_equal_traced_and_jobs2", same,
                             f"sha256 {plain_bytes and hashlib.sha256(plain_bytes).hexdigest()}"))
        plain.checks.append(("failures_empty", not plain.failures,
                             f"{len(plain.failures)} failing posets"))
        jobs1, jobs2 = plain.full_speed_walls[0], pooled.full_speed_walls[0]
        extras = overhead(jobs1, traced.full_speed_walls[0])
        extras["harness.pool.speedup_j2"] = jobs1 / jobs2
        return extras, plain


# ---------------------------------------------------------------------------


class FrobeniusSolve(Workload):
    """frobenius_functional -> kernel_dim -> principal_element -> spectrum.

    Each round holds one seeded Frobenius relation graph of every family
    and size below; every component is unicyclic with an odd cycle.
    """

    name = "frobenius-solve"
    PROFILE = tuple(
        [("C", n) for n in range(6, 15)]
        + [("D", n) for n in range(6, 13)]
        + [("B", n) for n in range(5, 11)]
    )
    pregenerated = 40
    verdict = "kernel_0_mirrored_half_diagonal_binary_spectrum"

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for family, n in self.PROFILE:
            edges, loops = graphs.frobenius_graph(rng, family, n)
            items.append((f"r{r}:{family}{n}", (family, n, edges, loops)))
        return items

    def run_item(self, item):
        family, n, edges, loops = item
        P = posets.poset_from_graph(family, n, edges, loops)
        F = frobenius.frobenius_functional(P)
        dim = frobenius.kernel_dim(P, F)
        if dim != 0:
            return f"kernel dimension {dim}"
        element = frobenius.principal_element(P, F)
        if element.diagonal is None:
            return "principal element is not diagonal"
        diag = dict(element.diagonal)
        if diag.get(0, 0) != 0 or any(
            abs(diag[e]) != HALF or diag[e] != -diag[-e] for e in range(1, n + 1)
        ):
            return f"diagonal is not a mirrored +-1/2: {diag}"
        report = frobenius.spectrum(P, element)
        if not report.is_binary:
            return f"spectrum is not binary: {report.zero_count} zeros, {report.one_count} ones"
        return None


class ReductionCycles(Workload):
    """index_engine.reduce on connected type-C graphs of three kinds.

    Bipartite graphs take one even-cycle step per chord, and each step
    enumerates every simple cycle again; dense graphs with an odd cycle
    search cycles once and then move loops; looped graphs never search.
    Sizes keep every item well under a second (K6,6 alone takes seconds).
    """

    name = "reduction-cycles"
    # (kind, vertices, chords over a spanning tree)
    PROFILE = (
        ("bipartite", 10, 12), ("bipartite", 11, 12), ("bipartite", 12, 12),
        ("odd", 8, 12), ("odd", 10, 12), ("odd", 12, 12),
        ("looped", 8, 6), ("looped", 10, 6), ("looped", 12, 6),
    )
    LOOPS = 2
    pregenerated = 80
    verdict = "constant_rank_final_rank_V_or_V_minus_1"

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for kind, n, chords in self.PROFILE:
            if kind == "bipartite":
                edges, loops = graphs.bipartite_graph(rng, n, chords)
            elif kind == "odd":
                edges, loops = graphs.odd_graph(rng, n, chords)
            else:
                edges, loops = graphs.looped_graph(rng, n, chords, self.LOOPS)
            expected = n if graphs.has_odd_cycle(n, edges, loops) else n - 1
            seed = rng.randrange(2**31)
            items.append((f"r{r}:{kind}{n}", (n, edges, loops, seed, expected)))
        return items

    def run_item(self, item):
        n, edges, loops, seed, expected = item
        P = posets.poset_from_graph("C", n, edges, loops)
        trace = index_engine.reduce(P, seed=seed)
        if len(set(trace.ranks)) != 1:
            return f"rank changed along the reduction: {trace.ranks}"
        if trace.final_rank != expected:
            return f"final rank {trace.final_rank}, expected {expected}"
        return None


# ---------------------------------------------------------------------------


def _cli_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIEPOSET")}
    env["PYTHONPATH"] = str(SRC)
    return env


# Time `python -c pass` takes on the machine running at full speed.
BARE_INTERPRETER_S = 0.045


def bare_interpreter():
    subprocess.run([sys.executable, "-c", "pass"], env=_cli_env(), check=True)


class CliColdQuery(Workload):
    """Sequential `python -m lieposet.cli ...` processes, one query each.

    A round is one query of each kind on seeded posets with n <= 4.  The
    output check compares each JSON answer with the library's own result,
    computed in this process after the timed section.
    """

    name = "cli-cold-query"
    KINDS = ("index", "frobenius", "principal", "spectrum", "reduce", "export")
    tail_cap = 75
    trace_rounds = 10
    sample_every = 1
    verdict = "exit_0_and_json_equals_library"
    rusage_who = "children"
    pregenerated = 40
    PROBES = 5

    def __init__(self, seed):
        super().__init__(seed)
        self.answers = {}
        self.runner = None  # a click CliRunner while queries run in-process

    def make_speed(self):
        """A query process is mostly interpreter start-up, which the
        in-process reference loop tracks poorly; a bare interpreter tracks it."""
        if self.runner:
            return Speed()
        return Speed(bare_interpreter, BARE_INTERPRETER_S)

    def _any_graph(self, rng):
        family = rng.choice("CDB")
        n = rng.randint(2, 3 if family == "B" else 4)
        edges = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                      if rng.random() < 0.5)
        loops = tuple(v for v in range(1, n + 1) if family == "C" and rng.random() < 0.3)
        return family, n, edges, loops

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for kind in self.KINDS:
            seed = rng.randrange(1000)
            if kind in ("principal", "spectrum"):
                family = rng.choice("CDB")
                n = {"C": rng.randint(1, 4), "D": rng.randint(3, 4), "B": 3}[family]
                edges, loops = graphs.frobenius_graph(rng, family, n)
            elif kind == "reduce":
                family, n = "C", rng.randint(2, 4)
                edges, loops = graphs.looped_graph(rng, n, rng.randint(0, 2), rng.randint(0, 2))
            else:
                family, n, edges, loops = self._any_graph(rng)
            query = (kind, family, n, edges, loops, seed)
            items.append((f"r{r}:{kind}", query))
        return items

    @staticmethod
    def argv(query):
        kind, family, n, edges, loops, seed = query
        args = [kind, "--poset", graphs.inline_poset(family, n, edges, loops), "--format", "json"]
        if kind == "index":
            args += ["--method", "both", "--seed", str(seed)]
        elif kind == "frobenius":
            args += ["--check-oracle", "--seed", str(seed)]
        elif kind == "reduce":
            args += ["--seed", str(seed)]
        elif kind == "export":
            args += ["--what", "structure-constants"]
        return args

    def run_item(self, query):
        if self.runner:
            from lieposet import cli

            unset = {k: None for k in os.environ if k.startswith("LIEPOSET")}
            result = self.runner.invoke(cli.main, self.argv(query), env=unset)
            self.answers[query] = result.output
            return f"exit {result.exit_code}" if result.exit_code else None
        proc = subprocess.run(
            [sys.executable, "-m", "lieposet.cli", *self.argv(query)],
            capture_output=True, text=True, env=_cli_env(), timeout=60,
        )
        self.answers[query] = proc.stdout
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        return None

    def expected(self, query):
        """The library's answer to a query, as the CLI documents it."""
        kind, family, n, edges, loops, seed = query
        P = posets.poset_from_graph(family, n, edges, loops)
        trials = index_engine.ORACLE_TRIALS
        if kind == "index":
            f = index_engine.index_formula(P)
            o = index_engine.index_oracle(P, trials=trials, seed=seed)
            return {"seed": seed, "trials": trials, "formula": f, "oracle": o,
                    "agreement": f == o}
        if kind == "frobenius":
            by_graph = frobenius.is_frobenius_by_graph(P)
            o = index_engine.index_oracle(P, trials=trials, seed=seed)
            return {"frobenius": by_graph, "oracle_index": o, "seed": seed,
                    "agreement": (o == 0) == by_graph}
        if kind == "reduce":
            trace = index_engine.reduce(P, seed=seed)
            expected = n if graphs.has_odd_cycle(n, edges, loops) else n - 1
            if len(set(trace.ranks)) != 1 or trace.final_rank != expected:
                raise ValueError(f"reduction ranks {trace.ranks}, expected {expected}")
            return formats.reduction_trace_json_obj(trace)
        if kind == "export":
            return formats.structure_constants_json_obj(P)
        F = frobenius.frobenius_functional(P)
        element = frobenius.principal_element(P, F)
        if kind == "spectrum":
            return formats.spectrum_json_obj(frobenius.spectrum(P, element))
        obj = formats.principal_element_json_obj(element)
        obj["kernel_dim"] = frobenius.kernel_dim(P, F)
        return obj

    def verify(self, query):
        """None when the CLI printed the library's answer and it is a true verdict."""
        want = json.loads(json.dumps(self.expected(query), sort_keys=True))
        got = json.loads(self.answers[query])
        if got != want:
            return "JSON differs from the library result"
        if want.get("agreement") is False:
            return "formula and oracle disagree"
        if want.get("kernel_dim", 0) != 0 or want.get("is_binary") is False:
            return "not a Frobenius verdict"
        return None

    def finish(self, out):
        for label, query in out.done:
            if label not in out.failures:
                try:
                    problem = self.verify(query)
                except Exception as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    out.failures[label] = problem
        return super().finish(out)

    def trace(self, tracer):
        """Start-up probes, then the first rounds' queries in-process through
        click's CliRunner, untraced and traced."""
        from click.testing import CliRunner

        def probe(code):
            times = []
            for _ in range(self.PROBES):
                begin = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True)
                times.append(perf_counter() - begin)
            return statistics.median(times)

        bare = probe("pass")
        imported = probe("import lieposet.cli")
        self.runner = CliRunner()
        try:
            extras, out = super().trace(tracer)
        finally:
            self.runner = None
        extras["cli.python_start_ms"] = bare * 1e3
        extras["cli.import_ms"] = (imported - bare) * 1e3
        extras["cli.command_ms"] = statistics.median(out.latencies) * 1e3
        return extras, out


WORKLOADS = {
    w.name: w for w in (CampaignAcceptance, FrobeniusSolve, ReductionCycles, CliColdQuery)
}
