"""Seeded inputs and operations of the three benchmark workloads.

A workload turns a seed into a pool of rounds.  Every round holds the same
kinds of operation in the same order, so any number of whole rounds has
the same mix; only the seeded values differ from round to round.  The pool
is sized so that one pass takes about 30 s on the 2-core machine the
benchmark was defined on.  coherekit is imported inside each workload
function, after the runner has started its set-up clock and, in a traced
run, installed its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import checks

# Denominators of the seeded values: mixed, small enough that every value
# stays a short rational, as in hand-written assessments.
DENOMINATORS = tuple(range(2, 13))


@dataclass(frozen=True)
class Op:
    """One timed call into coherekit and the check of its output."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


class Dealer:
    """Seeded rationals strictly between 0 and 1 whose denominators are
    dealt from shuffled decks of DENOMINATORS.

    Dealing every denominator once per deck, with a numerator prime to it,
    gives every seed the same denominators.  On mp_extend over five seeds
    this cut the spread of ops_per_s from 20 % to 13 %; one seed run five
    times spreads 8 %, which is the machine's own share."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.deck: list[int] = []

    def interior(self) -> Fraction:
        if not self.deck:
            self.deck = list(DENOMINATORS)
            self.rng.shuffle(self.deck)
        d = self.deck.pop()
        return Fraction(self.rng.choice([k for k in range(1, d) if gcd(k, d) == 1]), d)


def quarter_step(lo: Fraction, hi: Fraction, k: int) -> Fraction:
    return lo + (hi - lo) * Fraction(k, 4)


# -- mp_extend --------------------------------------------------------------

MP_ROUNDS = 6


def mp_extend(seed: int, workdir: Path) -> list[list[Op]]:
    """Per round one pair 0 < x, y < 1 for each of the eleven denominators
    of x (and of y): the extension interval of P(C) from
    {A|H = x, C|(A|H) = y}, and its classical twin (H sure)."""
    from coherekit import propagation

    dealer = Dealer(random.Random(seed))
    rounds = []
    for _ in range(MP_ROUNDS):
        ops = []
        xs = [dealer.interior() for _ in DENOMINATORS]
        ys = [dealer.interior() for _ in DENOMINATORS]
        for (x, y), classical in itertools.product(zip(xs, ys), (False, True)):

            def call(x=x, y=y, classical=classical):
                premises, target = propagation.mp_family(x, y, classical=classical)
                return propagation.extension_interval(premises, target)

            def check(interval, x=x, y=y):
                return checks.check_interval(x, y, interval.lower, interval.upper)

            ops.append(Op("classical" if classical else "nested", call, check))
        rounds.append(ops)
    return rounds


# -- family_sweep -----------------------------------------------------------

SWEEP_ROUNDS = 10
SWEEP_ATOMS = 5
# Seven coherent families and one of each witness shape per round.
SWEEP_KINDS = ("coherent",) * 7 + ("witness-0n", "witness-1n", "witness-01n")


def stratified(rng: random.Random, n: int) -> list[Fraction]:
    """n seeded values, one from each n-th of (0, 1), in seeded order.

    The pivots a coherence check takes depend on where the values lie;
    drawing one value per stratum halves their spread from family to
    family (sd/mean 0.17 -> 0.09 over 30 families), so the medians of a
    run depend less on the seed."""
    values = []
    for i in range(n):
        lo, hi = Fraction(i, n), Fraction(i + 1, n)
        while True:
            d = rng.choice(DENOMINATORS)
            choices = [Fraction(k, d) for k in range(1, d) if lo <= Fraction(k, d) < hi]
            if choices:
                values.append(rng.choice(choices))
                break
    rng.shuffle(values)
    return values


def family_values(rng: random.Random, kind: str) -> tuple[list[Fraction], Fraction]:
    """Values p_0..p_4 of A_i|H and z of (A0|H) ∧ (A1|H) whose closed-form
    verdict is `kind`; reshuffled until the shape is possible."""
    ps = stratified(rng, SWEEP_ATOMS)
    while True:
        lo, hi = checks.frechet(ps[0], ps[1])
        if kind == "coherent":
            return ps, quarter_step(lo, hi, rng.randint(0, 4))
        if kind == "witness-0n":
            return ps, quarter_step(ps[0], Fraction(1), rng.randint(1, 4))
        if kind == "witness-1n" and ps[1] < ps[0]:
            return ps, quarter_step(ps[1], ps[0], rng.randint(1, 4))
        if kind == "witness-01n" and lo > 0:
            return ps, quarter_step(Fraction(0), lo, rng.randint(0, 3))
        rng.shuffle(ps)


def sweep_family(ps: list[Fraction], z: Fraction):
    """{A_i|H = p_i} on independent atoms plus the conjunction
    (A0|H) ∧ (A1|H) = z: six members over 64 worlds, 32 of them live."""
    from coherekit import coherence, crq, events

    registry = events.AtomRegistry([f"A{i}" for i in range(len(ps))] + ["H"])
    h = registry.atom("H")
    members = [
        crq.conditional_event(registry.atom(f"A{i}"), h, f"p{i}", registry=registry)
        for i in range(len(ps))
    ]
    both = crq.conjunction(members[0], members[1], "z")
    return coherence.Assessment(list(zip(members, ps)) + [(both, z)])


def family_sweep(seed: int, workdir: Path) -> list[list[Op]]:
    from coherekit import coherence

    rng = random.Random(seed)
    rounds = []
    for _ in range(SWEEP_ROUNDS):
        ops = []
        for kind in SWEEP_KINDS:
            ps, z = family_values(rng, kind)
            assessment = sweep_family(ps, z)
            n = len(ps)

            def call(assessment=assessment):
                return coherence.check_coherence(assessment)

            def check(result, ps=ps, z=z, n=n):
                return checks.check_family(ps, z, n, result.coherent, result.witness)

            ops.append(Op(kind, call, check))
        rounds.append(ops)
    return rounds


# -- documents --------------------------------------------------------------

DOC_ROUNDS = 18

TEMPLATES = {
    "nested": (
        "atoms A C H\n"
        "assess P(A given H) = {0}\n"
        "assess P(C given (A given H)) = {1}\n"
        "assess P(C given (!A given H)) = {2}\n"
    ),
    "product": (
        "atoms A B H K\n"
        "assess P(A given H) = {0}\n"
        "assess P((B given K) given (A given H)) = {1}\n"
        "assess P((A given H) and (B given K)) = {2}\n"
    ),
    "frechet": (
        "atoms A B H\n"
        "assess P(A given H) = {0}\n"
        "assess P(B given H) = {1}\n"
        "assess P(A & B given H) = {2}\n"
    ),
    "mp": (
        "atoms A C H\n"
        "assess P(A given H) = {0}\n"
        "assess P(C given (A given H)) = {1}\n"
        "query extend C\n"
    ),
}

# Four of the nine documents of a round are incoherent.  Every document
# gets one cheap `check` and one dearer `dutchbook`, so the median lies at
# the lower edge of the dutchbooks; each MP document adds a dear `extend`,
# and two of them move the median off the boundary between the groups.
DOC_KINDS = (
    ("nested", "coherent"),
    ("nested", "out-of-range"),
    ("product", "coherent"),
    ("product", "off-product"),
    ("frechet", "coherent"),
    ("frechet", "above-upper"),
    ("frechet", "below-lower"),
    ("mp", "coherent"),
    ("mp", "coherent"),
)


def document_values(dealer: Dealer, template: str, kind: str) -> list[Fraction]:
    rng = dealer.rng
    while True:
        a, b = dealer.interior(), dealer.interior()
        if template == "nested":
            c = dealer.interior()
            return [a, b, c if kind == "coherent" else 1 + c]
        if template == "product":
            z = a * b if kind == "coherent" else dealer.interior()
            if kind == "coherent" or z != a * b:
                return [a, b, z]
        elif template == "frechet":
            lo, hi = checks.frechet(a, b)
            if kind == "coherent":
                return [a, b, quarter_step(lo, hi, rng.randint(0, 4))]
            if kind == "above-upper":
                return [a, b, quarter_step(hi, Fraction(1), rng.randint(1, 4))]
            if lo > 0:
                return [a, b, quarter_step(Fraction(0), lo, rng.randint(0, 3))]
        else:
            return [a, b]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`cohere ARGV` in-process; returns the exit code and standard output."""
    from coherekit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def command_check(template: str, values: list[Fraction], command: str):
    def check(result) -> bool:
        code, text = result
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        return checks.check_command(template, values, command, code, payload)

    return check


def documents(seed: int, workdir: Path) -> list[list[Op]]:
    """Per round nine seeded documents written to `workdir`, each run
    through `cohere check` and `cohere dutchbook`, the MP ones also through
    `cohere extend`."""
    from coherekit import cli  # noqa: F401  (at set-up, not in the first command)

    dealer = Dealer(random.Random(seed))
    rounds = []
    for r in range(DOC_ROUNDS):
        ops = []
        for i, (template, kind) in enumerate(DOC_KINDS):
            values = document_values(dealer, template, kind)
            path = workdir / f"r{r:03d}-{i}-{template}-{kind}.cohere"
            path.write_text(TEMPLATES[template].format(*values), encoding="utf-8")
            commands = ["check", "dutchbook"] + (["extend"] if template == "mp" else [])
            for command in commands:
                argv = [command, str(path), "--json"]
                ops.append(
                    Op(
                        f"{template}-{kind}-{command}",
                        lambda argv=argv: run_cli(argv),
                        command_check(template, values, command),
                    )
                )
        rounds.append(ops)
    return rounds


WORKLOADS = {
    "mp_extend": mp_extend,
    "family_sweep": family_sweep,
    "documents": documents,
}
