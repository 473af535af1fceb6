"""Reference figures that are not workloads: `check_coherence` on n
logically independent conditional events A_i|H, n = 4..7, with its LP
count and the share of traced time per layer.

    python3 perfbench/reference.py

The family is coherent, so the sweep visits all 2^n - 1 subfamilies.
Wall time is the median of three untraced calls; counts and shares come
from one traced call in a child process, so tracing adds nothing to the
untraced timings.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from run import BENCH_DIR, SRC

VALUES = [Fraction(k, k + 2) for k in range(1, 8)]  # 1/3, 2/4, ..., 7/9


def family(n: int):
    from coherekit import Assessment, AtomRegistry, conditional_event

    registry = AtomRegistry([f"A{i}" for i in range(n)] + ["H"])
    h = registry.atom("H")
    return Assessment(
        [
            (conditional_event(registry.atom(f"A{i}"), h, f"p{i}", registry=registry), VALUES[i])
            for i in range(n)
        ]
    )


def traced(n: int) -> dict:
    """LP count and per-layer share of self time for one traced call."""
    import tracing
    from coherekit import check_coherence

    tracer = tracing.Tracer()
    tracer.install()
    assessment = family(n)
    tracer.take()
    check_coherence(assessment)
    spans = tracer.take()
    lps = sum(1 for key in spans.key if tracer.keys[key][1] == "simplex_minimize")
    by_layer: dict[str, float] = {}
    for (layer, _), ms in tracer.self_ms(spans).items():
        by_layer[layer] = by_layer.get(layer, 0.0) + ms
    total = sum(by_layer.values())
    shares = {layer: round(ms / total, 3) for layer, ms in by_layer.items() if ms > 0}
    return {"lps": lps, "share": shares}


def main() -> None:
    sys.path.insert(0, str(SRC))
    from coherekit import check_coherence

    if len(sys.argv) == 3 and sys.argv[1] == "--traced":
        print(json.dumps(traced(int(sys.argv[2]))))
        return
    for n in range(4, 8):
        assessment = family(n)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            check_coherence(assessment)
            times.append(time.perf_counter() - start)
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "reference.py"), "--traced", str(n)],
            capture_output=True,
            text=True,
            check=True,
        )
        counts = json.loads(done.stdout)
        print(f"n={n}: {counts['lps']} LPs, {statistics.median(times):.3f} s, shares {counts['share']}")


if __name__ == "__main__":
    main()
