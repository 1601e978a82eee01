"""One benchmark phase in a fresh interpreter.

``python3 perfbench/child.py SPEC`` where SPEC is a JSON object written by
``run.py``.  The child imports cyclewall from the checkout's ``src``, loads the
presentation (the end of set-up), builds its inputs, runs the timed work,
checks what it can with the benchmark's own code, and prints one JSON line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


# -- word_stream inputs and checks (the benchmark's own code) -----------------


def _text(word) -> str:
    return " ".join(f"v{v}:{x}" for v, x in word)


def _lengths(k: int, lo: int, hi: int) -> int:
    """Stratified lengths: request k gets lo, lo+1, ..., hi, lo, ... in turn."""
    return lo + k % (hi - lo + 1)


def _commute(n: int, a: int, b: int) -> bool:
    return (a - b) % n in (1, n - 1)


def _free_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if not _commute(n, i, j)]


def _projection(p, word, pairs) -> tuple:
    """Images of ``word`` under the retractions onto ``G_i * G_j`` for the
    non-adjacent pairs: each is a homomorphism to a free product, whose
    normal form is the stack-reduced word."""
    out = []
    for i, j in pairs:
        stack: list[tuple[int, int]] = []
        for v, x in word:
            if v != i and v != j:
                continue
            if stack and stack[-1][0] == v:
                y = p.group(v).mul(stack.pop()[1], x)
                if y:
                    stack.append((v, y))
            else:
                stack.append((v, x))
        out.append(tuple(stack))
    return tuple(out)


def _perturb(p, word, rng, moves: int = 3) -> list[tuple[int, int]]:
    """Apply elementary moves that keep the group element: swap commuting
    neighbours, split a syllable, insert a cancelling pair."""
    n = p.n
    w = list(word)
    for _ in range(moves):
        kind = rng.randrange(3)
        if kind == 0:
            spots = [k for k in range(len(w) - 1) if _commute(n, w[k][0], w[k + 1][0])]
            if spots:
                k = rng.choice(spots)
                w[k], w[k + 1] = w[k + 1], w[k]
        elif kind == 1 and w:
            k = rng.randrange(len(w))
            v, x = w[k]
            group = p.group(v)
            y = rng.choice(list(group.nontrivial_elements()))
            z = group.mul(group.inv(y), x)
            w[k:k + 1] = [(v, y)] + ([(v, z)] if z else [])
        else:
            k = rng.randrange(len(w) + 1)
            v = rng.randrange(n)
            group = p.group(v)
            y = rng.choice(list(group.nontrivial_elements()))
            w[k:k] = [(v, y), (v, group.inv(y))]
    return w


def _syllables_of(g) -> list[tuple[int, int]]:
    return [(s.vertex, s.value) for s in g.word]


def _inverse(p, word) -> list[tuple[int, int]]:
    return [(v, p.group(v).inv(x)) for v, x in reversed(word)]


def reduce_inputs(cw, p, spec):
    rng = random.Random(spec["seed"])
    syllables = [(s.vertex, s.value) for s in p.syllables()]
    lo, hi = spec["lengths"]
    requests = []
    for k in range(spec["count"]):
        raw = [rng.choice(syllables) for _ in range(_lengths(k, lo, hi))]
        i = rng.randrange(p.n)
        requests.append((raw, _text(raw), frozenset({i, (i + 1) % p.n})))
    return requests


def reduce_run(cw, p, spec, requests, clock):
    """Each request: parse and print a canonical form; every ``pair_every``-th
    request then runs mul, inv, coset_rep and cyclic_reduce on its product
    with the previous element."""
    latencies, results = [], []
    prev = None
    for k, (_raw, text, window) in enumerate(requests):
        t0 = clock()
        g = cw.parse_word(p, text)
        form = cw.format_word(g)
        latencies.append(clock() - t0)
        pair = None
        if k and k % spec["pair_every"] == 0:
            h = cw.mul(prev, g)
            pair = (h, cw.inv(h), cw.coset_rep(h, window), cw.cyclic_reduce(h))
        results.append((g, form, pair))
        prev = g
    return latencies, results


def reduce_check(cw, p, spec, requests, results) -> dict:
    rng = random.Random(f"perturb-{spec['seed']}")
    pairs = _free_pairs(p.n)
    bad, digests = [], []
    for k, ((raw, _, window), (g, form, pair)) in enumerate(zip(requests, results)):
        parts = [form]
        try:
            ok = _projection(p, raw, pairs) == _projection(p, _syllables_of(g), pairs)
            again = cw.format_word(cw.parse_word(p, _text(_perturb(p, raw, rng))))
            ok = ok and again == form
            if pair is not None:
                h, hi, rep, (core, conj) = pair
                parts += [cw.format_word(x) for x in (h, hi, rep, core, conj)]
                c = _syllables_of(conj)
                ok = (ok and _projection(p, requests[k - 1][0] + raw, pairs)
                      == _projection(p, _syllables_of(h), pairs)
                      == _projection(p, c + _syllables_of(core) + _inverse(p, c), pairs)
                      and cw.mul(h, hi).is_identity
                      and cw.coset_rep(rep, window) == rep)
        except Exception:   # a raised check is a miss, like a wrong answer
            ok = False
        if not ok:
            bad.append(k)
        digests.append(hashlib.sha256("|".join(parts).encode()).hexdigest()[:12])
    return {"requests": len(requests), "bad": bad, "digests": digests}


def decompose_inputs(cw, p, spec):
    from cyclewall.autgroup import enumerate_loc
    rng = random.Random(spec["seed"])
    syllables = [(s.vertex, s.value) for s in p.syllables()]
    loc = enumerate_loc(p)
    lo, hi = spec["lengths"]
    auts = []
    for k in range(spec["count"]):
        length = _lengths(k, lo, hi)
        while True:
            g = cw.parse_word(p, _text(rng.choice(syllables)
                                       for _ in range(2 * length)))
            if g.syllable_length >= length:
                break
        inner = cw.reduce_word(p, g.word[:length])
        auts.append(cw.AutElement(inner, rng.choice(loc)))
    return auts


def decompose_run(cw, p, spec, auts, clock):
    from cyclewall import autgroup
    latencies, results = [], []
    for a in auts:
        t0 = clock()
        try:
            got = autgroup.aut_decompose(p, autgroup.generator_images(a))
        except cw.CycleWallError:
            got = None
        latencies.append(clock() - t0)
        results.append(got)
    return latencies, results


def decompose_check(cw, p, spec, auts, results) -> dict:
    bad = [k for k, (a, got) in enumerate(zip(auts, results)) if got != a]
    return {"requests": len(auts), "bad": bad}


STREAMS = {
    "reduce_stream": (reduce_inputs, reduce_run, reduce_check),
    "decompose_stream": (decompose_inputs, decompose_run, decompose_check),
}


def _fault_reduce_word():
    """Mutation used by the self-test: reduce_word drops the last syllable."""
    from cyclewall import words
    from tracer import replace_everywhere
    original = words.reduce_word

    def wrong(p, syllables):
        g = original(p, syllables)
        return g if len(g.word) < 2 else words.GroupElement(p, g.word[:-1])
    replace_everywhere(original, wrong)


ADDR_NO_RANDOMIZE = 0x0040000
PROBE_EVERY_S = 0.3   # interval of the speed probe during the work
PROBE_N = 16000       # probe loop length: about 0.03 s on a 2-vCPU Xeon


class Probe:
    """The host's speed during the work: every PROBE_EVERY_S a timer signal
    runs a fixed loop of dict, tuple and set operations (the kind of work the
    package does most) between the package's bytecodes, on the same CPU, and
    records how long it took.  ``clock`` leaves the loop's time out.
    """

    def __init__(self):
        self.times = []
        self.spent = 0.0

    def _loop(self, *_):
        # with the collector on, the loop's allocations would start
        # collections whose cost grows with the package's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        counts, seen, x = {}, set(), 1
        for i in range(PROBE_N):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x % 50, (x >> 8) % 50, i % 97)
            counts[key] = counts.get(key, 0) + 1
            seen.add((key, i % 13))
        sorted(counts.items())
        took = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.times.append(took)
        self.spent += took

    def clock(self) -> float:
        """perf_counter without the time spent in the probe."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def start(self):
        signal.signal(signal.SIGALRM, self._loop)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._loop()    # one sample even when the work ended before the first


def _aslr_off() -> bool:
    """Whether this process runs with address-space randomisation off."""
    try:
        with open("/proc/self/personality") as fh:
            return bool(int(fh.read(), 16) & ADDR_NO_RANDOMIZE)
    except (OSError, ValueError):
        return False


def main() -> int:
    spec = json.loads(sys.argv[1])
    import cyclewall as cw
    import cyclewall.cli
    p = cyclewall.cli.load_presentation(spec["presentation"])
    setup_s = time.perf_counter() - spec["spawned"]

    kind = spec["kind"]
    if kind in STREAMS:
        make_inputs, run, check = STREAMS[kind]
        inputs = make_inputs(cw, p, spec)
    if spec.get("fault") == "reduce_word":
        _fault_reduce_word()
    probe = Probe()
    clock = probe.clock
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["run_id"], clock)
        tracer.install()

    probe.start()
    latencies = []
    t0 = clock()
    if kind == "cli":
        answer = {"exit": cyclewall.cli.main(spec["argv"])}
    elif kind == "crossing":
        cg = cw.crossing_graph(cw.build_ball(p, spec["radius"]))
        answer = {"nodes": cg.number_of_nodes(), "edges": cg.number_of_edges()}
    else:
        latencies, results = run(cw, p, spec, inputs, clock)
    work_s = clock() - t0
    probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "work_s": work_s, "rss_mb": rss_mb,
           "latencies": latencies, "aslr_off": _aslr_off(),
           "probe_s": statistics.median(probe.times)}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.export()
        out["spans"] = tracer.spans
    if kind in STREAMS:
        answer = check(cw, p, spec, inputs, results)
    out["answer"] = answer
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
