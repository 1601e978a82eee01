"""Acceptance gate: one test per criterion, each printing a single verdict
line with its measured time against a pinned limit.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import json
import random
import time

from conftest import (
    presentation_c5_mixed,
    presentation_c5_s3,
    presentation_c5_z2,
    presentation_c5_z3,
    presentation_c6_mixed,
    presentation_c6_z2,
)
from oracles import all_raw_words, aut_apply, closure_classifier, fill_and_audit

from cyclewall.algebraic import induced_cycle_audit, phi_iso_check
from cyclewall.autgroup import (
    AutElement,
    aut_decompose,
    enumerate_loc,
    generator_images,
    generator_values,
    loc_fixator,
    witness_details,
    witness_fixator_check,
)
from cyclewall.cli import main
from cyclewall.davis import (
    build_ball,
    free_face_audit,
    links_audit,
    polygon_pair_audit,
    t4_audit,
)
from cyclewall.diagrams import convention_lock, sample_loops
from cyclewall.localgroups import determining_set
from cyclewall.walls import (
    classify_pair,
    crossing_graph,
    delta,
    hyperplane_treewall_audit,
    no_triple_crossing_audit,
    tree_property_audit,
    wall_fixator_audit,
    wall_stabilizer_audit,
)
from cyclewall.words import (
    GroupElement,
    Syllable,
    enumerate_ball_elements,
    format_word,
    reduce_word,
)


def references():
    return [("c5_z2", presentation_c5_z2()),
            ("c5_z3", presentation_c5_z3()),
            ("c5_mixed", presentation_c5_mixed()),
            ("c5_s3", presentation_c5_s3()),
            ("c6_z2", presentation_c6_z2()),
            ("c6_mixed", presentation_c6_mixed())]


def verdict(number: int, label: str, ok: bool, t0: float, limit: float):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = (f"acceptance criterion {number} ({label}): {status} "
            f"[{elapsed:.1f}s of {limit:.0f}s allowed]")
    print(line)
    assert status == "PASS", line


def test_criterion_1_closure_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for p, max_len in ((presentation_c5_z2(), 6), (presentation_c5_mixed(), 6)):
        uf = closure_classifier(p, max_len)
        canon = {}
        for word in all_raw_words(p, max_len):
            root = uf.find(word)
            form = reduce_word(p, word)
            if root in canon:
                ok = ok and canon[root] == form
            else:
                canon[root] = form
        ok = ok and len(set(canon.values())) == len(canon)
    verdict(1, "word-problem oracle equivalence, length <= 6", ok, t0, 60)


def test_criterion_2_rigid_words_returned_verbatim():
    t0 = time.monotonic()
    rng = random.Random(0)
    ok = True
    for _, p in references():
        if not p.all_finite:
            continue
        for _ in range(1000 // 5):
            word, last = [], None
            for _ in range(rng.randrange(1, 8)):
                choices = [v for v in range(p.n)
                           if last is None
                           or (v != last and not p.adjacent(v, last))]
                v = rng.choice(choices)
                last = v
                word.append(Syllable(v, rng.randrange(1, p.group(v).size)))
            ok = ok and reduce_word(p, word).word == tuple(word)
    verdict(2, "1000 no-adjacent-support words verbatim", ok, t0, 5)


def test_criterion_3_davis_audits_radius_2():
    t0 = time.monotonic()
    ok = True
    for name, p in references():
        b = build_ball(p, 2)
        for audit in (t4_audit, polygon_pair_audit, free_face_audit,
                      links_audit):
            r = audit(b)
            ok = ok and r.ok and not r.inconclusive
    verdict(3, "polygonal-complex audits at radius 2", ok, t0, 120)


def test_criterion_4_tree_wall_suite():
    t0 = time.monotonic()
    ok = True
    delta_counts = {1: 0, 2: 0, 3: 0}
    for p, radius in ((presentation_c5_z2(), 3), (presentation_c5_mixed(), 2)):
        b = build_ball(p, radius)
        cg = crossing_graph(b)
        ok = ok and tree_property_audit(b).ok
        ok = ok and wall_fixator_audit(b, 3).ok
        ok = ok and wall_stabilizer_audit(b, 2).ok
        ok = ok and no_triple_crossing_audit(cg).ok
        ok = ok and hyperplane_treewall_audit(b).ok
        for k1, k2 in itertools.combinations(range(len(cg.walls)), 2):
            d, _ = delta(cg, k1, k2)
            if d not in (1, 2) and d < 3:
                continue
            key = min(d, 3)
            if delta_counts[key] >= (10 if key < 3 else 3):
                continue
            r = classify_pair(b, cg, k1, k2, 2)
            ok = ok and not r.failures
            delta_counts[key] += 1
    ok = ok and delta_counts[1] >= 10 and delta_counts[2] >= 10
    verdict(4, f"tree-wall suite (pairs per distance: {delta_counts})",
            ok, t0, 300)


def test_criterion_5_reconstruction_isomorphism():
    t0 = time.monotonic()
    ok = True
    for name, p in references():
        b = build_ball(p, 2)
        r = phi_iso_check(b, seed=0, samples=50)
        ok = ok and r.ok and not r.inconclusive
        ok = ok and induced_cycle_audit(b).ok
    verdict(5, "reconstruction map is an equivariant isomorphism", ok, t0, 180)


def test_criterion_6_decomposition_roundtrip_and_inn_loc():
    t0 = time.monotonic()
    ok = True
    for name, p in references():
        if not p.all_finite:
            continue
        rng = random.Random(11)
        loc = enumerate_loc(p)
        pool = enumerate_ball_elements(p, 3)
        for _ in range(500):
            a = AutElement(rng.choice(pool), rng.choice(loc))
            got = aut_decompose(p, generator_images(a))
            ok = ok and got == a

        # no non-identity pure-local element acts like any sampled inner one
        gens = [GroupElement(p, (Syllable(i, x),))
                for i in range(p.n) for x in generator_values(p, i)]
        inner_tables = {
            tuple(format_word(g.conjugate(h)) for g in gens)
            for h in pool}
        for lam in loc:
            if lam.is_identity:
                continue
            table = tuple(format_word(lam.apply(g)) for g in gens)
            ok = ok and table not in inner_tables
    verdict(6, "500 decomposition roundtrips; Inn and Loc meet trivially",
            ok, t0, 120)


def test_criterion_7_witness_with_trivial_local_fixator():
    t0 = time.monotonic()
    p = presentation_c5_z3()
    d = witness_details(p)
    g = d["element"]
    loc = enumerate_loc(p)
    ok = (not d["degenerate"]
          and g.syllable_length == 10
          and len(loc) == 320
          and witness_fixator_check(p, g).ok)
    fix = loc_fixator(p, g)
    ok = ok and len(fix) == 1 and fix[0].is_identity
    # stabilizer formula: the local fixator of a rigid word supported on all
    # vertices is exactly the set of elements with identity symmetry whose
    # vertex maps fix every determining element
    predicted = [lam for lam in loc
                 if lam.sigma.is_identity
                 and all(lam.isos[i].apply(e) == e
                         for i in range(p.n)
                         for e in determining_set(p.group(i)))]
    ok = ok and list(fix) == predicted
    verdict(7, "length-10 witness, |Loc|=320, trivial fixator", ok, t0, 30)


def test_criterion_8_curvature_identity_on_100_fillings():
    t0 = time.monotonic()
    ok = convention_lock(5).ok and convention_lock(6).ok
    filled = 0
    for p, want in ((presentation_c5_z2(), 60), (presentation_c5_mixed(), 40)):
        b = build_ball(p, 2)
        loops = sample_loops(b, seed=1, count=want, max_len=12)
        ok = ok and len(loops) == want
        for loop in loops:
            diagram, report = fill_and_audit(b, loop)
            ok = ok and report.ok and diagram.total_curvature() == 8
            filled += 1
    ok = ok and filled >= 100
    verdict(8, f"exact curvature sum on {filled} filled diagrams", ok, t0, 120)


def test_criterion_9_verify_is_deterministic(tmp_path):
    t0 = time.monotonic()
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps(
        {"schema": "cyclewall/1", "n": 5,
         "groups": ["Z/2", "Z/3", "Z/2", "Z/3", "Z/2"]}))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = main(["verify", "--presentation", str(pres), "--suite", "all",
                "--seed", "3", "--output", str(out1)])
    rc2 = main(["verify", "--presentation", str(pres), "--suite", "all",
                "--seed", "3", "--output", str(out2)])
    ok = rc1 == rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    verdict(9, "verify-all is byte-identical under a fixed seed", ok, t0, 300)
