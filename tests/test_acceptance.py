"""Acceptance criteria, one test per criterion, each printing a PASS line."""

import json
import random
import time
from fractions import Fraction
from importlib import resources

from surfemb4 import cli, schema
from surfemb4.bands import (
    BandCatalog,
    BandError,
    BandRecord,
    RelH2,
    SurfaceComponent,
    SurfaceModel,
    is_b_characteristic,
    theta,
)
from surfemb4.engine import flowchart
from surfemb4.gamma import PairingContext, build_gamma, smith_oracle
from surfemb4.groups import subgroup_closure
from surfemb4.knots import SeifertMatrix, arf, cp2_genus_verdict, levine_tristram, shake_genus_pm1, sigma_d
from surfemb4.whitney import t_count, to_convenient

from helpers import (
    DoublePoint,
    WhitneyDisc,
    abelian_euler_bound_check,
    all_characters,
    all_groups_up_to_8,
    band_fibre_finger_move,
    cyclic_group,
    disc_collection,
    is_r_characteristic,
    is_s_characteristic,
    mu1_home,
    orbit_counts,
    point_columns,
    random_seifert_rows,
    random_signed_subgroup,
    rp2_euler_parity,
    stong_t_formula,
    total_boundary,
    union_records,
)


def _sweep_contexts(per_combo: int, seed: int):
    rng = random.Random(seed)
    for name, g in all_groups_up_to_8():
        for wM in all_characters(g):
            for _ in range(per_combo):
                yield name, g, wM, random_signed_subgroup(g, rng), random_signed_subgroup(g, rng)


def test_criterion_01_gamma_oracle_equivalence():
    started = time.time()
    checked = 0
    for name, g, wM, s_f, s_g in _sweep_contexts(100, seed=101):
        ctx = PairingContext(g, wM, s_f, s_g, self_pairing=False)
        gamma = build_gamma(ctx)
        rank, torsion = smith_oracle(ctx)
        assert set(torsion) <= {2}, name
        assert orbit_counts(gamma) == (rank, len(torsion)), name
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: build_gamma == smith_oracle on {checked} contexts "
          f"({elapsed:.1f}s)")


def test_criterion_02_mu1_home_concordance():
    checked = 0
    for name, g, wM, s_f, _ in _sweep_contexts(100, seed=202):
        ctx = PairingContext(g, wM, s_f, s_f, self_pairing=True)
        home = mu1_home(ctx)
        gamma = build_gamma(ctx)
        assert (home == "Z/2") == gamma.orbit_of(g.identity).order_two, name
        checked += 1
    print(f"ACCEPTANCE 2 PASS: mu1 home matches the identity orbit tag on {checked} contexts")


def test_criterion_03_minus_one_forces_two_torsion():
    rng = random.Random(303)
    checked = 0
    for name, g in all_groups_up_to_8():
        for wM in all_characters(g):
            for _ in range(20):
                gens = [(rng.randrange(g.order), rng.choice((1, -1))) for _ in range(rng.randrange(3))]
                gens.append((g.identity, -1))
                s = subgroup_closure(g, gens)
                assert s.contains_minus_one
                ctx = PairingContext(g, wM, s, s, self_pairing=rng.random() < 0.5)
                gamma = build_gamma(ctx)
                assert all(o.order_two for o in gamma.orbits()), name
                checked += 1
    print(f"ACCEPTANCE 3 PASS: (1,-1) in the subgroup forces 2-torsion on {checked} contexts")


def _knot(name) -> SeifertMatrix:
    path = resources.files("surfemb4").joinpath("data", "knots", name + ".json")
    return SeifertMatrix(json.loads(path.read_text())["seifert"])


def test_criterion_04_knot_numbers():
    started = time.time()
    k = _knot("sum3_trefoil")
    assert arf(k) == 1
    assert levine_tristram(k, Fraction(1)) == -6
    for d in range(2, 13):
        assert sigma_d(k, d) == -6, d
    verdict = cp2_genus_verdict(k)
    assert verdict.exact == 1 and not verdict.incomplete
    assert shake_genus_pm1(k) == 1
    elapsed = time.time() - started
    assert elapsed < 10, f"knot battery took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 PASS: #3 T(2,3) invariants (Arf 1, sigma -6, genus 1) "
          f"({elapsed:.1f}s)")


def test_criterion_05_arf_dual_method_agreement():
    rng = random.Random(505)
    for i in range(10_000):
        V = SeifertMatrix(random_seifert_rows(rng))
        arf(V)  # raises InternalConsistency on any mismatch of the two methods
    print("ACCEPTANCE 5 PASS: Arf determinant rule == quadratic-form count on 10000 matrices")


def test_criterion_06_stong_formula():
    assert stong_t_formula(1, 9) == 1
    assert stong_t_formula(-7, 1) == 1
    print("ACCEPTANCE 6 PASS: Stong t-formula reproduces (1,9) -> 1 and (-7,1) -> 1")


def test_criterion_07_rp2_parity():
    checked = 0
    for e in range(-62, 63):
        if e % 4 != 2:
            continue
        closed_form = 0 if e % 16 in (2, 14) else 1
        assert rp2_euler_parity(e) == closed_form, e
        checked += 1
    print(f"ACCEPTANCE 7 PASS: projective-plane parity matches +-2 mod 16 on {checked} values")


def _random_surface(rng):
    comps = []
    for cid in range(rng.randrange(1, 3)):
        if rng.random() < 0.5:
            comps.append(SurfaceComponent(cid, rng.randrange(0, 3), True))
        else:
            comps.append(SurfaceComponent(cid, rng.randrange(1, 4), False))
    return SurfaceModel(comps)


def _random_admissible_record(surface, rng, rid, basis_size, basis_slot):
    dim = surface.dim
    while True:
        kind = rng.choice(("annulus", "mobius", "surface"))
        if kind == "annulus":
            classes = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(2)]
            if sorted(surface.w1_of(surface.mask(c)) for c in classes) == [0, 1]:
                continue
        elif kind == "mobius":
            classes = [tuple(rng.randrange(2) for _ in range(dim))]
            if surface.w1_of(surface.mask(classes[0])):
                continue
        else:
            classes = [tuple(rng.randrange(2) for _ in range(dim))
                       for _ in range(rng.randrange(3))]
            if any(surface.w1_of(surface.mask(c)) for c in classes):
                continue
        rel_class = [0] * basis_size
        rel_class[basis_slot] = 1
        return BandRecord(
            rid, kind, tuple(rel_class), tuple(classes),
            tuple(surface.w1_of(surface.mask(c)) for c in classes),
            sum(surface.w1_of(surface.mask(c)) for c in classes) % 2,
            rng.randrange(2), rng.randrange(2), rng.randrange(2), rng.randrange(2),
        )


def test_criterion_08_theta_machinery():
    rng = random.Random(808)
    C1 = cyclic_group(1)  # the points' etas are its identity, 0
    # (a) quadraticity of theta on formal unions
    done = 0
    while done < 1000:
        surface = _random_surface(rng)
        r1 = _random_admissible_record(surface, rng, "r1", 2, 0)
        r2 = _random_admissible_record(surface, rng, "r2", 2, 1)
        lam = surface.form(total_boundary(r1, surface), total_boundary(r2, surface))
        try:
            expected = (theta(r1) + theta(r2) + lam) % 2
        except BandError as exc:
            assert "annulus with exactly one w1-nontrivial boundary" in str(exc)
            continue
        assert theta(union_records(r1, r2, surface)) == expected
        done += 1
    # (b) the band-fibre finger move changes t by exactly theta
    done = 0
    while done < 1000:
        surface = _random_surface(rng)
        comps = [c.id for c in surface.components]
        points, specs = [], []
        for d in range(rng.randrange(1, 4)):
            cid = rng.choice(comps)
            points += [DoublePoint(2 * d, (cid, cid), 1, 0),
                       DoublePoint(2 * d + 1, (cid, cid), -1, 0)]
            specs.append(WhitneyDisc(d, (2 * d, 2 * d + 1), {cid: rng.randrange(3)}))
        points, coll = point_columns(points, C1), disc_collection(specs)
        record = _random_admissible_record(surface, rng, "b", 1, 0)
        try:
            expected = theta(record)
        except BandError as exc:
            assert "annulus with exactly one w1-nontrivial boundary" in str(exc)
            continue
        before = t_count(points, comps, coll)
        new_points, out, delta = band_fibre_finger_move(points, coll, record, surface,
                                                        comps, identity=0)
        assert delta == expected
        assert t_count(new_points, comps, out) == (before + expected) % 2
        done += 1
    # (c) to_convenient preserves the count
    for _ in range(1000):
        n_discs = rng.randrange(1, 5)
        points, discs, boundary = [], [], {}
        for d in range(n_discs):
            points += [DoublePoint(2 * d, (0, 0), 1, 0), DoublePoint(2 * d + 1, (0, 0), -1, 0)]
            discs.append(WhitneyDisc(d, (2 * d, 2 * d + 1), {0: rng.randrange(3)},
                                     mu_boundary=rng.randrange(3), euler=rng.randrange(-2, 3)))
        for a in range(n_discs):
            for b in range(a + 1, n_discs):
                if rng.random() < 0.4:
                    boundary[frozenset((a, b))] = rng.randrange(1, 3)
        points, weak = point_columns(points, C1), disc_collection(discs, boundary, convenient=False)
        expected = t_count(points, [0], weak)
        assert t_count(points, [0], to_convenient(points, weak)) == expected
    print("ACCEPTANCE 8 PASS: theta quadraticity, finger-move delta, and "
          "convenient conversion on 1000 random cases each")


def _example(name):
    path = resources.files("surfemb4").joinpath("data", "instances", name + ".json")
    return schema.load_instance(str(path))


def test_criterion_09_worked_examples():
    torus = flowchart(_example("torus_s3s1"))
    assert torus.b_char == "yes" and torus.t == 1
    assert torus.outcome == "NotRegHomotopicToEmbedding" and torus.km == 1

    sphere = flowchart(_example("star_cp2_sphere"))
    assert sphere.outcome == "NotRegHomotopicToEmbedding" and sphere.km == 1

    tubed = flowchart(_example("tubed_sphere"))
    assert tubed.b_char == "no" and tubed.km == 0
    assert tubed.outcome == "RegHomotopicToEmbedding"

    for name, expect_bchar in (("klein_bottle_e0", "yes"), ("klein_bottle_e4", "no"),
                               ("klein_bottle_em4", "no")):
        verdict = flowchart(_example(name))
        assert verdict.b_char == expect_bchar, name
        if expect_bchar == "yes":
            assert verdict.t == 0
    print("ACCEPTANCE 9 PASS: shipped encodings reproduce the worked-example statuses")


def test_criterion_10_consistency_guards():
    # determinism: identical bytes across 10 runs per corpus file
    names = ("torus_s3s1", "star_cp2_sphere", "tubed_sphere", "klein_bottle_e0",
             "klein_bottle_e4", "klein_bottle_em4", "rp2_r4_e2")
    for name in names:
        inst = _example(name)
        first = cli.to_json(flowchart(inst).as_dict()).encode()
        for _ in range(9):
            assert cli.to_json(flowchart(_example(name)).as_dict()).encode() == first, name

    # also across processes, under different hash seeds
    import os
    import subprocess
    import sys

    for name in ("torus_s3s1", "klein_bottle_e4"):
        outputs = set()
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "surfemb4.cli", "decide", name],
                capture_output=True, env=env, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, name

    # a deliberately inconsistent instance: closed genus-2 surface declared
    # b-characteristic over the trivial group violates the Euler bound
    genus2 = SurfaceModel([SurfaceComponent(0, 2, True)])
    result = abelian_euler_bound_check(genus2, 0)
    assert not result.ok and result.chi == -2 and result.bound == 0

    # b => r => s on generated linked catalogs
    rng = random.Random(1010)
    surface = SurfaceModel([SurfaceComponent(0, 1, True)])
    for _ in range(1000):
        size = rng.randrange(1, 4)
        basis = tuple(f"c{i}" for i in range(size))
        rel = RelH2(basis, {n: (0, 0) for n in basis})
        records = []
        for i in range(size):
            rel_class = [0] * size
            rel_class[i] = 1
            records.append(BandRecord(f"b{i}", "surface", tuple(rel_class), (), (), 0,
                                      rng.randrange(2), 0, rng.randrange(2), rng.randrange(2)))
        for r in records:
            BandCatalog(surface, rel, (r,))
        catalog = BandCatalog(surface, rel, tuple(records))
        rp2 = []
        for r in records:
            rr = rng.randrange(2)
            rp2.append(((theta(r) + rr) % 2, rr))
        spheres = list(rp2)
        if is_b_characteristic(catalog).yes:
            assert is_r_characteristic(rp2)
            assert is_s_characteristic(spheres)
    print("ACCEPTANCE 10 PASS: determinism, Euler-bound violation, and the "
          "b => r => s chain hold")
