"""Acceptance suite: one test per shipped guarantee.

Each test prints a single summary line (visible with -s) and fails loudly
otherwise.  Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import random
from time import perf_counter

import numpy as np
import pytest

from rsdel.channel import (
    DeletionPattern,
    apply_deletions,
    enumerate_triples,
    random_pattern,
)
from rsdel.code import encode, gamma_map, random_message
from rsdel.decoder import (
    PATH_CLOSED_FORM,
    DecodeInstrumentation,
    ReceivedTriple,
    decode_cubic,
    decode_linear,
    extract_coefficients,
    solve_deltas,
)
from rsdel.errors import InconsistentReceivedWordError, UnrecognizedReceivedWordError
from rsdel.verify import audit_code, base_field_spec, check_injectivity, sample_message_pairs, vandermonde_det

from conftest import get_spec, is_checked_pattern

GRID = ((5, 4), (7, 6), (11, 10), (13, 12))
MESSAGES_PER_SPEC = 200


@pytest.fixture(scope="module")
def grid_trials():
    """Shared by criteria 1 and 2: both decoders on every (message, triple)."""
    started = perf_counter()
    failures = 0
    disagreements = 0
    words = 0
    for p, n in GRID:
        spec = get_spec(p, n)
        rng = random.Random(1000 + p)
        patterns = list(enumerate_triples(n))
        for _ in range(MESSAGES_PER_SPEC):
            m = random_message(spec, rng)
            cw = encode(spec, m)
            for pat in patterns:
                y = ReceivedTriple(*apply_deletions(cw, pat))
                oc = decode_cubic(spec, y)
                ol = decode_linear(spec, y)
                words += 1
                for out in (oc, ol):
                    ok = out.codeword == cw and out.message == m
                    if out.kappa.kept:
                        # a claimed pattern must be the true one; constant
                        # words claim none (any triple explains them)
                        ok = ok and out.kappa == pat
                    if not ok:
                        failures += 1
                if (oc.message, oc.codeword, oc.kappa) != (ol.message, ol.codeword, ol.kappa):
                    disagreements += 1
    return {
        "failures": failures,
        "disagreements": disagreements,
        "words": words,
        "elapsed": perf_counter() - started,
    }


def test_criterion_1_exhaustive_roundtrip(grid_trials):
    expected = MESSAGES_PER_SPEC * sum(math.comb(n, 3) for _, n in GRID)
    assert grid_trials["words"] == expected
    assert grid_trials["failures"] == 0
    assert grid_trials["elapsed"] < 120.0
    print(f"criterion 1 PASS: exhaustive roundtrip, {grid_trials['words']} received words "
          f"x 2 decoders, 0 failures, {grid_trials['elapsed']:.1f}s")


def test_criterion_2_decoder_equivalence(grid_trials):
    assert grid_trials["disagreements"] == 0
    p, n, trials = 10007, 512, 100_000
    spec = get_spec(p, n)
    rng = random.Random(77)
    linear_wrong = 0
    disagreements = 0
    spot_checks = 0
    unchecked = 0   # decoded patterns that DeletionPattern's own checks would change
    started = perf_counter()
    for trial in range(trials):
        m = random_message(spec, rng)
        cw = encode(spec, m)
        pat = DeletionPattern(tuple(sorted(rng.sample(range(1, n + 1), 3))))
        y = ReceivedTriple(*apply_deletions(cw, pat))
        ol = decode_linear(spec, y)
        if not (ol.message == m and ol.codeword == cw and ol.kappa == pat):
            linear_wrong += 1
        unchecked += not is_checked_pattern(ol.kappa)
        if trial % 100 == 0:  # 1% subsample gets the cubic scan too
            oc = decode_cubic(spec, y)
            spot_checks += 1
            unchecked += not is_checked_pattern(oc.kappa)
            if (oc.message, oc.codeword, oc.kappa) != (ol.message, ol.codeword, ol.kappa):
                disagreements += 1
    elapsed = perf_counter() - started
    assert linear_wrong == 0
    assert disagreements == 0
    assert unchecked == 0
    assert spot_checks == trials // 100
    print(f"criterion 2 PASS: decoder equivalence on grid + {trials} trials at "
          f"(p={p}, n={n}), {spot_checks} cubic spot checks, 0 disagreements, {elapsed:.1f}s")


def test_criterion_3_injectivity_certification():
    started = perf_counter()
    for p, n in GRID + ((101, 100),):
        assert check_injectivity(get_spec(p, n)) is None, (p, n)
    witness = check_injectivity(base_field_spec(5, 4))
    assert witness is not None
    assert gamma_map(base_field_spec(5, 4), *witness.triple_a) == witness.value
    elapsed = perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 3 PASS: injectivity certified on grid + (101,100) "
          f"[C(100,3)=161700 triples], adversarial witness "
          f"{witness.triple_a}~{witness.triple_b}, {elapsed:.1f}s")


def test_criterion_4_determinant_equivalence():
    n = 8
    triples = [pat.kept for pat in enumerate_triples(n)]
    pairs = [(a, b)
             for idx, a in enumerate(triples)
             for b in triples[idx + 1:]
             if len(set(a) & set(b)) <= 1]
    assert pairs
    checked = 0
    for spec, expect_zeros in ((get_spec(11, n), False), (base_field_spec(11, n), True)):
        zeros = 0
        for ta, tb in pairs:
            det_zero = vandermonde_det(spec, ta, tb) == 0
            gamma_equal = gamma_map(spec, *ta) == gamma_map(spec, *tb)
            assert det_zero == gamma_equal, (ta, tb)
            zeros += det_zero
            checked += 1
        if expect_zeros:
            assert zeros > 0  # the base-field code really does collide
        else:
            assert zeros == 0  # constructed code: every determinant nonzero
    print(f"criterion 4 PASS: determinant/ratio equivalence on {checked} "
          f"triple pairs (shared positions <= 1), 0 violations")


def test_criterion_5_lcs_bound():
    worst = 0
    total_pairs = 0
    for p, n in ((5, 4), (7, 6)):
        spec = get_spec(p, n)
        res = audit_code(spec, sample_message_pairs(spec, 500, seed=p))
        assert res.pairs_checked == 500
        assert res.max_lcs <= 2, (p, n, res.max_lcs)
        worst = max(worst, res.max_lcs)
        total_pairs += res.pairs_checked
    print(f"criterion 5 PASS: {total_pairs} audited message pairs, "
          f"max codeword LCS {worst} <= 2")


def test_criterion_6_closed_form_algebra():
    rng = random.Random(4242)
    per_spec = 2500
    incorrect = 0
    total = 0
    for p, n in GRID:
        spec = get_spec(p, n)
        for _ in range(per_spec):
            i, j, k = sorted(rng.sample(range(1, n + 1), 3))
            beta = gamma_map(spec, i, j, k)
            got = solve_deltas(p, extract_coefficients(beta))
            total += 1
            want = (spec.delta[i - 1], spec.delta[j - 1], spec.delta[k - 1])
            if got != want:
                incorrect += 1
    assert total == per_spec * len(GRID) >= 10_000
    assert incorrect == 0
    print(f"criterion 6 PASS: closed form returns the true locators on all "
          f"{total} sampled triples, never degenerate")


def test_criterion_7_complexity_contract():
    p = 10007
    ns = (64, 256, 1024)
    linear_search = []
    linear_total = []
    cubic_search = []
    for n in ns:
        spec = get_spec(p, n)
        m = random_message(spec, random.Random(n))
        cw = encode(spec, m)
        # the lexicographically last kept triple maximizes the cubic scan
        y = ReceivedTriple(*apply_deletions(cw, DeletionPattern((n - 2, n - 1, n))))
        il = DecodeInstrumentation()
        out = decode_linear(spec, y, inst=il)
        assert out.path == PATH_CLOSED_FORM and out.codeword == cw
        ic = DecodeInstrumentation()
        assert decode_cubic(spec, y, inst=ic).codeword == cw
        linear_search.append(il.search_ops)
        linear_total.append(il.total_ops)
        cubic_search.append(ic.search_ops)
    assert len(set(linear_search)) == 1  # identification cost independent of n
    logn = [math.log(n) for n in ns]
    cubic_slope = float(np.polyfit(logn, [math.log(v) for v in cubic_search], 1)[0])
    linear_slope = float(np.polyfit(logn, [math.log(v) for v in linear_total], 1)[0])
    assert 2.8 <= cubic_slope <= 3.2, cubic_search
    assert linear_slope <= 1.1, linear_total
    print(f"criterion 7 PASS: linear identification ops {linear_search[0]} at every n, "
          f"cubic search slope {cubic_slope:.3f} in [2.8, 3.2], "
          f"linear total slope {linear_slope:.3f} <= 1.1")


def test_criterion_8_error_taxonomy():
    spec = get_spec(11, 6)
    ext = spec.ext
    rng = random.Random(31337)
    decoders = (decode_cubic, decode_linear)
    inconsistent = 0
    unrecognized = 0
    accidental_valid = 0
    total = 0

    def distinct_pair():
        while True:
            e, f = ext.rand(rng), ext.rand(rng)
            if e != f:
                return e, f

    for idx in range(500):  # two-of-three equal: always the typed error
        e, f = distinct_pair()
        y = ((e, e, f), (f, e, e), (e, f, e))[idx % 3]
        with pytest.raises(InconsistentReceivedWordError):
            decoders[idx % 2](spec, ReceivedTriple(*y))
        inconsistent += 1
        total += 1

    for idx in range(500):  # random distinct symbols: error or true explanation
        while True:
            y = tuple(ext.rand(rng) for _ in range(3))
            if len({e.coords for e in y}) == 3:
                break
        total += 1
        try:
            out = decoders[idx % 2](spec, ReceivedTriple(*y))
        except UnrecognizedReceivedWordError:
            unrecognized += 1
            continue
        # an accepted word must be exactly explained, never silently wrong
        assert tuple(apply_deletions(out.codeword, out.kappa)) == y
        assert encode(spec, out.message) == out.codeword
        accidental_valid += 1

    assert total == 1000
    assert inconsistent == 500
    assert unrecognized >= 450  # the ratio image covers ~1.5% of the field
    print(f"criterion 8 PASS: {total} adversarial inputs -> {inconsistent} inconsistent, "
          f"{unrecognized} unrecognized, {accidental_valid} legitimately explained, "
          f"0 silent wrong codewords")
