"""End-to-end command line coverage, driving main() with argv lists.

One subprocess smoke test checks the installed entry point; everything else
stays in-process for speed.
"""

import dataclasses
import gc
import json
import os
import platform
import subprocess
import sys
from itertools import chain, count
from pathlib import Path

import numpy as np
import pytest

import rsdel
from rsdel import cli, decoder, verify
from rsdel.channel import DeletionPattern, enumerate_triples
from rsdel.cli import main
from rsdel.code import Message, build_code, encode, gamma_map, load_spec
from rsdel.errors import RSDelError


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def gen(tmp_path, capsys, p=7, n=6):
    spec_path = tmp_path / "code.spec"
    rc, out, _ = run(capsys, "gen-code", "--p", str(p), "--n", str(n),
                     "--out", str(spec_path))
    assert rc == 0 and "wrote spec" in out
    return spec_path


def test_pipeline_roundtrip(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    cw = tmp_path / "cw.sym"
    rx = tmp_path / "rx.sym"
    rc, out, _ = run(capsys, "encode", "--spec", str(spec),
                     "--m1", "1,2,3", "--m2", "4,5,6", "--out", str(cw))
    assert rc == 0
    assert "m1 1,2,3" in out and "m2 4,5,6" in out

    rc, out, _ = run(capsys, "corrupt", "--spec", str(spec), "--in", str(cw),
                     "--keep", "2,4,5", "--out", str(rx))
    assert rc == 0 and "kept 2,4,5" in out
    assert rx.read_text().count("\n") == 3

    for algo, path in (("cubic", "triple-search"), ("linear", "closed-form")):
        dec = tmp_path / f"dec-{algo}.sym"
        rc, out, _ = run(capsys, "decode", "--spec", str(spec),
                         "--received", str(rx), "--algo", algo,
                         "--emit-kappa", "--out", str(dec))
        assert rc == 0
        assert f"path {path}\n" in out
        assert "m1 1,2,3" in out and "m2 4,5,6" in out
        assert "kappa 2 4 5" in out
        assert dec.read_text() == cw.read_text()


def test_encode_random_deterministic(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    a, b = tmp_path / "a.sym", tmp_path / "b.sym"
    rc, out_a, _ = run(capsys, "encode", "--spec", str(spec), "--random",
                       "--seed", "5", "--out", str(a))
    rc_b, out_b, _ = run(capsys, "encode", "--spec", str(spec), "--random",
                         "--seed", "5", "--out", str(b))
    assert rc == rc_b == 0
    assert a.read_text() == b.read_text()
    assert out_a.splitlines()[:2] == out_b.splitlines()[:2]  # m1/m2 lines


def test_corrupt_random_deterministic(tmp_path, capsys):
    spec = gen(tmp_path, capsys, p=11, n=10)
    cw = tmp_path / "cw.sym"
    run(capsys, "encode", "--spec", str(spec), "--random", "--out", str(cw))
    outs = []
    for name in ("r1.sym", "r2.sym"):
        rc, out, _ = run(capsys, "corrupt", "--spec", str(spec), "--in", str(cw),
                         "--deletions", "7", "--seed", "9",
                         "--out", str(tmp_path / name))
        assert rc == 0
        outs.append(out.splitlines()[0])  # the "kept ..." line
    assert outs[0] == outs[1]
    assert (tmp_path / "r1.sym").read_text() == (tmp_path / "r2.sym").read_text()


def test_decode_constant_word(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    cw = tmp_path / "cw.sym"
    rx = tmp_path / "rx.sym"
    run(capsys, "encode", "--spec", str(spec), "--m1", "2,0,1", "--m2", "0,0,0",
        "--out", str(cw))
    run(capsys, "corrupt", "--spec", str(spec), "--in", str(cw),
        "--keep", "1,3,6", "--out", str(rx))
    rc, out, _ = run(capsys, "decode", "--spec", str(spec), "--received", str(rx),
                     "--algo", "linear", "--emit-kappa", "--out", str(tmp_path / "d.sym"))
    assert rc == 0
    assert "path constant" in out
    assert "kappa -" in out
    assert "m2 0,0,0" in out


def test_decode_longer_word(tmp_path, capsys):
    spec = gen(tmp_path, capsys, p=11, n=8)
    cw = tmp_path / "cw.sym"
    rx = tmp_path / "rx.sym"
    run(capsys, "encode", "--spec", str(spec), "--m1", "1,2,3", "--m2", "4,5,6",
        "--out", str(cw))
    run(capsys, "corrupt", "--spec", str(spec), "--in", str(cw),
        "--keep", "1,2,4,8", "--out", str(rx))
    for algo in ("cubic", "linear"):
        rc, out, _ = run(capsys, "decode", "--spec", str(spec), "--received", str(rx),
                         "--algo", algo, "--emit-kappa", "--out", str(tmp_path / "d.sym"))
        assert rc == 0
        assert "kappa 1 2 4 8" in out
        assert (tmp_path / "d.sym").read_text() == cw.read_text()
    # three true survivors followed by two symbols that are not in the
    # codeword: every symbol is checked, so the word is rejected
    run(capsys, "corrupt", "--spec", str(spec), "--in", str(cw),
        "--keep", "2,5,7", "--out", str(rx))
    rx.write_text(rx.read_text() + "1,2,3\n4,5,6\n")
    for algo in ("cubic", "linear"):
        rc, _, err = run(capsys, "decode", "--spec", str(spec), "--received", str(rx),
                         "--algo", algo, "--out", str(tmp_path / "d.sym"))
        assert rc == 3
        assert "not a subsequence" in err


def test_exit_inconsistent_two_equal(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    rx = tmp_path / "rx.sym"
    rx.write_text("1,2,3\n1,2,3\n4,5,6\n")
    rc, _, err = run(capsys, "decode", "--spec", str(spec), "--received", str(rx),
                     "--algo", "linear", "--out", str(tmp_path / "d.sym"))
    assert rc == 3
    assert "inconsistent received word" in err


def test_exit_unrecognized_garbage(tmp_path, capsys):
    spec_path = gen(tmp_path, capsys, p=11, n=6)
    spec = load_spec(spec_path)
    image = {gamma_map(spec, *pat.kept) for pat in enumerate_triples(6)}
    ext = spec.ext
    garbage = None
    for c in range(1, 11):
        y = (ext.elem(c, 1, 2), ext.elem(0, 3, 1), ext.elem(5, 0, 4))
        beta = (y[0] - y[1]) / (y[1] - y[2])
        if beta not in image:
            garbage = y
            break
    assert garbage is not None
    rx = tmp_path / "rx.sym"
    rx.write_text("".join("{},{},{}\n".format(*e.coords) for e in garbage))
    for algo in ("cubic", "linear"):
        rc, _, err = run(capsys, "decode", "--spec", str(spec_path),
                         "--received", str(rx), "--algo", algo,
                         "--out", str(tmp_path / "d.sym"))
        assert rc == 4
        assert "unrecognized received word" in err


def test_exit_usage_cases(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    d = str(tmp_path / "d.sym")
    cases = [
        ("gen-code", "--p", "6", "--n", "4", "--out", d),  # composite modulus
        ("gen-code", "--p", "7", "--n", "9", "--out", d),  # n > p - 1
        ("encode", "--spec", str(tmp_path / "missing.spec"), "--random", "--out", d),
        ("encode", "--spec", str(spec), "--m1", "1,2", "--m2", "0,0,0", "--out", d),
        ("encode", "--spec", str(spec), "--out", d),  # no message, no --random
        # argparse reads "-1,0" as an option, so --m2 has no value
        ("encode", "--spec", str(spec), "--m1", "1,2,3", "--m2", "-1,0", "--out", d),
        ("corrupt", "--spec", str(spec), "--in", str(tmp_path / "nope.sym"),
         "--keep", "1,2,3", "--out", d),
        ("bench", "--p", "11,13", "--n", "4,6,8", "--trials", "1", "--out", d),
        ("bench", "--p", "11", "--n", "4", "--trials", "0", "--out", d),
        ("bench", "--p", "11", "--n", "", "--out", d),   # no grid: no records
        ("bench", "--p", "", "--n", "", "--certify", "--out", d),
        # a budget that can never be met would write an empty, truncated file
        ("bench", "--p", "11", "--n", "4", "--budget-seconds", "0", "--out", d),
        ("bench", "--p", "11", "--n", "4", "--budget-seconds", "-1", "--out", d),
        # self-tests of nothing would pass vacuously
        ("roundtrip", "--spec", str(spec), "--trials", "0"),
        ("roundtrip", "--spec", str(spec), "--trials", "-3", "--exhaustive"),
        ("audit", "--spec", str(spec), "--pairs", "0"),
        ("audit", "--spec", str(spec), "--pairs", "-4"),
    ]
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err
    assert not os.path.exists(d)  # every case is refused before writing


def test_exit_usage_on_files_not_utf8(tmp_path, capsys):
    # bytes that are not UTF-8 make a malformed file, refused like any other
    spec = gen(tmp_path, capsys)
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    rc, out, err = run(capsys, "check-condition", "--spec", str(bad))
    assert rc == 2 and out == ""
    assert err == f"error: spec file {str(bad)!r} is not UTF-8 text\n"
    rx = tmp_path / "rx.sym"
    rx.write_bytes(b"1,2,3\n4,5,6\n0,1,\xff\n")
    rc, out, err = run(capsys, "decode", "--spec", str(spec), "--received", str(rx),
                       "--algo", "cubic", "--out", str(tmp_path / "d.sym"))
    assert rc == 2 and out == ""
    assert err == f"error: symbol file {str(rx)!r} is not UTF-8 text\n"
    assert not (tmp_path / "d.sym").exists()


def test_encode_refuses_noncanonical(tmp_path, capsys):
    # the rule load_symbols applies to a symbol line: each coordinate in [0, p)
    spec = gen(tmp_path, capsys, p=10007, n=8)
    cw = tmp_path / "cw.sym"
    for option in ("--m1", "--m2"):
        for coords in ("10008,0,0", "-1,0,0", "10007,0,0"):
            other = "--m2" if option == "--m1" else "--m1"
            rc, out, err = run(capsys, "encode", "--spec", str(spec), f"{option}={coords}",
                               other, "1,2,3", "--out", str(cw))
            assert rc == 2 and out == "", (option, coords)
            assert f"{option}: coordinates must be canonical in [0, 10007)" in err
    assert not cw.exists()
    rc, out, _ = run(capsys, "encode", "--spec", str(spec), "--m1", "10006,0,0",
                     "--m2", "0,0,10006", "--out", str(cw))
    assert rc == 0 and "m1 10006,0,0" in out and "m2 0,0,10006" in out


def test_corrupt_rejects_bad_pattern(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    cw = tmp_path / "cw.sym"
    run(capsys, "encode", "--spec", str(spec), "--random", "--out", str(cw))
    for keep in ("3,1,2", "1,1,2", "0,1,2", "1,2,9"):
        rc, _, err = run(capsys, "corrupt", "--spec", str(spec), "--in", str(cw),
                         "--keep", keep, "--out", str(tmp_path / "r.sym"))
        assert rc == 2, keep
    rc, _, _ = run(capsys, "corrupt", "--spec", str(spec), "--in", str(cw),
                   "--deletions", "7", "--out", str(tmp_path / "r.sym"))
    assert rc == 2  # more deletions than symbols


def test_corrupt_refuses_a_keep_list_of_non_integers_and_no_pattern(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    cw = tmp_path / "cw.sym"
    run(capsys, "encode", "--spec", str(spec), "--random", "--out", str(cw))
    args = ("corrupt", "--spec", str(spec), "--in", str(cw), "--out", str(tmp_path / "r.sym"))
    rc, out, err = run(capsys, *args, "--keep", "1,x,3")
    assert rc == 2 and out == ""
    assert err == "error: expected comma-separated integers, got '1,x,3'\n"
    rc, out, err = run(capsys, *args)
    assert rc == 2 and out == "" and err == "error: corrupt needs --keep or --deletions\n"


def test_check_condition(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    rc, out, _ = run(capsys, "check-condition", "--spec", str(spec))
    assert rc == 0
    assert "pass: 20 triples, all ratio values distinct" in out
    rc, _, err = run(capsys, "check-condition", "--spec", str(spec), "--budget", "10")
    assert rc == 2
    assert "refusing" in err


def test_check_condition_reports_a_violation(tmp_path, capsys, monkeypatch):
    # a spec file always holds the quadratic map, which passes; the command
    # certifies the base-field points of the same (p, n) instead
    spec = gen(tmp_path, capsys)
    certify = verify.check_injectivity
    monkeypatch.setattr(verify, "check_injectivity", lambda spec, budget: certify(
        verify.base_field_spec(spec.p, spec.n), budget))
    rc, out, _ = run(capsys, "check-condition", "--spec", str(spec))
    assert rc == 1
    assert out == ("condition violated: triples (1, 2, 6) and (1, 3, 4) "
                   "share ratio value (2,0,0)\n")


def test_audit_reports_a_failed_pair(tmp_path, capsys, monkeypatch):
    # likewise audited on base-field points, where the words d and d - 1 of
    # (0, 1) and (6, 1) at p = 7 share the five symbols 1..5
    spec = gen(tmp_path, capsys)
    audit = verify.audit_code

    def base_field_audit(spec, pairs):
        ext = spec.ext
        shifted = (Message(ext.zero, ext.one), Message(ext.elem(6), ext.one))
        return audit(verify.base_field_spec(spec.p, spec.n), [next(iter(pairs)), shifted])

    monkeypatch.setattr(verify, "audit_code", base_field_audit)
    rc, out, _ = run(capsys, "audit", "--spec", str(spec), "--pairs", "5")
    assert rc == 1
    assert out == ("pairs 2\nmax-lcs 5\nwitness m1=(0, 0, 0),(1, 0, 0) m2=(6, 0, 0),(1, 0, 0)\n"
                   "audit FAILED: some pair shares a length-3 subsequence\n")


def test_audit_command(tmp_path, capsys):
    spec = gen(tmp_path, capsys)
    rc, out, _ = run(capsys, "audit", "--spec", str(spec), "--pairs", "200",
                     "--seed", "1")
    assert rc == 0
    assert "pairs 200" in out
    lcs_line = next(l for l in out.splitlines() if l.startswith("max-lcs"))
    assert int(lcs_line.split()[1]) <= 2


@pytest.mark.parametrize("p, n, pairs, seed, max_lcs", [
    (5, 4, 1000, 2, 2),        # two audit chunks, of 512 and 488 pairs
    (10007, 150, 250, 3, 0),   # twenty audit chunks of up to 13 pairs
    ((1 << 61) - 1, 20, 30, 5, 0),   # int64 words of the split kernel, 24-byte rows
    ((1 << 64) - 59, 20, 30, 5, 0),   # object words, coordinate tuples
])
def test_audit_command_streams_seeded_pairs(tmp_path, capsys, monkeypatch, p, n, pairs,
                                            seed, max_lcs):
    # the output of the list-fed audit, while the pairs now reach
    # audit_code as a generator
    spec = gen(tmp_path, capsys, p=p, n=n)
    fed = []
    audit = verify.audit_code

    def recording_audit(code_spec, message_pairs):
        fed.append(message_pairs)
        return audit(code_spec, message_pairs)

    monkeypatch.setattr(verify, "audit_code", recording_audit)
    rc, out, _ = run(capsys, "audit", "--spec", str(spec), "--pairs", str(pairs),
                     "--seed", str(seed))
    assert rc == 0
    assert out == f"pairs {pairs}\nmax-lcs {max_lcs}\n"
    assert len(fed) == 1 and not isinstance(fed[0], (list, tuple))


def test_roundtrip_command(tmp_path, capsys):
    spec = gen(tmp_path, capsys, p=13, n=12)
    rc, out, _ = run(capsys, "roundtrip", "--spec", str(spec), "--trials", "30",
                     "--seed", "2", "--algo", "both")
    assert rc == 0
    assert "trials 30" in out and "failures 0" in out
    rc, out, _ = run(capsys, "roundtrip", "--spec", str(spec), "--trials", "2",
                     "--seed", "3", "--algo", "linear", "--exhaustive")
    assert rc == 0
    assert "trials 440" in out and "failures 0" in out  # 2 * C(12,3)


def test_roundtrip_decodes_longer_words(tmp_path, capsys, monkeypatch):
    # survivor counts are drawn from 3..n, so most words have more than three
    # symbols, and every symbol's position is checked against the pattern
    spec = gen(tmp_path, capsys, p=13, n=12)
    args = ("roundtrip", "--spec", str(spec), "--trials", "20", "--seed", "5")
    rc, out, _ = run(capsys, *args)
    lines = dict(line.split() for line in out.splitlines())
    assert rc == 0 and lines["trials"] == "20" and lines["failures"] == "0"
    assert int(lines["longest"]) > 3
    # a decoder that drops the claimed fourth position fails every longer word
    def dropping_fourth(decode):
        def drop_fourth(*a, **kw):
            out = decode(*a, **kw)
            kept = out.kappa.kept[:3] + out.kappa.kept[4:]
            return dataclasses.replace(out, kappa=DeletionPattern(kept))
        return drop_fourth

    for algo, decode in list(cli.DECODERS.items()):
        monkeypatch.setitem(cli.DECODERS, algo, dropping_fourth(decode))
    rc, out, _ = run(capsys, *args)
    lines = dict(line.split() for line in out.splitlines())
    assert rc == 1 and int(lines["failures"]) > 0


def test_roundtrip_counts_failed_decodes(tmp_path, capsys, monkeypatch):
    # a decode that raises and one that returns another codeword both fail
    # their word, and any failure exits 1
    spec = gen(tmp_path, capsys)

    def refusing(spec, y, inst=None):
        raise RSDelError("refused")

    def wrong(spec, y, inst=None, real=cli.DECODERS["linear"]):
        out = real(spec, y, inst)
        other = encode(spec, Message(spec.ext.zero, spec.ext.one))
        return dataclasses.replace(out, codeword=other)

    monkeypatch.setitem(cli.DECODERS, "cubic", refusing)
    monkeypatch.setitem(cli.DECODERS, "linear", wrong)
    for algo in ("cubic", "linear", "both"):
        rc, out, _ = run(capsys, "roundtrip", "--spec", str(spec), "--trials", "3",
                         "--algo", algo)
        assert rc == 1 and out.endswith("successes 0\nfailures 3\n"), algo


def test_roundtrip_exhaustive_budget(tmp_path, capsys):
    spec = gen(tmp_path, capsys, p=13, n=12)
    args = ("roundtrip", "--spec", str(spec), "--trials", "2", "--exhaustive")
    rc, out, err = run(capsys, *args, "--budget", "439")  # 2 * C(12,3) = 440
    assert rc == 2 and "refusing" in err and "440" in err
    assert out == ""  # refused before any decode
    rc, out, _ = run(capsys, *args, "--budget", "440")
    assert rc == 0 and "trials 440" in out and "failures 0" in out
    # the budget caps only the exhaustive enumeration
    rc, out, _ = run(capsys, "roundtrip", "--spec", str(spec), "--trials", "5",
                     "--budget", "1")
    assert rc == 0 and "trials 5" in out


def bench_rows(path):
    """The document's truncated flag and its (p, n, algo, trials, field_ops)
    rows; the file is JSON whatever its name."""
    doc = json.loads(path.read_text())
    return doc["truncated"], [(r["p"], r["n"], r["algo"], r["trials"], r["field_ops"])
                              for r in doc["records"]]


MACHINE_KEYS = {"cpu", "python", "numpy", "openblas_num_threads"}


def check_bench_run(tmp_path, capsys, p_arg, name, p32):
    """Run the decode bench on n = 16, 32 and check its document: the decode
    counts are pinned (the random triples, and so their counts, are the
    same at every p), the build counts are n, and the document carries the
    machine stamp."""
    out_path = tmp_path / name
    rc, out, _ = run(capsys, "bench", "--p", p_arg, "--n", "16,32",
                     "--trials", "2", "--out", str(out_path))
    assert rc == 0 and "wrote 14 records" in out
    assert bench_rows(out_path) == (False, [
        (10007, 16, "build_code", 2, 16), (10007, 16, "cubic", 2, 1838),
        (10007, 16, "linear", 2, 564), (10007, 16, "cubic-random", 2, 1455),
        (10007, 16, "linear-random", 2, 564), (10007, 16, "cubic-midpair", 2, 1110),
        (10007, 16, "linear-received", 2, 651),
        (p32, 32, "build_code", 2, 32), (p32, 32, "cubic", 2, 8006),
        (p32, 32, "linear", 2, 804), (p32, 32, "cubic-random", 2, 5248),
        (p32, 32, "linear-random", 2, 804), (p32, 32, "cubic-midpair", 2, 2206),
        (p32, 32, "linear-received", 2, 987)])
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"truncated", "machine", "records"} and set(doc["machine"]) == MACHINE_KEYS
    records = doc["records"]
    assert all(set(r) == {f.name for f in dataclasses.fields(cli.BenchRecord)}
               for r in records)
    by_algo = {(r["n"], r["algo"]): r for r in records}
    for n in (16, 32):
        # the last triple maximizes the cubic count and the mid pair (1,
        # ceil(n/2), n) matches on the first row; the linear count does not
        # depend on the triple
        assert by_algo[n, "cubic"]["field_ops"] > by_algo[n, "cubic-random"]["field_ops"] \
            > by_algo[n, "cubic-midpair"]["field_ops"]
        assert by_algo[n, "linear"]["field_ops"] == by_algo[n, "linear-random"]["field_ops"]
    for r in records:
        assert 0.0 <= r["search_time"] <= r["total_time"]
        # the median of two trials is their mean
        assert r["p50_time"] == pytest.approx(r["total_time"])
        if r["algo"] == "build_code":
            assert r["search_time"] == r["total_time"] > 0


def test_bench_command(tmp_path, capsys):
    # one p for every n (the only decode run of that grid); a .csv name still
    # gets the JSON document
    check_bench_run(tmp_path, capsys, "10007", "bench.csv", 10007)


def test_bench_json(tmp_path, capsys):
    # one p per n
    check_bench_run(tmp_path, capsys, "10007,1073741789", "bench.json", 1073741789)


def test_bench_budget_truncation(tmp_path, capsys):
    for n_arg, name in (("16", "bench.json"), ("16,32", "bench.csv")):
        out_path = tmp_path / name
        rc, out, _ = run(capsys, "bench", "--p", "10007", "--n", n_arg, "--trials", "1",
                         "--budget-seconds", "1e-9", "--out", str(out_path))
        assert rc == 0 and "(truncated)" in out
        doc = json.loads(out_path.read_text())
        assert doc == {"truncated": True, "machine": doc["machine"], "records": []}
        assert set(doc["machine"]) == MACHINE_KEYS


def test_bench_machine_stamp(monkeypatch):
    # the versions of this process, and the OpenBLAS thread variable as set
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    stamp = cli.machine_stamp()
    assert set(stamp) == MACHINE_KEYS
    assert stamp["python"] == platform.python_version() and stamp["numpy"] == np.__version__
    assert stamp["openblas_num_threads"] == "1"
    assert stamp["cpu"] is None or isinstance(stamp["cpu"], str)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert cli.machine_stamp()["openblas_num_threads"] is None


def test_bench_machine_stamp_without_cpuinfo(monkeypatch):
    # where /proc/cpuinfo cannot be read, the CPU is platform.processor(),
    # or None when that is empty
    def unreadable(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(cli, "open", unreadable, raising=False)
    monkeypatch.setattr(platform, "processor", lambda: "test-cpu")
    assert cli.machine_stamp()["cpu"] == "test-cpu"
    monkeypatch.setattr(platform, "processor", lambda: "")
    assert cli.machine_stamp()["cpu"] is None


def test_bench_certify(tmp_path, capsys):
    out_json = tmp_path / "certify.json"
    for p_arg, p32 in (("10007,1073741789", 1073741789), ("10007", 10007)):
        rc, out, _ = run(capsys, "bench", "--certify", "--p", p_arg,
                         "--n", "16,32", "--trials", "2", "--out", str(out_json))
        assert rc == 0 and "wrote 4 records" in out
        assert bench_rows(out_json) == (False, [
            (10007, 16, "check_injectivity", 2, 560), (10007, 16, "audit_code", 2, 2 * 64 * 16),
            (p32, 32, "check_injectivity", 2, 4960), (p32, 32, "audit_code", 2, 2 * 64 * 32)])
        for r in json.loads(out_json.read_text())["records"]:
            assert 0.0 < r["search_time"] == r["total_time"]
            assert r["p50_time"] == pytest.approx(r["total_time"])
    rc, out, _ = run(capsys, "bench", "--certify", "--p", "10007", "--n", "16",
                     "--trials", "1", "--budget-seconds", "1e-9", "--out", str(out_json))
    assert rc == 0 and "(truncated)" in out
    doc = json.loads(out_json.read_text())
    assert doc == {"truncated": True, "machine": doc["machine"], "records": []}


def test_bench_p50_is_the_median_trial(monkeypatch):
    # trials of 1, 2 and 6 s per job: mean 3, median 2
    ticks = iter([0.0] + [0, 1, 1, 3, 3, 9] + [9, 10, 10, 12, 12, 18])
    monkeypatch.setattr(cli, "perf_counter", lambda: next(ticks))
    records, truncated = cli.run_certify_bench([10007], [16], trials=3)
    assert not truncated
    assert [(r.algo, r.total_time, r.search_time, r.p50_time) for r in records] == [
        ("check_injectivity", 3.0, 3.0, 2.0), ("audit_code", 3.0, 3.0, 2.0)]


def test_bench_build_code_p50_is_the_median_trial(monkeypatch):
    # builds of 1, 2 and 6 s: mean 3, median 2
    ticks = chain([0.0, 0, 1, 1, 3, 3, 9], count(10))   # then one tick per read
    monkeypatch.setattr(cli, "perf_counter", lambda: next(ticks))
    records, truncated = cli.run_bench([10007], [16], trials=3)
    assert not truncated and records[0].algo == "build_code"
    assert (records[0].total_time, records[0].search_time, records[0].p50_time,
            records[0].field_ops) == (3.0, 3.0, 2.0, 16)


def test_bench_times_decodes_without_a_probe(monkeypatch):
    # a timed decode runs without a probe, as callers run it; the counts come
    # from a second, untimed pass of the same words under one probe per record
    reads = [0]

    def clock():
        reads[0] += 1
        return float(reads[0])

    monkeypatch.setattr(cli, "perf_counter", clock)
    windows = {}   # the decodes between two clock reads, by the first read
    for name in ("decode_cubic", "decode_linear"):
        def spy(spec, y, inst=None, real=getattr(decoder, name)):
            # the walk reads the clock once, then twice around each trial and
            # each probed pass; the warm-up decodes fall between windows
            if reads[0] % 2 == 0:
                windows.setdefault(reads[0], []).append((inst, y))
            return real(spec, y, inst)
        monkeypatch.setattr(decoder, name, spy)
    records, _ = cli.run_bench([10007], [16], trials=2)
    timed = [w[0] for w in windows.values() if len(w) == 1]
    probed = [w for w in windows.values() if len(w) == 2]
    assert len(timed) == 6 * 2 and len(probed) == 6
    assert all(inst is None for inst, _ in timed)
    assert [y for _, y in timed] == [y for w in probed for _, y in w]
    assert all(w[0][0] is w[1][0] is not None for w in probed)
    assert [r.field_ops for r in records[1:]] == [1838, 564, 1455, 564, 1110, 651]


def test_bench_refuses_a_wrong_decode(monkeypatch):
    def wrong(spec, y, inst=None, real=decoder.decode_cubic):
        out = real(spec, y, inst)
        return dataclasses.replace(out, codeword=encode(spec, Message(spec.ext.zero, spec.ext.one)))

    monkeypatch.setattr(decoder, "decode_cubic", wrong)
    with pytest.raises(AssertionError, match="benchmark decode returned a wrong codeword"):
        cli.run_bench([7], [6], trials=1)


def test_bench_times_trials_with_the_collector_off(monkeypatch):
    # one collection before each job and none inside its trials, with the
    # collector off throughout them; its prior state comes back after every
    # job, also when a trial's take raises
    events = []
    monkeypatch.setattr(gc, "collect", lambda: events.append("collect"))

    def call(tag):
        events.append((tag, gc.isenabled()))
        return tag

    def take(tag):
        if tag == "raise":
            raise RuntimeError(tag)

    def jobs(p, n):
        yield "a", call, [("a1",), ("a2",)], take, 1
        yield "b", call, [("b1",)], take, 1

    def failing(p, n):
        yield "c", call, [("raise",)], take, 1

    was_enabled = gc.isenabled()
    try:
        gc.enable()
        records, truncated = cli._run_jobs([7], [3], None, jobs)
        assert [r.algo for r in records] == ["a", "b"] and not truncated
        assert events == ["collect", ("a1", False), ("a2", False), "collect", ("b1", False)]
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            cli._run_jobs([7], [3], None, failing)
        assert gc.isenabled()
        gc.disable()
        events.clear()
        cli._run_jobs([7], [3], None, jobs)
        assert events == ["collect", ("a1", False), ("a2", False), "collect", ("b1", False)]
        assert not gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_usage_error_without_subcommand(capsys):
    # argparse's own usage errors come back as the exit code, not SystemExit
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_module_entry_point():
    # the child finds the package where this process imported it from, also
    # when pytest put src/ on sys.path without setting PYTHONPATH
    src = str(Path(rsdel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "rsdel", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    for name in ("gen-code", "encode", "corrupt", "decode", "check-condition",
                 "audit", "roundtrip", "bench"):
        assert name in proc.stdout


def test_module_entry_point_writes_a_spec(tmp_path):
    # python -m rsdel runs main through __main__.py and exits with its code
    src = str(Path(rsdel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    spec_path = tmp_path / "code.spec"
    proc = subprocess.run([sys.executable, "-m", "rsdel", "gen-code", "--p", "7", "--n", "6",
                           "--out", str(spec_path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout == f"wrote spec p=7 n=6 g=(2,0,0) to {spec_path}\n"
    assert load_spec(spec_path) == build_code(7, 6)
