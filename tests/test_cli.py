"""Command-line behavior: outputs, manifests, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qphase import analysis, cli, husimi, imageio, rotator, stdmap, wigner
from qphase.cli import main


def read_manifest(outdir):
    manifest = json.loads((outdir / "manifest.json").read_text())
    # every checksum in the manifest matches the file on disk
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
    return manifest


def test_wigner_command(tmp_path, capsys):
    out = tmp_path / "w"
    assert main(["wigner", "--K", "0.5", "--nq", "4", "--t", "2", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "sum W" in report and "xi" in report
    # the printed sum rule holds
    total = float([ln for ln in report.splitlines() if ln.startswith("sum W ")][0].split("=")[1])
    assert abs(total - 1.0) < 1e-8
    manifest = read_manifest(out)
    assert manifest["command"] == "wigner"
    assert set(manifest["outputs"]) == {"wigner.csv", "wigner.pgm"}
    assert set(manifest["versions"]) == {"python", "numpy", "qphase"}


def test_wigner_csv_bytes_match_per_value_formatting(tmp_path):
    out = tmp_path / "w"
    assert main(["wigner", "--nq", "5", "--K", "2", "--t", "10", "--out", str(out)]) == 0
    params = rotator.RotatorParams(n_q=5, K=2.0)
    psi = rotator.evolve(rotator.initial_band_state(params), params, 10)
    expect = oracles.grid_csv_reference(wigner.wigner_from_momentum(psi).values)
    assert (out / "wigner.csv").read_bytes() == expect.encode("ascii")
    read_manifest(out)


def test_manifest_digest_spans_blocks(tmp_path):
    # three 1 MiB blocks and a partial one
    data = np.random.default_rng(0).bytes(3 * (1 << 20) + 12345)
    (tmp_path / "blob").write_bytes(data)
    assert cli._sha256(tmp_path / "blob") == hashlib.sha256(data).hexdigest()


def test_husimi_command_matches_library(tmp_path, capsys):
    out = tmp_path / "h"
    assert main(["husimi", "--K", "2", "--nq", "4", "--t", "3", "--out", str(out)]) == 0
    lines = (out / "husimi.csv").read_text().splitlines()
    assert lines[0] == "row,col,value"
    got = np.zeros((4, 4))
    for ln in lines[1:]:
        r, c, v = ln.split(",")
        got[int(r), int(c)] = float(v)
    params = rotator.RotatorParams(n_q=4, K=2.0)
    psi = rotator.evolve(rotator.initial_band_state(params), params, 3)
    expect = husimi.modified_husimi(psi).probabilities
    assert np.max(np.abs(got - expect)) < 1e-15


def test_classical_band_occupies_its_momentum_strip(tmp_path):
    out = tmp_path / "c"
    assert main(["classical", "--K", "0.5", "--t", "0", "--seed", "1",
                 "--shots", "20000", "--out", str(out)]) == 0
    px = imageio.load_pgm(out / "classical_K0.5_t0.pgm").pixels
    # before any kick the band sits in the lowest eighth of the p axis
    assert px[:, :32].sum() > 0
    assert px[:, 32:].sum() == 0


def test_classical_default_covers_standard_kick_strengths(tmp_path):
    out = tmp_path / "c4"
    assert main(["classical", "--t", "0", "--seed", "1", "--shots", "2000",
                 "--out", str(out)]) == 0
    names = {p.name for p in out.glob("*.pgm")}
    assert names == {"classical_K0.5_t0.pgm", "classical_K0.9_t0.pgm",
                     "classical_K1.5_t0.pgm", "classical_K2_t0.pgm"}


def test_classical_portrait_is_the_documented_map_bytes(tmp_path):
    # the portrait after 50 kicks, to the byte, against the same band advanced
    # by the documented `%` loop and rendered through the same histogram
    out = tmp_path / "cmap"
    assert main(["classical", "--K", "2", "--t", "50", "--shots", "5000", "--seed", "7",
                 "--out", str(out)]) == 0
    band = stdmap.initial_band(2.0, count=5000, seed=7)
    theta, p = oracles.stdmap_reference(band.theta, band.p, 2.0, 50)
    density = stdmap.histogram_density(stdmap.ClassicalEnsemble(theta, p, 2.0), 256, 256)
    imageio.render_heatmap(density, signed=False, path=tmp_path / "reference.pgm")
    assert (out / "classical_K2_t50.pgm").read_bytes() == (tmp_path / "reference.pgm").read_bytes()
    read_manifest(out)


def test_scan_command_csv_and_fit(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["scan", "husimi", "--K", "2", "--t", "5", "--fit-range", "4:8",
                 "--out", str(out)]) == 0
    report = capsys.readouterr().out.splitlines()
    # both fits, raw first, three lines each
    assert report[0] == "fit on xi_raw over n_q in [4, 8]:"
    assert report[3] == "fit on xi_wavelet over n_q in [4, 8]:"
    assert len(report) == 6 and all("exponent" in report[i] for i in (1, 4))
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "K,n_q,xi_raw,xi_wavelet,R,S"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(r[1]) for r in rows] == [4, 6, 8]  # even counts only, sorted
    # spot-check one row against the library
    expect = analysis.husimi_scan_row(2.0, 4, 5)
    assert float(rows[0][2]) == pytest.approx(expect.xi_raw, rel=1e-12)
    assert float(rows[0][4]) == pytest.approx(expect.R, rel=1e-12)


def test_scan_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["scan", "wigner", "--K", "0.5", "--t", "3", "--fit-range", "3:5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


def test_scan_image_distribution(tmp_path, capsys):
    out = tmp_path / "im"
    assert main(["scan", "image", "--fit-range", "6:10",
                 "--image", "spots", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "fit on xi_raw" in report and "fit on xi_wavelet" in report
    lines = (out / "scan.csv").read_text().splitlines()
    assert [int(ln.split(",")[1]) for ln in lines[1:]] == [6, 8, 10]


def test_scan_unknown_image_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["scan", "image", "--fit-range", "6:8", "--image", "nope", "--out", "x"])
    assert exc.value.code == 2


def test_scan_empty_range_is_usage_error(tmp_path, capsys):
    # husimi scans need even qubit counts; a range with none is unusable
    out = tmp_path / "bad"
    code = main(["scan", "husimi", "--K", "2", "--t", "1", "--fit-range", "5:5",
                 "--out", str(out)])
    assert code == 2


def _rows_run(monkeypatch) -> list:
    """Record every scan row that starts instead of running it."""
    computed = []
    for name in ("wigner_scan_row", "husimi_scan_row", "image_scan_row"):
        monkeypatch.setattr(analysis, name, lambda *args: computed.append(args))
    monkeypatch.setattr(imageio, "corpus_image", lambda *args: computed.append(args))
    return computed


def _kicks(distribution, K, t) -> list:
    # only the rotator scans take a kick strength and a kick count
    return [] if distribution == "image" else ["--K", K, "--t", t]


@pytest.mark.parametrize("distribution, fit_range", [
    ("husimi", "14:16"), ("wigner", "5:6"), ("image", "6:8")])
def test_scan_refuses_a_range_too_short_to_fit_before_any_row(tmp_path, monkeypatch,
                                                              distribution, fit_range):
    # the fit needs three rows; fewer is refused before any row runs or any
    # file is written
    computed = _rows_run(monkeypatch)
    out = tmp_path / "short"
    code = main(["scan", distribution, *_kicks(distribution, "2", "1000"),
                 "--fit-range", fit_range, "--out", str(out)])
    assert code == 2
    assert computed == []
    assert not out.exists()


def test_rotator_scan_needs_kick_strength_and_count(tmp_path):
    # without --K and --t a rotator scan would fit the unevolved state at K = 0
    out = tmp_path / "none"
    for flags in ([], ["--K", "2"], ["--t", "10"]):
        for distribution in ("wigner", "husimi"):
            _rejected_with_exit_2(["scan", distribution, *flags, "--fit-range", "4:8",
                                   "--out", str(out)])
            assert not out.exists()


@pytest.mark.parametrize("distribution, foreign", [
    ("wigner", "--tile=16"), ("wigner", "--image=spots"), ("husimi", "--tile=16"),
    ("husimi", "--image=spots"), ("husimi", "--wavelet"), ("image", "--K=2"),
    ("image", "--t=10"), ("image", "--wavelet")])
def test_scan_rejects_options_of_another_distribution(tmp_path, monkeypatch,
                                                      distribution, foreign):
    # each distribution takes only the options its rows read; another
    # distribution's option is a usage error before any row runs
    computed = _rows_run(monkeypatch)
    out = tmp_path / "foreign"
    _rejected_with_exit_2(["scan", distribution, *_kicks(distribution, "2", "10"),
                           "--fit-range", "4:8", foreign, "--out", str(out)])
    assert computed == []
    assert not out.exists()


@pytest.mark.parametrize("argv, read", [
    (["wigner", "--K", "2", "--t", "3", "--fit-range", "3:5"], {"K": 2.0, "t": 3}),
    (["husimi", "--K", "0.5", "--t", "3", "--fit-range", "4:8"], {"K": 0.5, "t": 3}),
    (["image", "--fit-range", "8:12", "--tile", "16", "--image", "spots"],
     {"tile": 16, "image": "spots"}),
    (["image", "--fit-range", "6:10"], {"tile": 0, "image": "portrait"})])
def test_scan_manifest_records_exactly_the_options_read(tmp_path, argv, read):
    out = tmp_path / "m"
    assert main(["scan", *argv, "--out", str(out)]) == 0
    lo, hi = argv[argv.index("--fit-range") + 1].split(":")
    expect = {"distribution": argv[0], "range": [int(lo), int(hi)], **read}
    assert read_manifest(out)["parameters"] == expect


@pytest.mark.parametrize("argv, read", [
    (["--method", "topk", "--k", "64"], {"tile": 0}),
    (["--method", "topk", "--k", "64", "--tile", "4"], {"tile": 4}),
    (["--method", "montecarlo", "--k", "64"], {"seed": 0}),
    (["--method", "montecarlo", "--k", "64", "--seed", "9"], {"seed": 9})])
def test_reconstruct_manifest_records_exactly_the_options_read(tmp_path, argv, read):
    src, out = tmp_path / "src.pgm", tmp_path / "m"
    imageio.save_pgm(imageio.synthetic_corpus(16)["spots"], src)
    assert main(["reconstruct", str(src), *argv, "--out", str(out)]) == 0
    expect = {"image": str(src), "method": argv[1], "k": 64, **read}
    assert read_manifest(out)["parameters"] == expect


@pytest.mark.parametrize("argv", [["--method", "montecarlo", "--tile", "16"],
                                  ["--method", "topk", "--seed", "5"]])
def test_reconstruct_refuses_the_other_methods_option_before_reading(tmp_path, monkeypatch,
                                                                     argv):
    # --tile is read by topk alone and --seed by montecarlo alone
    monkeypatch.setattr(imageio, "load_pgm", lambda path: pytest.fail("the image was read"))
    out = tmp_path / "r"
    assert main(["reconstruct", str(tmp_path / "p.pgm"), *argv, "--k", "64",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classical", "--K", "1", "--t", "1", "--seed", "1", "--shots", "10"],
    ["wigner", "--K", "2", "--nq", "3", "--t", "1"],
    ["husimi", "--K", "2", "--nq", "4", "--t", "1"],
    ["scan", "image", "--fit-range", "4:8"],
    ["reconstruct", "p.pgm", "--method", "topk", "--k", "4"],
    ["amplify", "--K", "0.5", "--nq", "3", "--t", "0", "--region", "0:16,0:4"],
], ids=lambda argv: argv[0])
def test_unusable_out_is_an_invalid_parameter(tmp_path, monkeypatch, argv):
    # --out names an existing file, or a path under one; every other input
    # is valid. It is refused before any work, so no scan row runs
    monkeypatch.chdir(tmp_path)
    imageio.save_pgm(imageio.synthetic_corpus(16)["texture"], tmp_path / "p.pgm")
    computed = _rows_run(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out in (blocker, blocker / "sub"):
        assert main([*argv, "--out", str(out)]) == 2
    assert blocker.read_text() == "kept"
    assert computed == []


@pytest.mark.parametrize("argv, code", [
    (["scan", "image", "--fit-range", "4:6"], 2),
    (["classical", "--K", "nan", "--t", "5", "--seed", "1", "--shots", "100"], 2),
    (["scan", "husimi", "--K", "-1", "--t", "1", "--fit-range", "4:8"], 2),
    (["wigner", "--nq", "100", "--K", "1", "--t", "1"], 3),
    (["husimi", "--nq", "100", "--K", "1", "--t", "1"], 3),
    (["scan", "wigner", "--K", "1", "--t", "1", "--fit-range", "20:30"], 3),
    (["reconstruct", "truncated.pgm", "--method", "topk", "--k", "4"], 4),
    (["reconstruct", "missing.pgm", "--method", "topk", "--k", "4"], 4),
], ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else None)
def test_a_refused_run_makes_no_out_directory(tmp_path, monkeypatch, argv, code):
    # every input is checked before --out is made, its parents included
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truncated.pgm").write_bytes(b"P2\n4 4\n255\n0 0 0\n")
    out = tmp_path / "d1" / "s"
    assert main([*argv, "--out", str(out)]) == code
    assert not out.parent.exists()


def test_scan_image_above_register_cap_is_a_resource_error(tmp_path):
    out = tmp_path / "big"
    assert main(["scan", "image", "--fit-range", "100:104", "--out", str(out)]) == 3
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize("distribution, fit_range", [
    ("image", "16:24"), ("husimi", "18:24"), ("wigner", "20:23"), ("wigner", "8:30000000")])
def test_scan_refuses_a_range_above_the_cap_before_any_row(tmp_path, monkeypatch,
                                                           distribution, fit_range):
    computed = _rows_run(monkeypatch)
    out = tmp_path / "big"
    start = time.monotonic()
    code = main(["scan", distribution, *_kicks(distribution, "1", "1"),
                 "--fit-range", fit_range, "--out", str(out)])
    assert code == 3
    assert time.monotonic() - start < 1.0
    assert computed == []
    assert not (out / "scan.csv").exists()


def test_memory_error_is_a_resource_exit(tmp_path, monkeypatch, caplog):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(stdmap, "initial_band", exhausted)
    assert main(["classical", "--K", "1", "--t", "1", "--seed", "1",
                 "--shots", "1000000000000", "--out", str(tmp_path / "c")]) == 3
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert "out of memory" in errors[0].getMessage()
    assert errors[0].exc_info is None


def test_malformed_fit_range_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["scan", "wigner", "--K", "1", "--t", "1", "--fit-range", "57", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", "wigner", "--K", "1", "--t", "1", "--fit-range", "7:5", "--out", "x"])
    assert exc.value.code == 2


def test_reconstruct_full_budget_reproduces_image(tmp_path, capsys):
    src = tmp_path / "src.pgm"
    imageio.save_pgm(imageio.synthetic_corpus(32)["portrait"], src)
    out = tmp_path / "r"
    assert main(["reconstruct", str(src), "--method", "topk", "--k", "1024",
                 "--out", str(out)]) == 0
    assert "psnr" in capsys.readouterr().out
    # an exact coefficient set reproduces the source pixels bit for bit
    assert (out / "reconstructed.pgm").read_bytes() == src.read_bytes()


def test_reconstruct_montecarlo_runs(tmp_path, capsys):
    src = tmp_path / "src.pgm"
    imageio.save_pgm(imageio.synthetic_corpus(16)["texture"], src)
    out = tmp_path / "r"
    assert main(["reconstruct", str(src), "--method", "montecarlo", "--k", "5000",
                 "--seed", "3", "--out", str(out)]) == 0
    assert "l2 error" in capsys.readouterr().out


def test_reconstruct_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.pgm"
    for payload in (b"P5\n4 4\n255\n" + bytes(7),  # truncated
                    b"P2\n1048576 1048576\n255\n0 0 0\n"):  # 2^40 pixels declared
        bad.write_bytes(payload)
        assert main(["reconstruct", str(bad), "--method", "topk", "--k", "4",
                     "--out", str(tmp_path / "r")]) == 4


def test_reconstruct_missing_file_exit_code(tmp_path):
    assert main(["reconstruct", str(tmp_path / "missing.pgm"), "--method", "topk",
                 "--k", "4", "--out", str(tmp_path / "r")]) == 4


def test_reconstruct_negative_seed_rejected(tmp_path):
    src = tmp_path / "src.pgm"
    imageio.save_pgm(imageio.synthetic_corpus(16)["texture"], src)
    assert main(["reconstruct", str(src), "--method", "montecarlo", "--k", "50",
                 "--seed", "-1", "--out", str(tmp_path / "r")]) == 2


def test_reconstruct_montecarlo_shot_bound(tmp_path):
    src = tmp_path / "src.pgm"
    imageio.save_pgm(imageio.synthetic_corpus(16)["texture"], src)
    assert main(["reconstruct", str(src), "--method", "montecarlo",
                 "--k", "100000000000000000000", "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("K", ["nan", "inf", "-1"])
def test_classical_non_finite_kick_strength_rejected(tmp_path, K):
    out = tmp_path / "c"
    assert main(["classical", "--K", K, "--t", "5", "--seed", "1", "--shots", "100",
                 "--out", str(out)]) == 2
    assert not list(out.glob("*.pgm"))


@pytest.mark.parametrize("shots", ["9223372036854775807", "100000000000000000000"])
def test_classical_unsizable_ensemble_is_a_resource_error(tmp_path, shots):
    out = tmp_path / "c"
    assert main(["classical", "--K", "1", "--t", "1", "--seed", "1", "--shots", shots,
                 "--out", str(out)]) == 3
    assert not list(out.glob("*.pgm"))


def test_classical_negative_seed_rejected(tmp_path):
    assert main(["classical", "--K", "1", "--t", "1", "--seed", "-1", "--shots", "10",
                 "--out", str(tmp_path / "c")]) == 2


def test_amplify_command_report(tmp_path, capsys):
    out = tmp_path / "amp"
    assert main(["amplify", "--K", "0.5", "--nq", "3", "--t", "0",
                 "--region", "0:16,0:4", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "region weight" in report
    assert "closed-form weight" in report
    manifest = read_manifest(out)
    assert set(manifest["outputs"]) == {"amplified.pgm"}


def test_amplify_resource_limit_exit_code(capsys):
    assert main(["amplify", "--K", "0.5", "--nq", "11", "--t", "0",
                 "--region", "0:2,0:2"]) == 3


def test_husimi_odd_qubit_count_refused_before_evolving(tmp_path, monkeypatch):
    evolved = []
    monkeypatch.setattr(rotator, "evolve", lambda *args: evolved.append(args))
    out = tmp_path / "odd"
    assert main(["husimi", "--K", "2", "--nq", "17", "--t", "1000", "--out", str(out)]) == 2
    assert evolved == []
    assert not out.exists()


@pytest.mark.parametrize("command, n_q", [("wigner", "100"), ("husimi", "64")])
def test_huge_register_is_a_resource_error(tmp_path, command, n_q):
    out = tmp_path / "o"
    assert main([command, "--K", "1", "--nq", n_q, "--t", "1", "--out", str(out)]) == 3
    assert not (out / "manifest.json").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # numpy is the one runtime dependency: importing the CLI loads no scipy
    # module at all, scipy.stats included
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qphase.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "[]"


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="malloc arenas are glibc's")
def test_cli_threads_share_one_malloc_arena_whatever_the_command_order(tmp_path):
    # glibc's malloc_stats prints one "Arena i:" block per arena. The split
    # helper starts only with the second command, after the first has
    # allocated; main limits the process to one arena before any thread exists
    src = str(Path(cli.__file__).resolve().parents[1])
    scan = ["scan", "husimi", "--K", "2", "--t", "1", "--fit-range", "8:12",
            "--out", str(tmp_path / "s")]
    wig = ["wigner", "--nq", "9", "--K", "2", "--t", "1", "--out", str(tmp_path / "w")]
    code = (f"import sys, ctypes; sys.path.insert(0, {src!r})\n"
            "from qphase import cli, kernels\n"
            "kernels.usable_cores = lambda: 2\n"
            f"assert cli.main({scan!r}) == 0 and kernels._helper is None\n"
            f"assert cli.main({wig!r}) == 0 and kernels._helper is not None\n"
            "stats = ctypes.CDLL(None).malloc_stats\n"
            "stats.argtypes, stats.restype = (), None\n"
            "stats()\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120, env=env)
    assert run.stderr.count("Arena ") == 1, run.stderr


def test_amplify_region_bounds_checked(capsys):
    assert main(["amplify", "--K", "0.5", "--nq", "3", "--t", "0",
                 "--region", "0:99,0:2"]) == 2


def test_amplify_region_refused_before_the_pipeline(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(wigner, "wigner_register_pipeline", lambda *args: ran.append(args))
    out = tmp_path / "amp"
    assert main(["amplify", "--K", "2", "--nq", "10", "--t", "1000",
                 "--region", "0:5000,0:8", "--out", str(out)]) == 2
    assert ran == []
    assert not out.exists()


def test_amplify_single_cell_region(capsys):
    # one region cell has no amplitude ratio to preserve; the weights still print
    assert main(["amplify", "--K", "0.5", "--nq", "4", "--t", "10",
                 "--region", "0:1,0:1"]) == 0
    report = capsys.readouterr().out
    assert "region weight: 5.189655e-04 -> 0.998034" in report
    assert "closed-form weight" in report
    assert "ratio preservation" not in report


def test_malformed_region_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--K", "0.5", "--nq", "3", "--t", "0", "--region", "1,2"])
    assert exc.value.code == 2


def test_negative_region_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--K", "0.5", "--nq", "3", "--t", "0", "--region=-4:-1,0:8"])
    assert exc.value.code == 2


# Fixed example sequence and no per-example deadline: the suite must give the
# same verdict on every run, also on a loaded machine.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)
_NUMBER = st.from_regex(r"\A[+-]?[0-9]{1,3}\Z")


def _rejected_with_exit_2(argv) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@_PROPERTY
@given(st.one_of(st.text(max_size=12),
                 st.builds(lambda a, b: f"{a}:{b}", _NUMBER, _NUMBER)))
def test_property_fit_range_is_valid_or_usage_error(text):
    try:
        lo, hi = cli._fit_range(text)
    except argparse.ArgumentTypeError:
        _rejected_with_exit_2(["scan", "image", f"--fit-range={text}", "--out", "x"])
        return
    assert 1 <= lo <= hi


@_PROPERTY
@given(st.one_of(st.text(max_size=16),
                 st.builds(lambda a, b, c, d: f"{a}:{b},{c}:{d}",
                           _NUMBER, _NUMBER, _NUMBER, _NUMBER)))
def test_property_region_is_valid_or_usage_error(text):
    try:
        r0, r1, c0, c1 = cli._region(text)
    except argparse.ArgumentTypeError:
        _rejected_with_exit_2(["amplify", "--K", "0.5", "--nq", "3", "--t", "0",
                               f"--region={text}"])
        return
    assert 0 <= r0 < r1 and 0 <= c0 < c1


def test_abbreviated_option_is_a_usage_error(tmp_path):
    # `--t` is the kick count of the rotator commands; reconstruct must not
    # read it as a prefix of --tile
    src = tmp_path / "p.pgm"
    imageio.save_pgm(imageio.synthetic_corpus(64)["portrait"], src)
    out = tmp_path / "r"
    _rejected_with_exit_2(["reconstruct", str(src), "--method", "topk", "--k", "100",
                           "--t", "16", "--out", str(out)])
    assert not out.exists()
    for argv in (["wigner", "--n", "4", "--K", "2", "--t", "1", "--out", str(out)],
                 ["classical", "--t", "1", "--seed", "1", "--sh", "10", "--out", str(out)],
                 ["amplify", "--nq", "3", "--K", "2", "--t", "0", "--reg", "0:1,0:1"],
                 ["scan", "husimi", "--K", "2", "--t", "1", "--fit", "4:8", "--out", str(out)]):
        _rejected_with_exit_2(argv)


def test_full_spellings_of_the_benchmark_commands_parse(tmp_path):
    # every option spelled out in full, as perfbench/workloads.py passes them
    pgm, out = str(tmp_path / "p.pgm"), str(tmp_path / "o")
    parser = cli.build_parser()
    for argv, expect in (
            (["wigner", "--nq", "9", "--K", "2", "--t", "100"], {"nq": 9, "K": 2.0, "t": 100}),
            (["classical", "--K", "2", "--t", "200", "--shots", "100000", "--seed", "7"],
             {"K": 2.0, "t": 200, "shots": 100000, "seed": 7}),
            (["reconstruct", pgm, "--method", "topk", "--k", "2500"],
             {"image": pgm, "method": "topk", "k": 2500, "tile": 0}),
            (["reconstruct", pgm, "--method", "topk", "--tile", "16", "--k", "2500"],
             {"tile": 16, "k": 2500}),
            (["reconstruct", pgm, "--method", "montecarlo", "--k", "2500", "--seed", "5"],
             {"method": "montecarlo", "seed": 5}),
            (["amplify", "--nq", "7", "--K", "2", "--t", "100", "--region", "16:32,0:16"],
             {"nq": 7, "region": (16, 32, 0, 16)}),
            (["scan", "husimi", "--K", "0.9", "--t", "1003", "--fit-range", "8:14"],
             {"distribution": "husimi", "K": 0.9, "t": 1003, "fit_range": (8, 14)})):
        args = vars(parser.parse_args(argv + ["--out", out]))
        assert args["out"] == out
        assert {key: args[key] for key in expect} == expect, argv


def test_bench_outputs_prints_the_sha256_of_every_written_file(tmp_path, capsys):
    from qphase import bench
    assert bench.main(["--outputs", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = {name for name, _ in bench._output_commands(tmp_path / "p.pgm")}
    assert {line.split("  ")[1].split("/")[0] for line in lines} == names
    for line in lines:
        digest, file = line.split("  ")
        assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest
    assert len(lines) == len(names) + 2  # `wigner` and `husimi` write a CSV and a PGM
