"""Command-line behavior: outputs, manifests, exit codes, determinism."""

import hashlib
import json

import numpy as np
import pytest

from qphase import analysis, imageio
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
    assert "numpy" in manifest["versions"]


def test_husimi_command_matches_library(tmp_path, capsys):
    out = tmp_path / "h"
    assert main(["husimi", "--K", "2", "--nq", "4", "--t", "3", "--out", str(out)]) == 0
    lines = (out / "husimi.csv").read_text().splitlines()
    assert lines[0] == "row,col,value"
    got = np.zeros((4, 4))
    for ln in lines[1:]:
        r, c, v = ln.split(",")
        got[int(r), int(c)] = float(v)
    from qphase import husimi, rotator
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


def test_scan_command_csv_and_fit(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["scan", "husimi", "--K", "2", "--t", "5", "--fit-range", "4:8",
                 "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "fit on xi_raw" in report and "exponent" in report
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
    assert main(["scan", "image", "--fit-range", "6:10", "--wavelet",
                 "--image", "spots", "--out", str(out)]) == 0
    assert "fit on xi_wavelet" in capsys.readouterr().out
    lines = (out / "scan.csv").read_text().splitlines()
    assert [int(ln.split(",")[1]) for ln in lines[1:]] == [6, 8, 10]


def test_scan_empty_range_is_usage_error(tmp_path, capsys):
    # husimi scans need even qubit counts; a range with none is unusable
    out = tmp_path / "bad"
    code = main(["scan", "husimi", "--K", "2", "--t", "1", "--fit-range", "5:5",
                 "--out", str(out)])
    assert code == 2


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


def test_amplify_region_bounds_checked(capsys):
    assert main(["amplify", "--K", "0.5", "--nq", "3", "--t", "0",
                 "--region", "0:99,0:2"]) == 2


def test_malformed_region_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--K", "0.5", "--nq", "3", "--t", "0", "--region", "1,2"])
    assert exc.value.code == 2


def test_negative_region_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--K", "0.5", "--nq", "3", "--t", "0", "--region=-4:-1,0:8"])
    assert exc.value.code == 2
