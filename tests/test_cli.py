import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import write_csv_rows
from rotgram import cli, fake_uniformity, radon, so3
from rotgram import distributions as dist


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return header, rows


class TestSample:
    def test_rows_are_rotations(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sample", "--family", "haar", "--n", "3", "--seed", "7",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:9] == ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33"]
        assert header[9:] == ["theta", "u1", "u2", "u3", "x"]
        assert len(rows) == 3
        for row in rows:
            R = np.array([float(v) for v in row[:9]]).reshape(3, 3)
            assert so3.is_rotation(R)
            theta, u1, u2, u3, x = (float(v) for v in row[9:])
            assert abs(math.cos(theta) - (2.0 * x - 1.0)) < 1e-12
            assert abs(u1 * u1 + u2 * u2 + u3 * u3 - 1.0) < 1e-12

    def test_fvm_large_kappa_without_warning(self, tmp_path):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--family", "fvm", "--kappa", "1000", "--n", "20000",
                        "--seed", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        x = np.array([float(row[13]) for row in rows])
        assert len(rows) == 20000 and np.all((x > 0.0) & (x < 1.0))

    def test_cayley_mean_x(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sample", "--family", "cayley", "--kappa", "1", "--n", "100000",
                    "--seed", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        xs = np.array([float(r[-1]) for r in rows])
        assert abs(xs.mean() - 0.5) < 5e-3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--family", "fvm", "--kappa", "2", "--n", "500", "--seed", "11"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_mode(self, capsys):
        assert run(["sample", "--family", "haar", "--n", "2", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows

    def test_modal_shift_applied(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sample", "--family", "cayley", "--kappa", "500", "--n", "50",
                    "--seed", "3", "--modal-axis", "0,1,0", "--modal-angle", "0.8",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        M = so3.from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.8)
        for row in rows:
            P = np.array([float(v) for v in row[:9]]).reshape(3, 3)
            # concentrated law: samples hug the modal rotation
            assert so3.rotation_angle_between(P, M) < 0.5

    def test_invalid_config_exits_2(self):
        assert run(["sample", "--family", "cayley", "--kappa", "-1", "--n", "5"]) == 2
        assert run(["sample", "--family", "haar", "--n", "0"]) == 2
        assert run(["sample", "--family", "haar", "--kappa", "2", "--n", "5"]) == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["sample", "--family", "nosuch", "--n", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "5", "--modal", "1,0,0,0,1,0,0,0,1"],
        ["sample", "--n", "1", "--modal", "garbage", "--modal-axis", "0,0,1",
         "--modal-angle", "0.5"],
        ["classify", "--modal2", "1,0,0,0,1,0,0,0,1", "--n-mc", "10"],
    ])
    def test_nine_entry_modal_flags_are_gone(self, argv):
        # axis-angle is the only way to name a modal rotation
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, sha256", [
        (["--family", "cayley", "--kappa", "1"],
         "34c5bb7bcbe6710163fc8d9a38e34c614189938fbc4051221a1d2babcd818961"),
        (["--family", "fvm", "--kappa", "20", "--modal-axis", "1,2,3", "--modal-angle", "0.4"],
         "adc64e9af63e3c5e5b27158fe8b604fbe99f269621e643257ad36f32b9d6352e"),
    ], ids=["cayley", "fvm"])
    def test_pinned_bytes(self, argv, sha256, capsys):
        # 1000 draws at seed 3, byte for byte: the draw streams and the CSV
        # format are part of the reproducibility contract
        assert run(["sample", *argv, "--n", "1000", "--seed", "3"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        # a chunk of draws that cannot be allocated ends the CSV after the
        # rows written so far, here none, with one error line
        def refuse(spec, n, rng):
            raise MemoryError("Unable to allocate 1.13 MiB for an array")

        monkeypatch.setattr(dist, "sample_rotations", refuse)
        assert run(["sample", "--n", "100000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ",".join(SAMPLE_HEADER) + "\n" and "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--tol", "--threads"])
    def test_no_tol_or_threads_flag(self, flag):
        with pytest.raises(SystemExit) as info:
            run(["sample", "--family", "haar", "--n", "1", flag, "1"])
        assert info.value.code == 2


SAMPLE_HEADER = ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
                 "theta", "u1", "u2", "u3", "x"]
PIN_LANDMARKS = "1,0,0.5,-1\n0,1,0.25,2\n0,0,1,0.5\n"
PIN_GRAM = ["gram", "--family", "cayley", "--kappa", "2", "--modal-axis", "1,2,3",
            "--modal-angle", "0.4", "--landmarks", "V.csv", "--n-mc", "20000", "--seed", "5"]


class TestPinnedBytes:
    """Every other CLI output at fixed flags, byte for byte, as SHA-256:
    the draw streams, closed forms and number format are part of the
    reproducibility contract."""

    def _run(self, argv, tmp_path):
        V = tmp_path / "V.csv"
        V.write_text(PIN_LANDMARKS, encoding="utf-8")
        assert run([str(V) if a == "V.csv" else a for a in argv]) == 0

    @pytest.mark.parametrize("argv, sha256", [
        (["figure1", "--kappa-max", "10", "--n-points", "201"],
         "34f20316a2b26d07da51319795e57903a85ccbdbe75b4cf782db71ed5ad88884"),
        (["figure1", "--kappa-max", "1.7976931348623157e308", "--n-points", "7"],
         "9e6000f114a5b7e2902c89c80715066b6e8727f3e3b9a14972574652186d9efa"),
        (["fakeuni", "--family", "cayley", "--kappa-max", "5"],
         "6e64de438edea7cfb426c6a7facdd23bdffed2bbd0081a08ae0e07b176c81c3a"),
        (["fakeuni", "--family", "fvm", "--kappa-max", "10", "--n-points", "257"],
         "988c70d7dc83a798f71b0d5edade43bd5f253f80a0e52ff25102a2ab0fcaa715"),
        (PIN_GRAM, "118a018ad07d05e3403ac92209a2fcf28ac8cf72db78a29882ed098dc20cbee7"),
    ], ids=["figure1", "figure1-max-float", "fakeuni-cayley", "fakeuni-fvm", "gram"])
    def test_out_file(self, argv, sha256, tmp_path, capsys):
        out = tmp_path / "o.csv"
        self._run(argv + ["--out", str(out)], tmp_path)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("argv, sha256", [
        (PIN_GRAM, "5294cafa39a0ef47fd2ac7226615c67f6bd4b4aafa78e0e1a0fab4d28f21ce42"),
        (["classify", "--family", "cayley", "--kappa", "2", "--modal2-axis", "0,0,1",
          "--modal2-angle", "1.0", "--n-mc", "20000", "--seed", "5"],
         "01727426fc475a641912c79e0c527dd740066d12333d2c246a0c5415b7b9430b"),
        (["classify", "--family", "cayley", "--kappa", "1e5", "--modal2-axis", "0,0,1",
          "--modal2-angle", "1", "--n-mc", "1000"],
         "f195645f8f631693f2d78b1e45664ad228cb7ed7bbda2ffa92278cdf0bf5d6ff"),
    ], ids=["gram", "classify", "classify-rule-of-three"])
    def test_stdout(self, argv, sha256, tmp_path, capsys):
        self._run(argv, tmp_path)
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256


class TestCsvWriter:
    """``cli._write_csv`` against the former per-value writer,
    ``conftest.write_csv_rows``, byte for byte."""

    @pytest.mark.parametrize("n", [255, 256, 257, 513, 3 * dist.MC_CHUNK + 5])
    def test_sample_matches_the_row_oracle(self, n, capsys):
        # chunk i of MC_CHUNK rows draws from the i-th spawned child of the seed
        assert run(["sample", "--family", "fvm", "--kappa", "20", "--modal-axis", "1,2,3",
                    "--modal-angle", "0.4", "--n", str(n), "--seed", "3"]) == 0
        spec = dist.DistributionSpec("fvm", modal=cli._parse_modal("--modal", "1,2,3", 0.4),
                                     kappa=20.0)
        starts = range(0, n, dist.MC_CHUNK)
        children = np.random.default_rng(3).spawn(len(starts))

        def rows():
            for start, child in zip(starts, children):
                P, axes, angles, x = dist.sample_rotations(spec, min(dist.MC_CHUNK, n - start),
                                                           child)
                for i in range(len(x)):
                    yield ([float(v) for v in P[i].reshape(-1)]
                           + [float(angles[i]), float(axes[i, 0]), float(axes[i, 1]),
                              float(axes[i, 2]), float(x[i])])

        expected = io.StringIO()
        write_csv_rows(expected, SAMPLE_HEADER, rows())
        assert capsys.readouterr().out == expected.getvalue()

    def test_special_values_match_the_oracle(self, tmp_path):
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0])
        a = np.tile(special, 60)  # 660 rows: two full blocks and a partial one
        b = np.roll(a, 3)
        columns = (a, np.column_stack([b, -a]), b[::-1])
        out = tmp_path / "t.csv"
        cli._write_csv(str(out), ["a", "b", "c", "d"], [columns])
        assert out.read_bytes() == self.expected(a, b)
        # the rows of a second table follow those of the first
        cli._write_csv(str(out), ["a", "b", "c", "d"],
                       (tuple(c[rows] for c in columns) for rows in (slice(300), slice(300, None))))
        assert out.read_bytes() == self.expected(a, b)

    @staticmethod
    def expected(a, b):
        expected = io.StringIO()
        write_csv_rows(expected, ["a", "b", "c", "d"], zip(a.tolist(), b.tolist(),
                                                           (-a).tolist(), b[::-1].tolist()))
        return expected.getvalue().encode("utf-8")


def test_empty_out_path(tmp_path, capsys, monkeypatch):
    # an empty --out is stdout for sample, whose --out is optional, and a
    # path that cannot be opened for figure1, whose --out is required
    monkeypatch.chdir(tmp_path)
    assert run(["sample", "--n", "2", "--out", ""]) == 0
    assert capsys.readouterr().out.startswith("r11,r12,")
    assert run(["figure1", "--kappa-max", "1", "--out", ""]) == 3
    assert capsys.readouterr().out == ""


class TestFigure1:
    def test_curve_contract(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run(["figure1", "--kappa-max", "1.0", "--n-points", "101",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["kappa", "cayley", "fvm"]
        assert len(rows) == 101
        table = np.array([[float(v) for v in row] for row in rows])
        assert abs(table[0, 1]) < 1e-9 and abs(table[0, 2]) < 1e-9
        assert abs(table[-1, 1]) < 1e-9  # cayley vanishes again at kappa = 1
        assert np.all(table[1:-1, 1] < 0.0)

    def test_zero_row_has_no_negative_zero(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert run(["figure1", "--kappa-max", "10", "--n-points", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8").splitlines()[1] == "0,0,0"

    def test_bad_args_exit_2(self, tmp_path):
        assert run(["figure1", "--kappa-max", "0", "--out", str(tmp_path / "x.csv")]) == 2
        assert run(["figure1", "--kappa-max", "1", "--n-points", "1",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestGram:
    def _landmarks(self, tmp_path):
        path = tmp_path / "V.csv"
        path.write_text("1,0,0\n0,1,0\n0,0,1\n", encoding="utf-8")
        return path

    def test_haar_identity_landmarks(self, tmp_path, capsys):
        V = self._landmarks(tmp_path)
        out = tmp_path / "g.csv"
        assert run(["gram", "--family", "haar", "--landmarks", str(V),
                    "--n-mc", "100000", "--seed", "1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        dev = float(text.split("max |deviation| = ")[1].splitlines()[0])
        assert dev <= 0.02
        header, rows = read_csv(out)
        assert header == ["block", "i", "j", "value"]
        closed = {(r[1], r[2]): float(r[3]) for r in rows if r[0] == "closed"}
        for i in range(3):
            assert abs(closed[(str(i), str(i))] - 2.0 / 3.0) < 1e-9

    def test_fake_uniformity_blocks_match(self, tmp_path, capsys):
        V = self._landmarks(tmp_path)
        out1, out2 = tmp_path / "c.csv", tmp_path / "h.csv"
        run(["gram", "--family", "cayley", "--kappa", "1", "--landmarks", str(V),
             "--modal-axis", "1,2,2", "--modal-angle", "0.9",
             "--n-mc", "1000", "--seed", "2", "--out", str(out1)])
        run(["gram", "--family", "haar", "--landmarks", str(V),
             "--n-mc", "1000", "--seed", "2", "--out", str(out2)])
        capsys.readouterr()
        _, rows1 = read_csv(out1)
        _, rows2 = read_csv(out2)
        c1 = [float(r[3]) for r in rows1 if r[0] == "closed"]
        c2 = [float(r[3]) for r in rows2 if r[0] == "closed"]
        assert np.max(np.abs(np.array(c1) - np.array(c2))) < 1e-10

    def test_nonzero_naive_bias_reported(self, tmp_path, capsys):
        V = self._landmarks(tmp_path)
        assert run(["gram", "--family", "cayley", "--kappa", "2", "--landmarks", str(V),
                    "--n-mc", "1000", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        bias = float(text.split("max |naive bias| = ")[1].splitlines()[0])
        assert bias > 0.05

    def _blocks(self, text):
        blocks, label = {}, None
        for line in text.splitlines():
            if line.startswith("  ") and label is not None:
                blocks[label].append([float(v) for v in line.split()])
            elif line.endswith(":"):
                label = line[:-1]
                blocks[label] = []
            else:
                label = None
        return {k: np.array(v) for k, v in blocks.items()}

    def _report(self, tmp_path, capsys, *extra):
        V = tmp_path / "V.csv"
        V.write_text("1,0,0.5,-1\n0,1,0.25,2\n0,0,1,0.5\n", encoding="utf-8")
        assert run(["gram", "--family", "cayley", "--kappa", "2", "--modal-axis", "1,2,3",
                    "--modal-angle", "0.4", "--landmarks", str(V), "--seed", "5", *extra]) == 0
        axis = np.array([1.0, 2.0, 3.0])
        spec = dist.cayley(2.0, modal=so3.from_axis_angle(axis / np.linalg.norm(axis), 0.4))
        return capsys.readouterr().out, spec, np.loadtxt(V, delimiter=",")

    def test_stderr_block_and_max_z(self, tmp_path, capsys):
        text, spec, V = self._report(tmp_path, capsys, "--n-mc", "20000")
        lines = text.splitlines()
        # the stderr block and max |z| follow the earlier report
        assert lines[-7].startswith("max |naive bias| = ")
        assert lines[-6] == "entrywise MC standard error:"
        assert lines[-1].startswith("max |z| = ")
        assert [label for label in self._blocks(text) if label.startswith("monte-carlo")] == [
            "monte-carlo estimate (n=20000)"]
        mean, se = radon.mc_projected_gram(spec, V, 20000, np.random.default_rng(5))
        blocks = self._blocks(text)
        np.testing.assert_array_equal(blocks["entrywise MC standard error"], se)
        np.testing.assert_array_equal(blocks["monte-carlo estimate (n=20000)"], mean)
        z = np.abs(blocks["entrywise deviation (mc - closed)"]) / se
        assert abs(float(lines[-1].split(" = ")[1]) - z.max()) <= 1e-12 * z.max()
        assert z.max() < 6.0

    def test_single_draw_has_undefined_z(self, tmp_path, capsys):
        text, _, _ = self._report(tmp_path, capsys, "--n-mc", "1")
        assert text.splitlines()[-1] == "max |z| = undefined (zero standard error)"

    def test_huge_concentration_is_finite(self, tmp_path, capsys):
        text, _, _ = self._report(tmp_path, capsys, "--kappa", "1e308", "--n-mc", "100")
        for label, G in self._blocks(text).items():
            assert G.shape == (4, 4) and np.all(np.isfinite(G)), label
        assert "nan" not in text and "inf" not in text

    def test_large_landmarks_have_finite_stderr(self, tmp_path, capsys):
        # the fourth powers in the stderr overflowed to nan at 1e80
        V = tmp_path / "V.csv"
        V.write_text("1e80,0,3e79\n0,1e80,-2e79\n5e79,2.5e79,1e80\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gram", "--family", "cayley", "--kappa", "2", "--landmarks", str(V),
                        "--n-mc", "1000", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        for label, G in self._blocks(text).items():
            assert np.all(np.isfinite(G)), label
        # powers of two are exact: the same report as for V / 2^266
        V.write_text("".join(",".join(repr(math.ldexp(v, -266)) for v in row) + "\n"
                             for row in np.loadtxt(V, delimiter=",")), encoding="utf-8")
        assert run(["gram", "--family", "cayley", "--kappa", "2", "--landmarks", str(V),
                    "--n-mc", "1000", "--seed", "4"]) == 0
        scaled = self._blocks(capsys.readouterr().out)
        np.testing.assert_array_equal(np.ldexp(scaled["entrywise MC standard error"], 532),
                                      self._blocks(text)["entrywise MC standard error"])

    def test_overflowing_gram_exits_3(self, tmp_path, capsys):
        V = tmp_path / "V.csv"
        V.write_text("1e200,0,3e199\n0,1e200,-2e199\n5e199,2.5e199,1e200\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gram", "--landmarks", str(V), "--n-mc", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Gram(V) overflows" in captured.err

    def test_missing_file_exits_3(self, tmp_path):
        assert run(["gram", "--landmarks", str(tmp_path / "absent.csv")]) == 3

    def test_malformed_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4\n", encoding="utf-8")  # two rows, not three
        assert run(["gram", "--landmarks", str(bad)]) == 3
        bad.write_text("a,b,c\nd,e,f\ng,h,i\n", encoding="utf-8")
        assert run(["gram", "--landmarks", str(bad)]) == 3

    @pytest.mark.parametrize("text", ["", "\n\n\n"])
    def test_empty_file_exits_3_with_one_line(self, text, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gram", "--landmarks", str(empty)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: landmark CSV must hold a 3 x k matrix (three rows)\n"


class TestClassify:
    def test_haar_report(self, capsys):
        assert run(["classify", "--family", "haar",
                    "--modal2-axis", "0,0,1", "--modal2-angle", "1.0",
                    "--n-mc", "100000", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        psi = float(text.split("psi_closed = ")[1].splitlines()[0])
        dpsi = float(text.split("psi_derivative = ")[1].splitlines()[0])
        acc = float(text.split("mc_accuracy = ")[1].split()[0])
        assert abs(psi - 0.5) < 1e-8
        assert abs(dpsi) < 1e-9
        assert abs(acc - 0.5) < 3.0 * math.sqrt(0.25 / 100000)

    def test_cayley_gap_within_three_se(self, capsys):
        assert run(["classify", "--family", "cayley", "--kappa", "2",
                    "--modal2-axis", "0,0,1", "--modal2-angle", "1.0",
                    "--n-mc", "200000", "--seed", "5"]) == 0
        text = capsys.readouterr().out
        gap = float(text.split("gap |closed - mc| = ")[1].splitlines()[0])
        se = float(text.split("mc_stderr = ")[1].splitlines()[0])
        assert gap <= 3.0 * se

    def test_certain_accuracy_reports_the_rule_of_three(self, capsys):
        # every draw is classified correctly, so the binomial stderr would read 0
        assert run(["classify", "--family", "cayley", "--kappa", "1e5",
                    "--modal2-axis", "0,0,1", "--modal2-angle", "1", "--n-mc", "1000"]) == 0
        text = capsys.readouterr().out
        assert "mc_accuracy = 1 (n=1000)\n" in text
        assert ("mc_stderr = 0.0030000000000000001 (rule-of-three bound 3/n; "
                "MC accuracy is exactly 1)\n") in text

    def test_no_tol_flag(self):
        with pytest.raises(SystemExit) as info:
            run(["classify", "--family", "cayley", "--kappa", "2",
                 "--modal2-axis", "0,0,1", "--modal2-angle", "1.0",
                 "--n-mc", "10", "--tol", "1e-9"])
        assert info.value.code == 2

    def test_coincident_modals_exit_2(self):
        assert run(["classify", "--family", "haar",
                    "--modal2-axis", "0,0,1", "--modal2-angle", "0.0"]) == 2

    def test_tiny_separation(self, capsys):
        # 1 - cos(alpha/2) rounds to 0.0 at this angle
        assert run(["classify", "--family", "cayley", "--kappa", "2",
                    "--modal2-axis", "0,0,1", "--modal2-angle", "1e-8", "--n-mc", "100"]) == 0
        values = [line.split(" = ")[1].split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert len(values) == 6 and all(math.isfinite(float(v)) for v in values)


    @pytest.mark.parametrize("kappa", ["1e308", "1e8"])
    def test_cayley_kappa_beyond_the_old_range(self, kappa, capsys):
        # exited 2 while the accuracy stopped at kappa = 1e5; here
        # P(X < cos^2(1/4)) is below 1e-100000, so psi is 1
        assert run(["classify", "--family", "cayley", "--kappa", kappa,
                    "--modal2-axis", "0,0,1", "--modal2-angle", "1", "--n-mc", "100"]) == 0
        text = capsys.readouterr().out
        assert "psi_closed = 1\n" in text and "psi_derivative = 0\n" in text


class TestFakeuni:
    def test_cayley_report(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["fakeuni", "--family", "cayley", "--kappa-max", "5",
                    "--out", str(out)]) == 0
        text = capsys.readouterr().out
        slope = float(text.split("initial_slope = ")[1].splitlines()[0])
        assert abs(slope - (-1.0 / 9.0)) < 1e-4
        roots_line = text.split("fake-uniformity roots: ")[1].splitlines()[0]
        roots = [float(v) for v in roots_line.split(",")]
        assert len(roots) == 1 and abs(roots[0] - 1.0) < 1e-8
        header, rows = read_csv(out)
        assert header == ["kappa", "tau2_minus_third"]
        assert len(rows) == 129

    def test_fvm_has_no_roots(self, capsys):
        assert run(["fakeuni", "--family", "fvm", "--kappa-max", "5"]) == 0
        text = capsys.readouterr().out
        assert "roots: none" in text

    def test_zero_kappa_max_exits_2(self):
        assert run(["fakeuni", "--family", "cayley", "--kappa-max", "0"]) == 2

    @pytest.mark.parametrize("out", [False, True])
    def test_infinite_kappa_max_exits_2(self, out, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        argv = ["fakeuni", "--family", "cayley", "--kappa-max", "inf"]
        assert run(argv + (["--out", str(path)] if out else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "[0.0, inf]" in captured.err and not path.exists()

    @pytest.mark.parametrize("family", ["cayley", "fvm"])
    def test_curve_only_with_out(self, family, monkeypatch, tmp_path, capsys):
        calls = []
        real = fake_uniformity.tau2_excess_at

        def counting(family, kappa):
            calls.append(np.atleast_1d(kappa).tolist())
            return real(family, kappa)

        monkeypatch.setattr(fake_uniformity, "tau2_excess_at", counting)
        argv = ["fakeuni", "--family", family, "--kappa-max", "5", "--n-points", "7"]
        assert run(argv) == 0
        assert calls == []
        assert run(argv + ["--out", str(tmp_path / "curve.csv")]) == 0
        # one call over the whole grid evaluates the 7 kappa values
        assert calls == [[5.0 * i / 6 for i in range(7)]]

    def test_nonpositive_tol_exits_2(self):
        for tol in ("0", "-1"):
            with pytest.raises(SystemExit) as info:
                run(["fakeuni", "--family", "cayley", "--kappa-max", "5", "--tol", tol])
            assert info.value.code == 2

    def test_zero_row_has_no_negative_zero(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["fakeuni", "--family", "fvm", "--kappa-max", "10", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8").splitlines()[1] == "0,0"

    def test_huge_kappa_max_is_finite(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["fakeuni", "--family", "cayley", "--kappa-max", "1e200", "--n-points", "3",
                    "--out", str(out)]) == 0
        assert "fake-uniformity roots: 1\n" in capsys.readouterr().out
        _, rows = read_csv(out)
        values = [float(r[1]) for r in rows]
        assert values[0] == 0.0 and all(abs(v - 2.0 / 3.0) <= 1e-15 for v in values[1:])

    def test_kappa_max_near_overflow_keeps_the_grid(self, tmp_path, capsys):
        # kappa_max * i overflows here; the grid still ends at kappa_max exactly
        out = tmp_path / "curve.csv"
        assert run(["fakeuni", "--family", "cayley", "--kappa-max", "1e308", "--n-points", "3",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        values = [float(v) for row in rows for v in row]
        assert all(math.isfinite(v) for v in values)
        assert [float(r[0]) for r in rows] == [0.0, 5e307, 1e308]

    def test_fvm_tiny_kappa_max_returns(self, tmp_path):
        # the Bessel series once looped forever when its terms underflowed
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "rotgram.cli", "fakeuni", "--family", "fvm",
             "--kappa-max", "1e-107", "--n-points", "3", "--out", "curve.csv"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert "fake-uniformity roots: none in (0, 1e-107]" in proc.stdout

    def test_fvm_slope_is_flat(self, capsys):
        assert run(["fakeuni", "--family", "fvm", "--kappa-max", "10"]) == 0
        assert "initial_slope = 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sample", "--family", "cayley", "--kappa", "nan", "--n", "3"],
    ["classify", "--family", "cayley", "--kappa", "nan",
     "--modal2-axis", "0,0,1", "--modal2-angle", "1.0", "--n-mc", "10"],
    ["fakeuni", "--family", "cayley", "--kappa-max", "nan"],
    ["figure1", "--kappa-max", "nan", "--out", "unused.csv"],
])
def test_nan_concentration_exits_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("axis", ["1e-170,0,0", "3e-200,4e-200,0", "1e155,1e155,0"])
def test_modal_axis_of_any_finite_scale(axis, tmp_path, capsys):
    # the first two were rejected as zero, the third as not a rotation
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sample", "--family", "cayley", "--kappa", "1e8", "--n", "3",
                    "--modal-axis", axis, "--modal-angle", "0.7", "--out", str(out)]) == 0
    vec = np.array([float(v) for v in axis.split(",")])
    unit = vec / np.max(vec)
    expected = so3.from_axis_angle(unit / np.linalg.norm(unit), 0.7)
    _, rows = read_csv(out)
    for row in rows:  # kappa = 1e8 puts every draw within about 1e-4 of the modal
        assert np.max(np.abs(np.array(row[:9], dtype=float).reshape(3, 3) - expected)) < 1e-3


@pytest.mark.parametrize("axis", ["0,0,0", "inf,0,0", "nan,1,1"])
def test_modal_axis_zero_or_nonfinite_exits_2(axis, capsys):
    assert run(["sample", "--n", "2", "--modal-axis", axis, "--modal-angle", "1"]) == 2
    assert "--modal-axis must be finite and nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("command, stem, other", [
    (["sample", "--n", "2"], "--modal", "--modal2"),
    (["classify", "--n-mc", "10"], "--modal2", "--modal-"),
], ids=["sample", "classify"])
@pytest.mark.parametrize("flags, message", [
    (["-axis", "0,0,1", "-angle", "nan"], "-angle must be finite"),
    (["-axis", "0,0,1", "-angle", "inf"], "-angle must be finite"),
    (["-axis", "1,2", "-angle", "1"], "-axis expects three comma-separated values"),
    (["-axis", "x,y,z", "-angle", "1"], "-axis expects three comma-separated numbers"),
    (["-axis", "1,,2", "-angle", "1"], "-axis expects three comma-separated numbers"),
    (["-axis", "0,0,0", "-angle", "1"], "-axis must be finite and nonzero"),
    (["-axis", "0,0,1"], "-angle"),
], ids=["nan-angle", "inf-angle", "two-entry-axis", "letter-axis", "empty-entry-axis",
        "zero-axis", "axis-without-angle"])
def test_modal_errors_name_their_flag(command, stem, other, flags, message, capsys):
    argv = command + [stem + f if f.startswith("-") else f for f in flags]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert stem + message in captured.err and other not in captured.err, captured.err


FINITE_KAPPAS = ["0.5", "50", "51", "1e5", "2e5", "1e8", "1e300", "1.7976931348623157e308"]


@pytest.mark.parametrize("kappa", FINITE_KAPPAS)
def test_every_command_accepts_every_finite_kappa(kappa, tmp_path, capsys):
    """The old range table: fvm stopped at kappa = 50 and Cayley-LMR
    classify at 1e5.  Each command exits 0 with finite numbers only."""
    V = tmp_path / "V.csv"
    V.write_text("1,0,0.5\n0,1,0.25\n0,0,1\n", encoding="utf-8")
    out = str(tmp_path / "o.csv")
    runs = [["figure1", "--kappa-max", kappa, "--n-points", "5", "--out", out]]
    for family in ("cayley", "fvm"):
        runs += [["sample", "--family", family, "--kappa", kappa, "--n", "20", "--out", out],
                 ["gram", "--family", family, "--kappa", kappa, "--landmarks", str(V),
                  "--n-mc", "200", "--out", out],
                 ["classify", "--family", family, "--kappa", kappa,
                  "--modal2-axis", "0,0,1", "--modal2-angle", "0.01", "--n-mc", "200"],
                 ["fakeuni", "--family", family, "--kappa-max", kappa, "--n-points", "5",
                  "--out", out]]
    for argv in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0, argv
        text = capsys.readouterr().out + pathlib.Path(out).read_text(encoding="utf-8")
        assert not any(word in text.lower() for word in ("nan", "inf")), argv
        if argv[0] == "classify":
            psi = float(text.split("psi_closed = ")[1].split()[0])
            assert 0.0 <= psi <= 1.0


@pytest.mark.parametrize("family", ["cayley", "fvm"])
@pytest.mark.parametrize("kappa", ["1e-300", "1e100", "1e300", "1.7976931348623157e308"])
def test_sample_at_extreme_kappa_is_finite_with_unit_axes(family, kappa, tmp_path):
    # near the identity sqrt(1 - X) underflows; the axis must not be
    # recovered by dividing by it
    out = tmp_path / "s.csv"
    assert run(["sample", "--family", family, "--kappa", kappa, "--n", "64", "--seed", "9",
                "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (64, 14) and np.all(np.isfinite(table))
    assert np.max(np.abs(np.linalg.norm(table[:, 10:13], axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("argv", [
    ["gram", "--n", "5"],
    ["fakeuni", "--kappa-m", "5"],
    ["fakeuni", "--kappa-max", "5", "--n-p", "1"],
    ["sample", "--n", "1", "--fam", "cayley"],
], ids=["gram --n", "fakeuni --kappa-m", "fakeuni --n-p", "sample --fam"])
def test_flag_prefixes_exit_2(argv, tmp_path, capsys):
    # only the listed flags parse: a unique prefix is not taken for the flag
    V = tmp_path / "V.csv"
    V.write_text("1\n0\n0\n", encoding="utf-8")
    if argv[0] == "gram":
        argv = argv + ["--landmarks", str(V)]
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


class TestDeterminism:
    def test_gram_reruns_identical(self, tmp_path):
        V = tmp_path / "V.csv"  # two landmarks: (1, 0.5, 0) and (0, 0.5, 0)
        V.write_text("1,0\n0.5,0.5\n0,0\n", encoding="utf-8")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(["gram", "--family", "fvm", "--kappa", "1", "--landmarks", str(V),
                 "--n-mc", "5000", "--seed", "42", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_figure1_reruns_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(["figure1", "--kappa-max", "0.5", "--n-points", "11", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_flag_accepted(self, tmp_path, capsys):
        V = tmp_path / "V.csv"  # single landmark e1
        V.write_text("1\n0\n0\n", encoding="utf-8")
        assert run(["gram", "--family", "haar", "--landmarks", str(V),
                    "--n-mc", "4000", "--seed", "1", "--threads", "2"]) == 0
        capsys.readouterr()

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        V = tmp_path / "V.csv"
        V.write_text("1\n0\n0\n", encoding="utf-8")
        for threads in ("0", "-3"):
            assert run(["gram", "--family", "haar", "--landmarks", str(V),
                        "--n-mc", "100", "--threads", threads]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("family", ["cayley", "fvm"])
    @pytest.mark.parametrize("n_mc", ["1", "2", "65537", "300001"])
    def test_threads_do_not_change_the_output(self, family, n_mc, tmp_path, capsys):
        V = tmp_path / "V.csv"
        V.write_text("1,0,0.5,-1\n0,1,0.25,2\n0,0,1,0.5\n", encoding="utf-8")
        out = tmp_path / "gram.csv"
        common = ["--family", family, "--kappa", "2", "--n-mc", n_mc, "--seed", "11"]
        reports = []
        for threads in ("1", "2", "3", "8"):
            assert run(["gram", *common, "--modal-axis", "1,2,3", "--modal-angle", "0.4",
                        "--landmarks", str(V), "--out", str(out), "--threads", threads]) == 0
            gram = capsys.readouterr().out, out.read_bytes()
            assert run(["classify", *common, "--modal2-axis", "0,0,1", "--modal2-angle", "1.0",
                        "--threads", threads]) == 0
            reports.append((gram, capsys.readouterr().out))
        assert all(report == reports[0] for report in reports[1:])

    def test_more_threads_than_draws(self, tmp_path, capsys):
        V = tmp_path / "V.csv"
        V.write_text("1\n0\n0\n", encoding="utf-8")
        assert run(["gram", "--family", "haar", "--landmarks", str(V),
                    "--n-mc", "2", "--seed", "1", "--threads", "4"]) == 0
        text = capsys.readouterr().out
        assert math.isfinite(float(text.split("max |deviation| = ")[1].splitlines()[0]))
