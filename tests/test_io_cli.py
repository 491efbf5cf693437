import json
import os

import numpy as np
import pytest

from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import io as hio
from hopfion.cli import main
from hopfion.errors import ConfigError
from hopfion.lattice import Grid, LatticeField


class TestSnapshots:
    def test_map_roundtrip_bitwise(self, tmp_path, rng):
        psi = smooth_cp1_map(Grid(12), rng, amplitude=0.5)
        path = tmp_path / "psi.hopf"
        hio.write_snapshot(path, psi, extra_meta={"charge": 1})
        meta, back = hio.read_snapshot(path)
        assert meta["kind"] == "map_s2"
        assert meta["charge"] == 1
        assert back.values.tobytes() == psi.values.tobytes()

    def test_lift_roundtrip_bitwise(self, tmp_path, rng):
        u = smooth_lift(Grid(12), rng)
        path = tmp_path / "u.hopf"
        hio.write_snapshot(path, u)
        meta, back = hio.read_snapshot(path)
        assert meta["kind"] == "lift_su2"
        assert back.values.tobytes() == u.values.tobytes()

    def test_potential_roundtrip_bitwise(self, tmp_path, rng):
        u = smooth_lift(Grid(12), rng)
        a = fl.pure_gauge_potential(u)
        path = tmp_path / "a.hopf"
        hio.write_snapshot(path, a)
        meta, back = hio.read_snapshot(path)
        assert meta["kind"] == "potential"
        assert back.a.data.tobytes() == a.a.data.tobytes()

    def test_double_roundtrip_identical_bytes(self, tmp_path, rng):
        psi = smooth_cp1_map(Grid(12), rng)
        p1 = tmp_path / "a.hopf"
        p2 = tmp_path / "b.hopf"
        hio.write_snapshot(p1, psi)
        _, back = hio.read_snapshot(p1)
        hio.write_snapshot(p2, back, extra_meta=None)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hopf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(hio.SnapshotError):
            hio.read_snapshot(path)

    def test_truncated_payload(self, tmp_path, rng):
        psi = smooth_cp1_map(Grid(12), rng)
        path = tmp_path / "short.hopf"
        hio.write_snapshot(path, psi)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(hio.SnapshotError):
            hio.read_snapshot(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = hio.parse_config("")
        assert cfg["grid.n"] == 32
        assert cfg["optimizer.step_rule"] == "barzilai_borwein"

    def test_parse_values_and_comments(self):
        text = """
        # a comment
        grid.n = 24
        grid.length = 3.14   # inline comment
        ansatz.charge = 2
        """
        cfg = hio.parse_config(text)
        assert cfg["grid.n"] == 24
        assert cfg["grid.length"] == 3.14
        assert cfg["ansatz.charge"] == 2

    def test_unknown_key_hard_error(self):
        with pytest.raises(ConfigError):
            hio.parse_config("grid.m = 32")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            hio.parse_config("grid.n = many")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            hio.parse_config("grid.n 32")


class TestExports:
    def test_vtk_structure(self, tmp_path, rng):
        psi = smooth_cp1_map(Grid(8), rng)
        path = tmp_path / "psi.vtk"
        hio.export_vtk(path, {"kind": "map_s2"}, psi)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in lines
        assert "DIMENSIONS 8 8 8" in lines
        assert any(line.startswith("VECTORS psi double") for line in lines)
        assert f"POINT_DATA {8 ** 3}" in lines
        vec_lines = [l for l in lines[lines.index("VECTORS psi double") + 1:]
                     if len(l.split()) == 3]
        assert len(vec_lines) >= 8 ** 3

    def test_density_csv(self, tmp_path, rng):
        psi = smooth_cp1_map(Grid(8), rng)
        path = tmp_path / "density.csv"
        hio.export_density_csv(path, psi)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z,density"
        assert len(lines) == 1 + 8 ** 3


class TestCli:
    def test_constant_ansatz_energy_zero(self, tmp_path, capsys):
        prefix = str(tmp_path / "c")
        assert main(["ansatz", "--kind", "constant", "--n", "12", "--out", prefix]) == 0
        assert main(["energy", "--map", prefix + ".psi.hopf", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["total"] == 0.0

    def test_info(self, tmp_path, capsys):
        prefix = str(tmp_path / "c")
        main(["ansatz", "--kind", "constant", "--n", "12", "--out", prefix])
        capsys.readouterr()
        assert main(["info", prefix + ".psi.hopf"]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["n"] == 12

    def test_hopf_report(self, tmp_path, capsys):
        prefix = str(tmp_path / "h")
        main(["ansatz", "--kind", "hopf", "--charge", "1", "--n", "24", "--out", prefix])
        code = main(["hopf", "--map", prefix + ".psi.hopf",
                     "--lift", prefix + ".lift.hopf", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["rounded"] == [1]
        assert payload["linking"] == 1

    def test_degree_route(self, tmp_path, capsys):
        prefix = str(tmp_path / "d")
        main(["ansatz", "--kind", "ball_degree", "--charge", "1", "--n", "24",
              "--out", prefix])
        assert main(["degree", "--lift", prefix + ".lift.hopf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["rounded"] == [1]

    def test_export(self, tmp_path, capsys):
        prefix = str(tmp_path / "e")
        main(["ansatz", "--kind", "constant", "--n", "8", "--out", prefix])
        assert main(["export", "--in", prefix + ".psi.hopf",
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out.vtk").exists()
        assert (tmp_path / "out.density.csv").exists()

    def test_relax_workflow(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        config.write_text(
            "grid.n = 12\n"
            "ansatz.kind = hopf\n"
            "ansatz.charge = 0\n"
            "optimizer.max_iters = 5\n"
            "optimizer.checkpoint_every = 2\n"
            "optimizer.charge_check_every = 0\n"
            f"output.dir = {outdir}\n")
        assert main(["relax", "--config", str(config)]) == 0
        assert (outdir / "history.csv").exists()
        assert (outdir / "final.psi.hopf").exists()
        header = (outdir / "history.csv").read_text().splitlines()[0]
        assert header == "iter,energy,dirichlet,skyrme,grad_norm,step,charge"

    def test_relax_determinism_bytes(self, tmp_path):
        csvs = []
        for tag in ("a", "b"):
            config = tmp_path / f"{tag}.cfg"
            outdir = tmp_path / tag
            config.write_text(
                "grid.n = 12\nansatz.kind = hopf\nansatz.charge = 1\n"
                "optimizer.max_iters = 8\noptimizer.charge_check_every = 4\n"
                f"output.dir = {outdir}\n")
            assert main(["relax", "--config", str(config)]) == 0
            csvs.append((outdir / "history.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_malformed_snapshot_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.hopf"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["energy", "--map", str(bad)]) == 2

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.sides = 7\n")
        assert main(["relax", "--config", str(cfg)]) == 2

    def test_bad_optimizer_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"grid.n = 8\noptimizer.step_cap = -0.1\noutput.dir = {tmp_path}\n")
        assert main(["relax", "--config", str(cfg)]) == 2
        assert "step_cap" in capsys.readouterr().err

    def test_check_small_sizes(self, capsys):
        assert main(["check", "--sizes", "16,24,32"]) == 0
        out = capsys.readouterr().out
        assert "identities within budget" in out
