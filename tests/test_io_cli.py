import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import cli
from hopfion import fields as fl
from hopfion import io as hio
from hopfion.cli import main
from hopfion.energy import A_MAX, energy_map
from hopfion.errors import ConfigError
from hopfion.gauge import make_stabilizer, smooth_scalar
from hopfion.lattice import Grid, LatticeField
from hopfion.minimize import HistoryRow, RelaxConfig, relax
from hopfion.topology import whitehead_charge


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

    @pytest.mark.parametrize("build", [
        lambda psi, u: fl.pure_gauge_potential(u, psi),
        lambda psi, u: fl.pure_gauge_potential(fl.LiftField(psi.grid, alg.su2_group(), u.values)),
        lambda psi, u: fl.PotentialField(LatticeField.zeros(psi.grid, 1, 8),
                                         fl.constant_map(psi.grid, alg.su3_t2())),
        lambda psi, u: fl.MapField(psi.grid, alg.su2_group(), u.values),
        lambda psi, u: fl.LiftField(psi.grid, alg.su3_t2(),
                                    alg.su3_t2().identity_element((8,) * 3)),
    ], ids=["potential_on_hopf_map", "su2_group_potential", "su3_t2_potential",
            "su2_group_map", "su3_t2_lift"])
    def test_unreadable_field_not_written(self, tmp_path, build):
        # each was once written and then read back as another field, or not at all
        psi, u = fl.make_ansatz("hopf", Grid(8), 1)
        with pytest.raises(hio.SnapshotError):
            hio.write_snapshot(tmp_path / "x.hopf", build(psi, u))
        assert list(tmp_path.iterdir()) == []

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
        assert cfg["optimizer.grad_tol"] == 1e-3
        assert cfg["optimizer.charge_check_every"] == 25

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

    def test_repeated_key_names_both_lines(self):
        # the last value once won silently
        with pytest.raises(ConfigError, match="line 3: key 'grid.n' repeats line 1"):
            hio.parse_config("grid.n = 16\n# n\ngrid.n = 24\n")

    def test_defaults_match_relax_config(self):
        # every optimizer.* key is a RelaxConfig field with the same default
        relax_keys = {key.partition(".")[2]: value for key, value in hio.CONFIG_DEFAULTS.items()
                      if key.partition(".")[0] == "optimizer"}
        assert relax_keys == dataclasses.asdict(RelaxConfig())


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

    @staticmethod
    def _tokens(lines):
        return np.array([float(tok) for line in lines for tok in line.replace(",", " ").split()])

    def test_vtk_map_round_trip(self, tmp_path, rng):
        psi = smooth_cp1_map(Grid(8), rng)
        path = tmp_path / "psi.vtk"
        hio.export_vtk(path, {"kind": "map_s2"}, psi)
        lines = path.read_text().splitlines()
        data = lines[lines.index("VECTORS psi double") + 1:]
        got = self._tokens(data).reshape(8, 8, 8, 3)
        assert np.array_equal(got, psi.values.transpose(2, 1, 0, 3))

    def test_vtk_lift_round_trip(self, tmp_path, rng):
        u = smooth_lift(Grid(8), rng)
        path = tmp_path / "u.vtk"
        hio.export_vtk(path, {"kind": "lift_su2"}, u)
        lines = path.read_text().splitlines()
        vec = lines.index("VECTORS lift_im double")
        sca = lines.index("SCALARS lift_re double 1")
        assert lines[sca + 1] == "LOOKUP_TABLE default"
        im = self._tokens(lines[vec + 1:sca]).reshape(8, 8, 8, 3)
        re = self._tokens(lines[sca + 2:]).reshape(8, 8, 8)
        assert np.array_equal(im, u.values[..., 1:].transpose(2, 1, 0, 3))
        assert np.array_equal(re, u.values[..., 0].transpose(2, 1, 0))

    def test_density_csv_round_trip(self, tmp_path, rng):
        psi = smooth_cp1_map(Grid(8), rng)
        path = tmp_path / "density.csv"
        hio.export_density_csv(path, psi)
        got = self._tokens(path.read_text().splitlines()[1:]).reshape(-1, 4)
        assert np.array_equal(got[:, :3], Grid(8).site_coords().reshape(-1, 3))
        assert np.array_equal(got[:, 3], energy_map(psi).density.slot(0)[..., 0].reshape(-1))

    @staticmethod
    def _snapshot_exports(tmp_path, field):
        """Export the snapshot of field: (vtk lines, density csv rows as an (n^3, 4) array)."""
        hio.write_snapshot(tmp_path / "f.hopf", field)
        meta, obj = hio.read_snapshot(tmp_path / "f.hopf")
        hio.export_vtk(tmp_path / "f.vtk", meta, obj)
        hio.export_density_csv(tmp_path / "f.csv", obj)
        lines = (tmp_path / "f.vtk").read_text().splitlines()
        csv = (tmp_path / "f.csv").read_text().splitlines()
        assert csv[0] == "x,y,z,density"
        return lines, TestExports._tokens(csv[1:]).reshape(-1, 4)

    def test_lift_snapshot_exports(self, tmp_path):
        _, u = fl.make_ansatz("hopf", Grid(8), 1)
        lines, rows = self._snapshot_exports(tmp_path, u)
        vec = lines.index("VECTORS lift_im double")
        sca = lines.index("SCALARS lift_re double 1")
        assert sca == vec + 1 + 8 ** 3 and lines[sca + 1] == "LOOKUP_TABLE default"
        assert len(lines) == sca + 2 + 8 ** 3
        assert all(len(line.split()) == 3 for line in lines[vec + 1:sca])
        assert all(len(line.split()) == 1 for line in lines[sca + 2:])
        # a unit quaternion per site: density |u|^2 = 1
        assert rows.shape == (8 ** 3, 4)
        assert np.max(np.abs(rows[:, 3] - 1.0)) < 1e-15

    def test_potential_snapshot_exports(self, tmp_path, rng):
        a = fl.pure_gauge_potential(smooth_lift(Grid(8), rng))
        lines, rows = self._snapshot_exports(tmp_path, a)
        starts = [lines.index(f"VECTORS {label} double") for label in ("a_x", "a_y", "a_z")]
        assert starts[1:] == [starts[0] + 1 + 8 ** 3, starts[0] + 2 * (1 + 8 ** 3)]
        assert len(lines) == starts[2] + 1 + 8 ** 3
        for mu, start in enumerate(starts):
            got = self._tokens(lines[start + 1:start + 1 + 8 ** 3]).reshape(8, 8, 8, 3)
            assert np.array_equal(got, a.a.slot(mu).transpose(2, 1, 0, 3))
        assert np.array_equal(rows[:, :3], Grid(8).site_coords().reshape(-1, 3))
        assert np.array_equal(rows[:, 3], a.a.norm2_density().reshape(-1))


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

    def test_closed_stdout_exits_0_quietly(self, tmp_path, capsys, monkeypatch):
        # the reader went away (hopfion info x | head -1): no error line and exit
        # 0, with the stdout descriptor pointed at devnull for the exit-time flush
        prefix = str(tmp_path / "c")
        main(["ansatz", "--kind", "constant", "--n", "4", "--out", prefix])
        capsys.readouterr()
        sink = tmp_path / "stdout"
        with open(sink, "wb") as handle:

            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return handle.fileno()

            monkeypatch.setattr(cli.sys, "stdout", ClosedPipe())
            assert main(["info", prefix + ".psi.hopf"]) == 0
            os.write(handle.fileno(), b"late flush")
        assert sink.read_bytes() == b""
        assert capsys.readouterr().err == ""

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

    def test_hopf_refuses_the_lift_of_another_map(self, tmp_path, capsys):
        one, zero = str(tmp_path / "one"), str(tmp_path / "zero")
        main(["ansatz", "--n", "16", "--out", one])
        main(["ansatz", "--n", "16", "--charge", "0", "--out", zero])
        capsys.readouterr()
        assert main(["hopf", "--map", one + ".psi.hopf", "--lift", zero + ".lift.hopf"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        residual = float(err.split("max |u i u^-1 - psi| = ")[1].split()[0])
        assert residual > 1.0

    def test_hopf_refuses_a_lift_on_another_grid(self, tmp_path, capsys):
        fine, coarse = str(tmp_path / "fine"), str(tmp_path / "coarse")
        main(["ansatz", "--n", "16", "--out", fine])
        main(["ansatz", "--n", "8", "--out", coarse])
        capsys.readouterr()
        assert main(["hopf", "--map", fine + ".psi.hopf", "--lift", coarse + ".lift.hopf"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "Grid(n=8," in err and "Grid(n=16," in err

    def test_hopf_accepts_a_stabilizer_gauged_lift(self, tmp_path, capsys, rng):
        # u w with w in the stabilizer of i lifts the same map: u w i w^-1 u^-1 = u i u^-1
        grid = Grid(16)
        psi, u = fl.make_ansatz("hopf", grid, 1)
        w = make_stabilizer(fl.constant_map(grid), smooth_scalar(grid, rng, 0.5)).w
        uw = fl.LiftField(grid, u.pair, alg.qmul(u.values, w.values))
        hio.write_snapshot(tmp_path / "m.psi.hopf", psi)
        for name, lift in (("u", u), ("uw", uw)):
            hio.write_snapshot(tmp_path / f"{name}.lift.hopf", lift)
            assert main(["hopf", "--map", str(tmp_path / "m.psi.hopf"), "--lift",
                         str(tmp_path / f"{name}.lift.hopf"), "--skip-linking", "--json"]) == 0
            assert json.loads(capsys.readouterr().out.splitlines()[-1])["rounded"] == [1]

    def test_hopf_map_alone_rounds_to_linking(self, tmp_path, capsys):
        prefix = str(tmp_path / "m")
        main(["ansatz", "--n", "16", "--out", prefix])
        capsys.readouterr()
        assert main(["hopf", "--map", prefix + ".psi.hopf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["rounded"] == [payload["linking"]] == [1]
        assert payload["deviation"] == abs(payload["whitehead"] - 1)

    def test_hopf_map_of_the_vacuum_links_nothing(self, tmp_path, capsys):
        # the charge-0 map misses both regular values: the empty link
        prefix = str(tmp_path / "vac")
        main(["ansatz", "--n", "16", "--charge", "0", "--out", prefix])
        capsys.readouterr()
        assert main(["hopf", "--map", prefix + ".psi.hopf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["linking"] == 0 and payload["rounded"] == [0]

    def test_charged_map_whose_linking_reads_0_exits_3(self, tmp_path, capsys, monkeypatch):
        prefix = str(tmp_path / "m")
        main(["ansatz", "--n", "16", "--out", prefix])
        capsys.readouterr()
        monkeypatch.setattr(cli, "linking_charge", lambda psi: 0)
        assert main(["hopf", "--map", prefix + ".psi.hopf"]) == 3
        assert "linking 0" in capsys.readouterr().err

    def test_hopf_routes_that_round_differently_exit_3(self, tmp_path, capsys, monkeypatch):
        prefix = str(tmp_path / "m")
        main(["ansatz", "--n", "16", "--out", prefix])
        capsys.readouterr()
        monkeypatch.setattr(cli, "whitehead_charge", lambda psi: 0.25)
        assert main(["hopf", "--map", prefix + ".psi.hopf"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "whitehead 0.25, linking 1" in err

    def test_coarse_hopf_map_exit_3_names_grid(self, tmp_path, capsys):
        # at n = 8 a plaquette of the charge-1 ansatz wraps the sphere, which
        # the Whitehead route sees as flux through a coordinate 2-torus
        prefix = str(tmp_path / "c")
        assert main(["ansatz", "--n", "8", "--out", prefix]) == 0
        capsys.readouterr()
        assert main(["hopf", "--map", prefix + ".psi.hopf", "--skip-linking"]) == 3
        err = capsys.readouterr().err
        assert "grid (n = 8)" in err and "refine" in err

    def test_degree_route(self, tmp_path, capsys):
        prefix = str(tmp_path / "d")
        main(["ansatz", "--kind", "hopf", "--charge", "1", "--n", "24", "--out", prefix])
        assert main(["hopf", "--lift", prefix + ".lift.hopf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["rounded"] == [1]

    @pytest.mark.parametrize("args, charge", [
        ([], 1), (["--charge", "2"], 2), (["--kind", "constant"], 0),
        (["--kind", "great_circle"], 0)])
    def test_ansatz_meta_records_the_written_charge(self, tmp_path, capsys, args, charge):
        # a charge-less kind once recorded the unused --charge default, 1
        prefix = str(tmp_path / "m")
        assert main(["ansatz", "--n", "16", "--out", prefix] + args) == 0
        for suffix in (".psi.hopf", ".lift.hopf"):
            assert hio.read_snapshot(prefix + suffix)[0]["charge"] == charge

    @pytest.mark.parametrize("kind", ["constant", "great_circle"])
    def test_relax_charge_less_kind_without_charge_line(self, tmp_path, capsys, kind):
        config = tmp_path / "run.cfg"
        config.write_text(f"grid.n = 16\nansatz.kind = {kind}\noptimizer.max_iters = 1\n"
                          f"output.dir = {tmp_path / 'out'}\n")
        assert main(["relax", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "final.psi.hopf").exists()

    def test_lift_route_prints_cs_as_one_float(self, tmp_path, capsys):
        # the report holds a float; the text and the JSON show it as a
        # one-entry list, the shape CI and the benchmark index with cs[0]
        prefix = str(tmp_path / "l")
        main(["ansatz", "--n", "16", "--out", prefix])
        capsys.readouterr()
        assert main(["hopf", "--lift", prefix + ".lift.hopf", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "chern-simons: [0.918585]"
        cs = json.loads(lines[-1])["cs"]
        assert isinstance(cs, list) and len(cs) == 1 and isinstance(cs[0], float)
        assert cs[0] == 0.9185851781195439

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
                "grid.n = 16\nansatz.kind = hopf\nansatz.charge = 1\n"
                "optimizer.max_iters = 8\noptimizer.charge_check_every = 4\n"
                f"output.dir = {outdir}\n")
            assert main(["relax", "--config", str(config)]) == 0
            csvs.append((outdir / "history.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("n", [16, 12, 8])
    def test_relax_prints_final_charge(self, tmp_path, capsys, n):
        # the charge monitor's cadence (25) samples only row 0 of a 3-iteration
        # run; at n = 8 and 12 the hopf map is beyond the admissibility wall,
        # so relax refuses it in one line and removes the directory it made
        config = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        config.write_text(f"grid.n = {n}\nansatz.kind = hopf\nansatz.charge = 1\n"
                          f"optimizer.max_iters = 3\noutput.dir = {outdir}\n")
        if n < 16:
            assert main(["relax", "--config", str(config)]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and not outdir.exists()
            assert captured.err.splitlines() == [
                f"numerical failure: inadmissible start at n = {n}: a plaquette triangle has "
                f"|area| >= A_MAX = {A_MAX}, so no charge is protected; refine the grid"]
            return
        assert main(["relax", "--config", str(config)]) == 0
        _, final = hio.read_snapshot(outdir / "final.psi.hopf")
        out = capsys.readouterr().out.splitlines()
        assert out[1] == f"final whitehead charge: {whitehead_charge(final):.6f}"
        assert not any(line.startswith("warning:") for line in out)

    def test_refused_relax_keeps_existing_directory(self, tmp_path, capsys):
        # only a directory this run made is removed on refusal
        config = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        outdir.mkdir()
        config.write_text(f"grid.n = 8\nansatz.kind = hopf\nansatz.charge = 1\noutput.dir = {outdir}\n")
        assert main(["relax", "--config", str(config)]) == 3
        assert outdir.is_dir() and list(outdir.iterdir()) == []

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
        cfg.write_text(f"grid.n = 8\noptimizer.grad_tol = 1.5\noutput.dir = {tmp_path}\n")
        assert main(["relax", "--config", str(cfg)]) == 2
        assert "grad_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["model.pair = su3_t2", "model.variant = bogus", "seed = 7",
                                      "optimizer.step_rule = fixed", "optimizer.step_init = 0.2",
                                      "optimizer.step_cap = 0.2", "model.scale_dirichlet = 1.0",
                                      "model.scale_skyrme = 0.5"])
    def test_deleted_config_key_exit_2(self, tmp_path, capsys, line):
        # keys that are gone: most were accepted and ignored; model.scale_* set
        # what grid.length sets
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"grid.n = 8\noptimizer.max_iters = 1\n{line}\noutput.dir = {tmp_path}\n")
        assert main(["relax", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_check_small_sizes(self, capsys):
        assert main(["check", "--sizes", "16,24,32"]) == 0
        out = capsys.readouterr().out
        assert "identities within budget" in out

    @pytest.mark.parametrize("sizes", ["16", "16,16", "a,b", "2,16"])
    def test_check_bad_sizes_exit_2(self, capsys, sizes):
        # one distinct size gave a meaningless one-point order fit
        assert main(["check", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_check_size_below_grid_minimum_carries_grid_message(self, capsys):
        # the suite builds its grids first: Grid's own rule and message, one line
        assert main(["check", "--sizes", "2,16"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grid needs at least 4 sites per axis\n"
        assert captured.out == ""

    def test_check_negative_seed_exit_2(self, capsys, monkeypatch):
        # numpy's default_rng raises a ValueError on a negative seed: refuse it first
        monkeypatch.setattr(cli, "identity_suite", lambda *a, **k: pytest.fail("suite ran"))
        assert main(["check", "--sizes", "4,8", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["ansatz", "--n", "1000000", "--out", "{tmp}/a"],
        ["relax", "--config", "{cfg}"],
        ["check", "--sizes", "16,1000000"],
    ], ids=["ansatz", "relax", "check"])
    def test_huge_grid_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # numpy's refusal of a 6.94 EiB grid was a traceback and exit 1; the
        # patched builders fail the test should a grid ever be made
        monkeypatch.setattr(cli, "make_ansatz", lambda *a, **k: pytest.fail("grid made"))
        monkeypatch.setattr(cli, "identity_suite", lambda *a, **k: pytest.fail("suite ran"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid.n = 1000000\noutput.dir = {tmp_path / 'out'}\n")
        assert main([arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: a grid of n = 1000000 needs about")
        assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("argv", [
        ["ansatz", "--n", "13", "--out", "{tmp}/a"],
        ["relax", "--config", "{cfg}"],
        ["check", "--sizes", "4,13"],
    ], ids=["ansatz", "relax", "check"])
    def test_grid_memory_estimate_scales_with_n_cubed(self, tmp_path, capsys, monkeypatch, argv):
        # a machine with exactly the command's bytes per site times 12^3: n = 12 fits, 13 does not
        pages = {"SC_PAGE_SIZE": cli._SITE_BYTES[argv[0]], "SC_PHYS_PAGES": 12 ** 3}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(cli, "make_ansatz", lambda *a, **k: pytest.fail("grid made"))
        monkeypatch.setattr(cli, "identity_suite", lambda *a, **k: pytest.fail("suite ran"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid.n = 13\noutput.dir = {tmp_path / 'out'}\n")
        assert main([arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]) == 2
        assert "n = 13" in capsys.readouterr().err
        cli._require_memory(argv[0], 12)

    @pytest.mark.parametrize("config, argv", [
        (None, ["relax", "--config", "{cfg}"]),
        (b"grid.n = 8  # \xff\n", ["relax", "--config", "{cfg}"]),
        (b"grid.n = 3\n", ["relax", "--config", "{cfg}"]),
        (b"grid.n = 8\nansatz.kind = bogus\n", ["relax", "--config", "{cfg}"]),
        (b"grid.n = 8\nansatz.kind = ball_degree\n", ["relax", "--config", "{cfg}"]),
        (b"grid.n = 8\nansatz.kind = constant\nansatz.charge = 2\n",
         ["relax", "--config", "{cfg}"]),
        (b"grid.n = 8\ngrid.length = nan\n", ["relax", "--config", "{cfg}"]),
        (None, ["ansatz", "--n", "3", "--out", "{tmp}/a"]),
        (None, ["ansatz", "--kind", "constant", "--charge", "2", "--out", "{tmp}/a"]),
        (b"grid.n = 8\ngrid.n = 16\n", ["relax", "--config", "{cfg}"]),
    ], ids=["missing_config", "non_utf8_config", "n_3", "unknown_ansatz", "ball_degree",
            "charge_on_constant", "nan_length", "ansatz_n_3", "ansatz_charge_on_constant",
            "repeated_key"])
    def test_bad_run_input_exit_2(self, tmp_path, capsys, config, argv):
        cfg = tmp_path / "run.cfg"
        if config is not None:
            cfg.write_bytes(config + f"output.dir = {tmp_path / 'out'}\n".encode())
        assert main([arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists() and not (tmp_path / "a.psi.hopf").exists()

    @pytest.mark.parametrize("length", ["1e-300", "1e-76", "1e79", "1e300"])
    def test_extreme_period_exit_2(self, tmp_path, capsys, length):
        # 1e-76 and 1e79 are the first powers of ten outside Grid's spacing
        # rule at n = 16; 1e-300 and 1e300 once ended in a traceback from the
        # flux form (NaN) or from 4 pi h^2 (OverflowError), with output.dir left
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid.n = 16\ngrid.length = {length}\noutput.dir = {tmp_path / 'out'}\n")
        assert main(["relax", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: period length = ") and err.count("\n") == 1
        assert "Traceback" not in err and out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("length", [1e-50, 1e50])
    def test_extreme_period_accepted(self, tmp_path, capsys, length):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid.n = 16\ngrid.length = {length!r}\noptimizer.max_iters = 1\n"
                       f"output.dir = {tmp_path / 'out'}\n")
        assert main(["relax", "--config", str(cfg)]) == 0
        meta, _ = hio.read_snapshot(tmp_path / "out" / "final.psi.hopf")
        assert meta["length"] == length

    @pytest.mark.parametrize("where", ["missing_parent", "under_file"])
    def test_ansatz_unwritable_out_exit_2(self, tmp_path, capsys, where):
        out = _unwritable(tmp_path, where)
        assert main(["ansatz", "--kind", "constant", "--n", "8", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("where", ["under_file", "is_file"])
    def test_relax_unwritable_dir_exit_2(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.setattr(cli, "relax", lambda *a, **k: pytest.fail("relax ran"))
        outdir = _unwritable(tmp_path, where)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid.n = 8\noutput.dir = {outdir}\n")
        assert main(["relax", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("where", ["missing_parent", "under_file"])
    def test_check_unwritable_json_exit_2(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.setattr(cli, "identity_suite", lambda *a, **k: pytest.fail("suite ran"))
        out = _unwritable(tmp_path, where)
        assert main(["check", "--sizes", "16,32", "--json-out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("where", ["missing_parent", "under_file"])
    def test_export_unwritable_out_exit_2(self, tmp_path, capsys, where):
        prefix = str(tmp_path / "e")
        assert main(["ansatz", "--kind", "constant", "--n", "8", "--out", prefix]) == 0
        capsys.readouterr()
        out = _unwritable(tmp_path, where)
        assert main(["export", "--in", prefix + ".psi.hopf", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_history_csv_schema(self, tmp_path, rng):
        psi0 = smooth_cp1_map(Grid(12), rng, amplitude=0.4)
        run = relax(psi0, RelaxConfig(max_iters=4, grad_tol=1e-12, charge_check_every=2))
        path = tmp_path / "history.csv"
        hio.write_history_csv(path, run)
        header, *lines = path.read_text().splitlines()
        assert tuple(header.split(",")) == HistoryRow._fields
        assert len(lines) == len(run.history) == 5
        for row, line in zip(run.history, lines):
            plain = tuple(row)
            assert row == plain and row[4] == row.grad_norm
            assert [None if tok == "" else float(tok) for tok in line.split(",")] == [
                None if v is None else float(v) for v in plain]


def _unwritable(tmp_path, where):
    """An output path whose parent is missing or a regular file, or that is a file."""
    regular = tmp_path / "file"
    regular.write_text("")
    return {"missing_parent": tmp_path / "missing" / "x", "under_file": regular / "x",
            "is_file": regular}[where]


def _forged_snapshot(path, meta=None, payload=None, meta_bytes=None):
    """A snapshot file with hand-made metadata and payload."""
    if meta_bytes is None:
        meta_bytes = json.dumps(meta).encode("utf-8")
    path.write_bytes(hio.MAGIC + struct.pack("<II", hio.FORMAT_VERSION, len(meta_bytes))
                     + meta_bytes + (payload or b""))
    return path


_MAP_META = {"n": 4, "length": 1.0, "kind": "map_s2", "components": 3}
_UNIT_X = np.tile([1.0, 0.0, 0.0], 4 ** 3).astype("<f8").tobytes()


def _with(**changes):
    return dict(_MAP_META, **changes)


@pytest.mark.parametrize("meta, payload", [
    ({key: value for key, value in _MAP_META.items() if key != "n"}, _UNIT_X),
    (_with(n=0), b""),
    (_with(n=-4), b""),
    (_with(n=4.0), _UNIT_X),
    (_with(n=16.0), _UNIT_X),
    (_with(n="16"), _UNIT_X),
    (_with(length=0.0), _UNIT_X),
    (_with(length=10 ** 400), _UNIT_X),
    (_with(length=1e-77), _UNIT_X),
    (_with(length=1e78), _UNIT_X),
    (_with(kind="sphere"), _UNIT_X),
    (_with(components=4), np.zeros(4 ** 4).astype("<f8").tobytes()),
    (_with(kind="lift_su2"), _UNIT_X),
    (_with(kind="potential", components=4), np.zeros(4 ** 4).astype("<f8").tobytes()),
    (_MAP_META, np.tile([np.nan, 0.0, 0.0], 4 ** 3).astype("<f8").tobytes()),
    (_MAP_META, np.tile([np.inf, 0.0, 0.0], 4 ** 3).astype("<f8").tobytes()),
    (_with(kind="potential", components=9), np.full(4 ** 3 * 9, np.nan).astype("<f8").tobytes()),
    (_with(kind="lift_su2", components=4),
     np.tile([np.nan, 0.0, 0.0, 0.0], 4 ** 3).astype("<f8").tobytes()),
], ids=["missing_n", "n_zero", "n_negative", "n_float", "n_float_16", "n_string", "length_zero",
        "length_huge", "length_1e-77", "length_1e78", "unknown_kind",
        "map_with_4_components", "lift_with_3_components", "potential_with_4_components",
        "nan_payload", "inf_payload", "nan_potential_payload", "nan_lift_payload"])
def test_bad_snapshot_meta_exit_2(tmp_path, capsys, meta, payload):
    # 1e-77 and 1e78 are the first powers of ten outside Grid's spacing rule at n = 4
    path = _forged_snapshot(tmp_path / "bad.hopf", meta, payload)
    assert main(["energy", "--map", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("length", [1e-300, 1e300])
@pytest.mark.parametrize("argv", [["energy", "--map", "{map}"],
                                  ["hopf", "--map", "{map}", "--lift", "{lift}"],
                                  ["export", "--in", "{map}", "--out", "{tmp}/x"]],
                         ids=["energy", "hopf", "export"])
def test_extreme_period_snapshot_exit_2(tmp_path, capsys, length, argv):
    # these once crashed with a traceback; read_snapshot refuses the header
    psi, u = fl.make_ansatz("hopf", Grid(16), 1)
    paths = {}
    for name, kind, obj in (("map", "map_s2", psi), ("lift", "lift_su2", u)):
        meta = {"n": 16, "length": length, "kind": kind, "components": obj.values.shape[-1]}
        paths[name] = _forged_snapshot(tmp_path / f"{name}.hopf", meta,
                                       hio._site_payload(obj.values).tobytes())
    assert main([arg.format(tmp=tmp_path, **paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: period length = ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lift.hopf", "map.hopf"]


@pytest.mark.parametrize("length", [1e-50, 1e50])
def test_extreme_period_snapshot_reads(tmp_path, capsys, length):
    # the energy scales exactly: the Dirichlet term with L, the Skyrme term with 1 / L
    psi, _ = fl.make_ansatz("hopf", Grid(16), 1)
    meta = {"n": 16, "length": length, "kind": "map_s2", "components": 3}
    path = _forged_snapshot(tmp_path / "map.hopf", meta, hio._site_payload(psi.values).tobytes())
    assert main(["energy", "--map", str(path), "--json"]) == 0
    got = json.loads(capsys.readouterr().out.splitlines()[-1])
    ref = energy_map(psi)
    scale = length / psi.grid.length
    assert abs(got["dirichlet"] - ref.dirichlet * scale) <= 1e-12 * got["dirichlet"]
    assert abs(got["skyrme"] - ref.skyrme / scale) <= 1e-12 * got["skyrme"]


@pytest.mark.parametrize("command", [["energy", "--map"], ["export", "--in"]])
def test_potential_with_24_components_exit_2(tmp_path, capsys, command):
    # 24 = 3 slots x 8 once read as an su2_u1 potential with 8 components:
    # energy died on a broadcast ValueError and export wrote it with exit 0
    meta = {"n": 4, "length": 1.0, "kind": "potential", "components": 24}
    path = _forged_snapshot(tmp_path / "bad.hopf", meta, np.zeros(4 ** 3 * 24).astype("<f8").tobytes())
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "components" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.hopf"]


@pytest.mark.parametrize("blob", [
    hio.MAGIC + b"\x01\x00",
    hio.MAGIC + struct.pack("<II", hio.FORMAT_VERSION, 500) + b"{}",
    hio.MAGIC + struct.pack("<II", hio.FORMAT_VERSION, 2) + b"\xff\xfe",
    hio.MAGIC + struct.pack("<II", hio.FORMAT_VERSION, 5) + b"{n: 4",
    hio.MAGIC + struct.pack("<II", hio.FORMAT_VERSION, 2) + b"[]",
], ids=["truncated_header", "truncated_metadata", "non_utf8_metadata", "malformed_json",
        "metadata_not_object"])
def test_malformed_snapshot_header_exit_2(tmp_path, capsys, blob):
    path = tmp_path / "bad.hopf"
    path.write_bytes(blob)
    assert main(["energy", "--map", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_snapshot_exit_2(tmp_path, capsys):
    assert main(["energy", "--map", str(tmp_path / "absent.hopf")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [["hopf"], ["hopf", "--lift", ""], ["hopf", "--map", ""]],
                         ids=["no_snapshot", "empty_lift_path", "empty_map_path"])
def test_hopf_without_a_snapshot_exit_2(capsys, argv):
    # an empty path is a path that cannot be read, not an absent option
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("kind, command, flag", [("map_s2", "energy", "--map"),
                                                 ("lift_su2", "hopf", "--lift")])
def test_non_unit_snapshot_exit_2(tmp_path, capsys, kind, command, flag):
    # the n = 8 hopf ansatz scaled by 3 once loaded and got an energy
    psi, u = fl.make_ansatz("hopf", Grid(8), 1)
    values = 3.0 * (psi if kind == "map_s2" else u).values
    meta = {"n": 8, "length": 2.0 * np.pi, "kind": kind, "components": values.shape[-1]}
    path = _forged_snapshot(tmp_path / "scaled.hopf", meta, hio._site_payload(values).tobytes())
    assert main([command, flag, str(path)]) == 2
    assert "not finite and unit" in capsys.readouterr().err


def test_valid_forged_snapshot_reads(tmp_path):
    path = _forged_snapshot(tmp_path / "ok.hopf", _MAP_META, _UNIT_X)
    meta, psi = hio.read_snapshot(path)
    assert meta == _MAP_META
    assert np.array_equal(psi.values[..., 0], np.ones((4, 4, 4)))


@pytest.mark.parametrize("argv", [["energy", "--map", "x.lift.hopf"],
                                  ["hopf", "--map", "x.lift.hopf"],
                                  ["hopf", "--lift", "x.psi.hopf"]],
                         ids=["energy_map", "hopf_map", "hopf_lift"])
def test_wrong_kind_snapshot_exit_2(tmp_path, capsys, argv):
    # each once died with an AttributeError traceback and exit 1
    prefix = str(tmp_path / "x")
    assert main(["ansatz", "--n", "8", "--out", prefix]) == 0
    capsys.readouterr()
    assert main(argv[:-1] + [str(tmp_path / argv[-1])]) == 2
    assert "snapshot, not" in capsys.readouterr().err
