from __future__ import annotations

import hashlib
import json

import pytest

from poolsim.cli import main
from poolsim.geometry import euclid
from poolsim.model import load_requests
from poolsim.roadnet import load_network


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("net")
    assert main(["gen-grid", "--nx", "10", "--ny", "10",
                 "--spacing-km", "0.5", "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def req_file(tmp_path_factory, net_dir):
    path = tmp_path_factory.mktemp("reqs") / "requests.csv"
    assert main(["gen-requests",
                 "--nodes", str(net_dir / "nodes.csv"),
                 "--edges", str(net_dir / "edges.csv"),
                 "--count", "6", "--duration-s", "120",
                 "--seed", "5", "--out", str(path)]) == 0
    return path


def sim_args(net_dir, req_file, out, *extra):
    return ["simulate",
            "--nodes", str(net_dir / "nodes.csv"),
            "--edges", str(net_dir / "edges.csv"),
            "--requests", str(req_file),
            "--out", str(out), "--pvs", "2", *extra]


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "poolsim" in capsys.readouterr().out


class TestGenGrid:
    def test_writes_network_and_manifest(self, tmp_path):
        out = tmp_path / "g"
        assert main(["gen-grid", "--nx", "4", "--ny", "3",
                     "--spacing-km", "0.5", "--out", str(out)]) == 0
        net = load_network(str(out / "nodes.csv"), str(out / "edges.csv"))
        assert len(net.nodes) == 12
        assert len(net.edges) == 3 * 3 + 4 * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "poolsim"
        assert manifest["command"] == "gen-grid"
        assert manifest["settings"] == {"nx": 4, "ny": 3, "spacing_km": 0.5}
        assert manifest["seed"] is None

    def test_regeneration_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["gen-grid", "--nx", "5", "--ny", "5",
                         "--out", str(tmp_path / sub)]) == 0
        for name in ("nodes.csv", "edges.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_degenerate_grid_is_usage_error(self, tmp_path):
        assert main(["gen-grid", "--nx", "1", "--ny", "3",
                     "--out", str(tmp_path / "x")]) == 1

    def test_bad_spacing_is_usage_error(self, tmp_path):
        for spacing in ("0", "-1", "inf", "nan"):
            out = tmp_path / spacing
            assert main(["gen-grid", "--nx", "3", "--ny", "3",
                         "--spacing-km", spacing, "--out", str(out)]) == 1
            assert not out.exists()


class TestGenRequests:
    def base(self, net_dir, out, *extra):
        return ["gen-requests",
                "--nodes", str(net_dir / "nodes.csv"),
                "--edges", str(net_dir / "edges.csv"),
                "--out", str(out), *extra]

    def test_min_separation_enforced(self, net_dir, tmp_path):
        out = tmp_path / "r.csv"
        assert main(self.base(net_dir, out, "--count", "30",
                              "--duration-s", "600",
                              "--min-e-km", "3", "--seed", "5")) == 0
        net = load_network(str(net_dir / "nodes.csv"),
                           str(net_dir / "edges.csv"))
        reqs = load_requests(str(out), net)
        assert len(reqs) == 30
        for r in reqs:
            assert euclid(net.point(r.o), net.point(r.d)) >= 3.0
            assert 0.0 <= r.t < 600.0
        assert [r.t for r in reqs] == sorted(r.t for r in reqs)
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["command"] == "gen-requests"
        assert manifest["settings"]["min_e_km"] == 3.0
        assert manifest["seed"] == 5

    def test_same_seed_same_bytes(self, net_dir, tmp_path):
        outs = []
        for sub in ("a.csv", "b.csv"):
            out = tmp_path / sub
            assert main(self.base(net_dir, out, "--count", "12",
                                  "--seed", "9")) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seed_different_bytes(self, net_dir, tmp_path):
        outs = []
        for seed, sub in (("1", "a.csv"), ("2", "b.csv")):
            out = tmp_path / sub
            assert main(self.base(net_dir, out, "--count", "12",
                                  "--seed", seed)) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_rate_mode_draws_count(self, net_dir, tmp_path):
        out = tmp_path / "r.csv"
        assert main(self.base(net_dir, out, "--rate-per-h", "120",
                              "--duration-s", "1800", "--seed", "3")) == 0
        net = load_network(str(net_dir / "nodes.csv"),
                           str(net_dir / "edges.csv"))
        reqs = load_requests(str(out), net)
        # Poisson with mean 60; a draw this far out would be astronomical
        assert 20 <= len(reqs) <= 120

    @pytest.mark.parametrize("flags,sha256", [
        (("--count", "50", "--min-e-km", "1.0", "--seed", "3"),
         "a43660fb2693c136f872886ac54901c6ea6e4acd95b18c23242e30af4cfa2f2c"),
        (("--rate-per-h", "300", "--duration-s", "1800", "--seed", "5"),
         "14f880ea2c04da73ea71cd530e71798c1f2ffd27d77b7bfd033dd33e59fcf681"),
        (("--count", "40", "--party-n", "2", "--seed", "9"),
         "ccadc55f82d7a1dd2a306405c66cef157eecb1d6f6cc49fa8eeb57bf0e29ad22"),
    ], ids=["min-e", "rate", "party"])
    def test_pinned_draws(self, tmp_path, flags, sha256):
        # the sampler's draw order is part of the file format: a change to
        # it moves every request file a seed produces
        net = tmp_path / "net"
        assert main(["gen-grid", "--nx", "12", "--ny", "9",
                     "--spacing-km", "0.4", "--out", str(net)]) == 0
        out = tmp_path / "r.csv"
        assert main(self.base(net, out, *flags)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_count_and_rate_conflict(self, net_dir, tmp_path):
        assert main(self.base(net_dir, tmp_path / "x", "--count", "5",
                              "--rate-per-h", "10")) == 1

    def test_neither_count_nor_rate(self, net_dir, tmp_path):
        assert main(self.base(net_dir, tmp_path / "x")) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--duration-s", "0"), ("--duration-s", "inf"),
        ("--duration-s", "nan"), ("--min-e-km", "-1"),
        ("--min-e-km", "inf"), ("--min-e-km", "nan"),
        ("--rate-per-h", "0"), ("--rate-per-h", "inf"),
        ("--rate-per-h", "nan"),
    ])
    def test_bad_float_is_usage_error(self, net_dir, tmp_path, flag, value):
        count = [] if flag == "--rate-per-h" else ["--count", "5"]
        assert main(self.base(net_dir, tmp_path / "r.csv", *count,
                              flag, value)) == 1
        assert not any(tmp_path.iterdir())

    def test_impossible_separation_is_input_error(self, net_dir, tmp_path):
        assert main(self.base(net_dir, tmp_path / "x", "--count", "5",
                              "--min-e-km", "100")) == 2

    def test_missing_network_is_input_error(self, tmp_path):
        assert main(["gen-requests", "--nodes", str(tmp_path / "no.csv"),
                     "--edges", str(tmp_path / "no2.csv"),
                     "--count", "5", "--out", str(tmp_path / "x")]) == 2


class TestSimulate:
    def test_run_writes_reports_and_manifest(self, net_dir, req_file,
                                             tmp_path):
        out = tmp_path / "sim"
        assert main(sim_args(net_dir, req_file, out)) == 0
        for name in ("report.json", "metrics.csv", "requests.csv",
                     "events.jsonl", "manifest.json", "timing.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        s = manifest["settings"]
        assert s["max_detour"] == 0.2
        assert s["wait_threshold_s"] == 240.0
        assert s["buffer_km"] == 6.0
        assert s["capacity"] == 5
        assert s["speed_kmh"] == 30.0
        assert s["gating"] == "literal"
        assert set(manifest["inputs"]) == {"nodes", "edges", "requests"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64

        report = json.loads((out / "report.json").read_text())
        assert report["scheduler"] == "psap"
        assert report["n_requests"] == 6
        totals = report["totals"]
        assert totals["completed"] + totals["unserved"] == 6

    def test_missing_requests_is_input_error(self, net_dir, tmp_path):
        assert main(sim_args(net_dir, tmp_path / "absent.csv",
                             tmp_path / "sim")) == 2

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_release_time_is_input_error(self, net_dir, tmp_path,
                                                    t):
        req = tmp_path / "requests.csv"
        req.write_text(f"id,t_s,n,o_node,d_node\n0,0.0,1,0,55\n1,{t},1,9,90\n")
        # with a horizon, a request that slipped through would end the run
        # with exit 0 rather than hang it (inf) or schedule it early (nan)
        assert main(sim_args(net_dir, req, tmp_path / "sim",
                             "--horizon-s", "600")) == 2
        assert not (tmp_path / "sim" / "report.json").exists()

    @pytest.mark.parametrize("name,line,row", [
        ("nodes.csv", 28, "27,nan,nan"), ("nodes.csv", 28, "27,inf,1.5"),
        ("edges.csv", 1, "0,0,1,inf,true"),
    ])
    def test_non_finite_network_is_input_error(self, net_dir, req_file,
                                               tmp_path, name, line, row):
        lines = (net_dir / name).read_text().splitlines()
        assert lines[line].split(",")[0] == row.split(",")[0]
        lines[line] = row
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        args = sim_args(net_dir, req_file, tmp_path / "sim")
        args[args.index("--" + name[:-4]) + 1] = str(tmp_path / name)
        assert main(args) == 2

    def test_invalid_delta_is_usage_error(self, net_dir, req_file, tmp_path):
        assert main(sim_args(net_dir, req_file, tmp_path / "sim",
                             "--delta", "-0.5")) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--delta", "nan"), ("--buffer-km", "nan"), ("--speed-kmh", "inf"),
    ])
    def test_non_finite_value_is_usage_error(self, net_dir, req_file,
                                             tmp_path, flag, value):
        assert main(sim_args(net_dir, req_file, tmp_path / "sim",
                             flag, value)) == 1

    def test_inclusive_psap_reproduces_exhaustive_outcomes(self, net_dir,
                                                           req_file,
                                                           tmp_path):
        a = tmp_path / "psap"
        b = tmp_path / "es"
        assert main(sim_args(net_dir, req_file, a, "--gating", "inclusive",
                             "--scheduler", "psap")) == 0
        assert main(sim_args(net_dir, req_file, b, "--scheduler", "es")) == 0
        for name in ("requests.csv", "events.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seeded_rerun_byte_identical(self, net_dir, req_file, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(sim_args(net_dir, req_file, out, "--seed", "4")) == 0
            outs.append(out)
        for name in ("report.json", "metrics.csv", "requests.csv",
                     "events.jsonl"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())


class TestCompare:
    def run_compare(self, net_dir, req_file, out, *extra):
        return main(["compare",
                     "--nodes", str(net_dir / "nodes.csv"),
                     "--edges", str(net_dir / "edges.csv"),
                     "--requests", str(req_file),
                     "--out", str(out), "--pvs", "2",
                     "--harness-samples", "2000", *extra])

    def test_compare_outputs(self, net_dir, req_file, tmp_path):
        out = tmp_path / "cmp"
        assert self.run_compare(net_dir, req_file, out) == 0
        summary = json.loads((out / "compare.json").read_text())
        assert set(summary) == {"config", "psap", "es", "evaluated_ratio",
                                "assignment_diff", "harness"}
        for leg in ("psap", "es"):
            c = summary[leg]["counters"]
            assert c["m_a"] <= c["n_a"]
            assert c["m_b"] <= c["n_b"]
            assert c["m_c"] <= c["n_c"]
        es_c = summary["es"]["counters"]
        assert (es_c["m_a"], es_c["m_b"], es_c["m_c"]) == (
            es_c["n_a"], es_c["n_b"], es_c["n_c"])
        if summary["evaluated_ratio"] is not None:
            assert summary["evaluated_ratio"] <= 1.0 + 1e-12
        assert len(summary["harness"]) == 3
        for row in summary["harness"]:
            assert abs(row["psi_a"] - row["expected_psi_a"]) < 0.05
            assert abs(row["psi_b"] - row["expected_psi_b"]) < 0.05
        for leg in ("psap", "es"):
            assert (out / leg / "report.json").exists()
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing["wall_s"]) == {"psap", "es"}

    def test_inclusive_gating_empty_assignment_diff(self, net_dir, req_file,
                                                    tmp_path):
        out = tmp_path / "cmp"
        assert self.run_compare(net_dir, req_file, out,
                                "--gating", "inclusive") == 0
        summary = json.loads((out / "compare.json").read_text())
        assert summary["assignment_diff"]["count"] == 0
        assert summary["assignment_diff"]["only_psap"] == []
        assert summary["assignment_diff"]["only_es"] == []

    def test_zero_harness_samples_is_usage_error(self, net_dir, req_file,
                                                  tmp_path):
        assert self.run_compare(net_dir, req_file, tmp_path / "cmp",
                                "--harness-samples", "0") == 1
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("fractions", ["abc", "1.5", "0", "nan"])
    def test_bad_harness_fraction_writes_nothing(self, net_dir, req_file,
                                                 tmp_path, fractions):
        assert self.run_compare(net_dir, req_file, tmp_path / "cmp",
                                "--harness-fractions", fractions) == 1
        assert not (tmp_path / "cmp").exists()

    def test_harness_fractions_flag(self, net_dir, req_file, tmp_path):
        out = tmp_path / "cmp"
        assert self.run_compare(net_dir, req_file, out,
                                "--harness-fractions", "0.25") == 0
        summary = json.loads((out / "compare.json").read_text())
        assert len(summary["harness"]) == 1
        assert summary["harness"][0]["area"] == pytest.approx(
            0.25 * summary["harness"][0]["s"])
