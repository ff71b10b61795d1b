"""The scenario catalogue: determinism, structure, sweep/CLI integration."""

import hashlib
import json

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.games import family_of
from repro.runtime.spec import MODEL_PARAMS, MODELS, SweepSpec, generate_instance
from repro.scenarios import (
    SCENARIOS,
    UnknownScenarioError,
    build_scenario,
    build_scenario_indexed,
    get_scenario,
    scenario_instances,
    scenario_names,
)
from repro.scenarios.families import _aq_edge_arrays

FAMILIES = ("broadcast", "multicast", "general", "weighted", "directed")


class TestCatalogue:
    def test_six_named_families(self):
        assert scenario_names() == [
            "augmented-cube",
            "grid",
            "hypercube",
            "isp-like",
            "lower-bound-cycle",
            "power-law",
        ]

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownScenarioError, match="did you mean 'grid'"):
            get_scenario("gird")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            build_scenario("grid", n=8, seed=0, density=0.5)

    @pytest.mark.parametrize("name", scenario_names())
    def test_both_views_reject_unknown_params_alike(self, name):
        with pytest.raises(ValueError, match="unknown parameter") as label:
            build_scenario(name, n=8, seed=0, density=0.5)
        with pytest.raises(ValueError) as indexed:
            build_scenario_indexed(name, n=8, seed=0, density=0.5)
        assert str(indexed.value) == str(label.value)

    def test_same_seed_same_instance(self):
        for name in scenario_names():
            a = api.serialize.game_to_json(build_scenario(name, n=11, seed=5))
            b = api.serialize.game_to_json(build_scenario(name, n=11, seed=5))
            c = api.serialize.game_to_json(build_scenario(name, n=11, seed=6))
            assert json.dumps(a) == json.dumps(b)
            if SCENARIOS[name].stochastic:
                assert json.dumps(a) != json.dumps(c)

    def test_every_game_family_wraps_every_scenario(self):
        for name in scenario_names():
            for fam in FAMILIES:
                game = build_scenario(name, n=10, seed=2, game=fam)
                assert family_of(game) == fam
                # defaults sit in the broadcast overlap: every solver works
                report = api.solve(game, solver="sne-lp3")
                assert report.feasible

    def test_tiny_random_pairs_terminate(self):
        # One non-root node: the only non-self endpoint is the root.
        game = build_scenario("grid", n=2, seed=0, game="general", pairs="random")
        assert [(p.source, p.target) for p in game.players] == [(1, 0)]

    def test_scenario_instances_helper(self):
        pairs = scenario_instances("weighted", n=8, seed=0)
        assert [name for name, _ in pairs] == scenario_names()
        assert all(family_of(g) == "weighted" for _, g in pairs)


class TestTopologies:
    def test_grid_is_trimmed_to_n(self):
        g = build_scenario("grid", n=11, seed=0).graph
        assert g.num_nodes == 11 and g.is_connected()

    def test_cubes_round_to_powers_of_two(self):
        hq = build_scenario("hypercube", n=13, seed=0).graph
        assert hq.num_nodes == 8  # Q_3
        assert hq.num_edges == 12  # d * 2^(d-1)
        aq = build_scenario("augmented-cube", n=13, seed=0).graph
        assert aq.num_nodes == 8
        # AQ_d has (2d - 1) 2^(d-1) edges: 20 for d = 3, denser than Q_3
        assert aq.num_edges == 20

    def test_augmented_cube_construction_never_repeats_an_edge(self):
        # The kernel draws one weight per constructed edge, with no dedup.
        for d in range(1, 17):
            raw = _aq_edge_arrays(d)
            assert len(raw) == (2 * d - 1) << (d - 1)
            lo, hi = raw.min(axis=1), raw.max(axis=1)
            assert (lo < hi).all() and hi.max() < 1 << d
            keys = np.sort(lo * (1 << d) + hi)
            assert not (keys[1:] == keys[:-1]).any()

    def test_power_law_has_hubs(self):
        g = build_scenario("power-law", n=30, seed=1, m=2).graph
        degrees = sorted(g.degree(u) for u in g.nodes)
        assert g.is_connected()
        assert degrees[-1] >= 3 * degrees[len(degrees) // 2]  # heavy tail

    def test_isp_backbone_is_discounted(self):
        game = build_scenario("isp-like", n=14, seed=3, hubs=4)
        g = game.graph
        assert g.is_connected()
        ring = [(i, (i + 1) % 4) for i in range(4)]
        access = [e for u, v, _ in g.edges() for e in [(u, v)] if u >= 4 or v >= 4]
        assert all(g.has_edge(u, v) for u, v in ring)
        assert access  # at least one uplink exists

    def test_lower_bound_cycle_and_wheel(self):
        cyc = build_scenario("lower-bound-cycle", n=9, seed=0).graph
        assert cyc.num_nodes == 9 and cyc.num_edges == 9
        wheel = build_scenario("lower-bound-cycle", n=9, seed=0, shape="wheel").graph
        assert wheel.degree(0) == 8  # the hub
        with pytest.raises(ValueError, match="cycle.*wheel|wheel.*cycle"):
            build_scenario("lower-bound-cycle", n=9, seed=0, shape="torus")


# The game wrappings the pinned digests cover, in digest order.
PINNED_WRAPPINGS = (
    {"game": "broadcast"},
    {"game": "multicast", "terminals": "half"},
    {"game": "general", "pairs": "random"},
    {"game": "weighted", "demands": "random"},
    {"game": "directed", "orientation": "oneway-chords"},
)

# SHA-256 per (topology, wrapping) over n in {5, 33} x seed in {0, 7}, pinned
# from the dict-of-dicts topology builders that the kernels' label view
# replaced.  Each digest covers the node insertion order, every node's
# adjacency order with its weights, and the serialized game.
PINNED_LABEL_DIGESTS = [
    ("grid", {}, (
        "4a869456a6770c4a51ee9b87f753c428c416c474d7d578626bb8a16368a677a7",
        "436c33baf0896b3d89d405a609d8643e3d2050b20eccb773d35b200a090a61d9",
        "3d99bfa8efd08ff09c631528e94644f99863173b592e9e60f680d34b0af89300",
        "3948c3ab383a4cc77bd43461028ffcc150887e8cfda47a142cbcd32dfcae02a4",
        "7bb1abb9392a06e5ffa72f896850342e8a3843ae1a0446b4e5ed2486dfeabf2e",
    )),
    ("grid", {"jitter": 0.0}, (
        "55bb29e81d1a0b0c052daedcc4d0e3c4ddfe01fd6f9ad95fe9a881ca7209da9e",
        "5a3a5f3d2775291f59396bc93af3c5bee0fa3155a0718bfe29ebe8e06fb8563c",
        "bf84c0bb91ec6e1b85f3c8528170d2d6188b7d7eb13e553723ed4bef8e7e865c",
        "c75d05ed8cf1afe816b048b8aa76a205e4a0a2b08fc31a200f01bf6df0ee0c30",
        "d241292e23dfa93f975e9be6d09890a2cafa6041df6d9d7a0a3f0308e325fbb4",
    )),
    ("hypercube", {}, (
        "6dd368f09e5f570226be844e8cbc3ef77f0cb466daec834b56189d893f99460a",
        "8bcfdae7197db0ddc0e54e7f82f61129ab2a82a2ec2525976574298f8e4147f0",
        "69bb768b7a8ac51c7fd5570f967086dfb1ba183badb5f378fb3f0366bda37a70",
        "aa452a4c95cf2b411aa2e1b7ac637664dcbf0a1046f0f97c31ac7a34e17a71d4",
        "b3df288919603a75e78777016377c6594e55d5f765e9066f945a5c74c323ec12",
    )),
    ("augmented-cube", {}, (
        "ef11f19867d367e6f11b2258e00b257efd6f24829fae05ea5227b2d69ea2302f",
        "0286ef57dd84aa77ba614c57080f50eaed92687b48156b9d6d315c6d4f9f9b93",
        "d37b31be4e317771726e51a06663ff089e16da0a7be3168ffbb7ecf949d32293",
        "2c8d936daf8a1fa5c8b634f27b2601ed567ec00d18f3a5e10a24898dcc0d93c3",
        "244195e164095a3ab569232a6bed3afc54f358eb4e6ceb79c2037d385151220b",
    )),
    ("power-law", {}, (
        "1c48ef4828226bd839cd6cf062a6dd7c5cf11e01c7af508cf7549760afb4b0cd",
        "324632eebaa9dfd79848a0f1221f835ba51ac01d3237e9f2d70352f04d706e86",
        "8378dcaa77acd2b02153de77998c985a3b46d3ab80b067d75c6e0633af6453df",
        "c73143d107a6730c44bd9fe9516e93922c3e006fee4cdd889e7fb95ac6507c55",
        "05f64ebac6f7f4a179e4fa60b4bc40721d5ff9beffa32d50e7606b4864186663",
    )),
    ("power-law", {"m": 3}, (
        "d4e045df45cf0913bce4da725edf95b7f74d3745e9853638c6e3d4d78efb325a",
        "e53416766ea0260bc132a3af76a046ad8330da55a3ccf590d0689bf329cedc59",
        "173364a15408aafc88a9042b337770d3b9c417740e0de968a7c7cd33b538127f",
        "50212f09440c4fd0f62b520fa31840731805a9bae13746885298767351c4fc7d",
        "9a204741bf2be3bb04ece7085061007774bc290198f66193f1bb57d2d16b12c6",
    )),
    ("isp-like", {}, (
        "05dabb1b658ab4469b704cd69e0847bc5e67ea570fb65a4f6a62120970eccb37",
        "90f5794d0cb9e4bff85d863ad93610626bdf6f3e1c748111f7a7845444227168",
        "c1996fa2901e879baea210ecc4f507e3590d62114d7e20db70e5d17539d0f938",
        "a1c592db42ff81fb2a97558dfc9c1f3c9a8ba0a258a5f0937f0d61694e18a119",
        "118c58a5e199609ea50003817e49ce57b6ddb198a24654e0a5973ca986b60e91",
    )),
    ("isp-like", {"hubs": 6}, (
        "9a00fd3a62f5780bcee686be717522975bb1db070c936b1c9c33cd942a17338c",
        "3837fe8d1047bce72b5003defaab310236a06b0dd26d39f1c685d05c22bf2965",
        "f9860d8cacc4f70bb7bc7b67a04ffbf3d583613e6321b78ff3dac2bc0b89d3ae",
        "585d609e17e1298d9fdb3c7af13d638efe17200852a3b312106ae3fcb5632f45",
        "33b83a945005b9aedb73258b0a77105d2dabe8e308f64a0525b95b2e240b933a",
    )),
    ("lower-bound-cycle", {}, (
        "dafa20014cc00f552ad37db739ac2a1ec80e472fd0953ccb64f3de76b479e372",
        "cd31dd8394feacdd4f8cf8d7a95b17dfcd64796ff93805f7f1d843b50e2766ca",
        "ebc3dcfb6ef420818bb6da40b987fcba44d797192d1fc423362497b6b98aa00a",
        "9efe4b29f2c101c44b61f9a430a73a559cc4e999899f059a0f1a9171a3984296",
        "38689d88d21b0ad22a6e1ba3675936bcfdd2c701e3709d881e66c7b08693952a",
    )),
    ("lower-bound-cycle", {"shape": "wheel"}, (
        "101e88e2b4d71a17e4c6aef8497c0d96531895c755a612ff96f9bf84314518a4",
        "b929a2f26fa75543332245ba84fb167dce76d5a3c897d85980aaa0efc6df08cb",
        "60721149998d0316be2ffba18aa0b75e0f49ecff0e40413f07709f089035be84",
        "9b7eb19359e410c3b8a456c1b7e750e1e78ac2cff55b6022af307dc42f2c9a67",
        "4916aa56143fc923fc9ec435982bb94e6ebae31b39f89d47ec457888e32ed28e",
    )),
]


def _label_digest(name, topo, wrap):
    h = hashlib.sha256()
    for n in (5, 33):
        for seed in (0, 7):
            game = build_scenario(name, n=n, seed=seed, **topo, **wrap)
            g = game.graph
            adj = [list(g.adjacency(u).items()) for u in g.nodes]
            doc = json.dumps(api.serialize.game_to_json(game), sort_keys=True)
            h.update(repr((list(g.nodes), adj, doc)).encode())
    return h.hexdigest()


class TestPinnedLabelInstances:
    @pytest.mark.parametrize(
        "name,topo,wrap,digest",
        [
            pytest.param(
                name,
                topo,
                wrap,
                digest,
                id="-".join([name, *(f"{k}={v}" for k, v in topo.items()), wrap["game"]]),
            )
            for name, topo, digests in PINNED_LABEL_DIGESTS
            for wrap, digest in zip(PINNED_WRAPPINGS, digests)
        ],
    )
    def test_label_instances_unchanged(self, name, topo, wrap, digest):
        assert _label_digest(name, topo, wrap) == digest


class TestSweepIntegration:
    def test_models_include_scenarios(self):
        for name in scenario_names():
            assert name in MODELS
            assert "game" in MODEL_PARAMS[name]

    def test_generate_instance_dispatches_to_scenarios(self):
        a = generate_instance("grid", 10, 7, jitter=0.1, game="weighted")
        b = build_scenario("grid", n=10, seed=7, jitter=0.1, game="weighted")
        assert api.serialize.game_to_json(a) == api.serialize.game_to_json(b)

    def test_spec_expands_scenario_grid(self):
        spec = SweepSpec.from_mapping(
            {
                "solvers": ["sne-lp3"],
                "models": ["grid", "lower-bound-cycle"],
                "sizes": [8, 10],
                "count": 2,
                "seed": 0,
                "params": {"jitter": 0.1, "shape": "cycle"},
            }
        )
        jobs = spec.expand()
        assert len(jobs) == 8
        labels = {j.label for j in jobs}
        assert "grid-n8[0] x sne-lp3" in labels
        assert all(j.instance["kind"] == "broadcast-game" for j in jobs)

    def test_spec_rejects_fitting_nothing(self):
        with pytest.raises(ValueError, match="fit none of"):
            SweepSpec.from_mapping(
                {"solvers": ["sne-lp3"], "models": ["grid"], "params": {"radius": 1}}
            )

    def test_sweep_runs_scenario_family_grid(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--solver",
                "sne-lp3",
                "--model",
                "hypercube",
                "--n",
                "8",
                "--count",
                "2",
                "--seed",
                "0",
                "--no-cache",
                "--quiet",
                "--json-out",
                str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert [j["family"] for j in data["jobs"]] == ["broadcast", "broadcast"]
        assert all(j["status"] == "ok" for j in data["jobs"])


class TestCLI:
    def test_families_lists_catalogue(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        for fam in FAMILIES:
            assert fam in out

    def test_gen_family_round_trips(self, tmp_path, capsys):
        out = tmp_path / "instances.json"
        rc = main(
            [
                "gen",
                "--family",
                "grid",
                "--game",
                "weighted",
                "--param",
                "demands=random",
                "--n",
                "9",
                "--count",
                "2",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["kind"] == "instance-set"
        games = [api.serialize.game_from_json(p) for p in data["instances"]]
        assert all(family_of(g) == "weighted" for g in games)
        # solvable end to end through the batch CLI
        rc = main(
            ["solve-batch", str(out), "--solver", "sne-cutting-plane", "--json"]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2 and all(r["feasible"] for row in rows for r in row)

    def test_gen_param_without_family_is_an_error(self, capsys):
        assert main(["gen", "--param", "jitter=0.5"]) == 2
        assert "--family" in capsys.readouterr().err

    def test_gen_family_rejects_generator_flags(self, capsys):
        assert main(["gen", "--family", "grid", "--model", "gnp", "--density", "0.9"]) == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--density" in err

    def test_run_all_json_records_families(self, tmp_path):
        out = tmp_path / "all.json"
        rc = main(["run", "all", "--skip", "E8", "--no-cache", "--json-out", str(out), "--out", str(tmp_path / "all.txt")])
        assert rc == 0
        summary = json.loads(out.read_text())
        s1 = next(e for e in summary["experiments"] if e["id"] == "S1")
        assert s1["ok"]
        assert s1["families"] == sorted(FAMILIES)
