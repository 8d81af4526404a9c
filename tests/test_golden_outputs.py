"""Golden outputs: the CLI's CSV files on tiny configs keep their bytes.

Every CSV cell is written with repr, so a refactor that reorders a sum or
changes a kernel shows up here as a changed hash.  The hashes were recorded
with numpy 2.4 and scipy 1.17; another BLAS or numpy build may round a last
digit differently.
"""

import hashlib
import json

import pytest

from jumpmdp import cli

CASES = {
    "clt-check": {
        "model": "two_d_benchmark",
        "clt_epsilon": 0.05,
        "clt_replications": 200,
        "n_cells": 32,
        "n_cells_analysis": 200,
    },
    "fluid": {"model": "two_d_benchmark", "n_cells_analysis": 200},
    "lemma-check": {"lemma": {"betas": [1.0, 2.0, 5.0], "eps": [0.1], "m_bound": 2.0}},
    "var-rep": {"var_rep": {"replications": 2000}},
    "mdp-slope": {
        "model": "two_d_benchmark",
        "eps_grid": [0.2, 0.1],
        "replications": 100,
        "is_replications": 100,
        "n_cells": 32,
        "n_cells_analysis": 200,
    },
    "simulate": {
        "model": "two_d_benchmark",
        "eps_grid": [0.2, 0.05],
        "replications": 100,
        "n_cells": 16,
        "dump_paths": True,
    },
    "rate": {
        "model": "two_d_benchmark",
        "n_cells_analysis": 200,
        "rate_targets": [[0.5, -0.2]],
    },
    "pollutant": {
        "pollutant": {
            "d_space": 1,
            "velocity": [2.0],
            "decay": 0.5,
            "radius": 0.05,
            "max_mode": 3,
            "atoms": [[0.3, 1.0, 0.6], [0.7, 2.0, 0.4]],
            "epsilon": 0.1,
            "seeds": [0, 1],
            "hs_levels": [4, 8, 12],
        },
    },
    # the tensor-product path: 9 modes at J = 2 and 25 at 2J on a 2-D box
    "pollutant-2d": {
        "pollutant": {
            "d_space": 2,
            "velocity": [2.0, 0.0],
            "decay": 0.5,
            "radius": 0.05,
            "max_mode": 2,
            "atoms": [[0.3, 0.4, 1.0, 0.6], [0.7, 0.6, 2.0, 0.4]],
            "ball_points": 256,
            "epsilon": 0.1,
            "seeds": [0, 1],
            "hs_levels": [4, 8, 12],
        },
    },
}
# case -> CLI command, where the case is not named after its command
COMMANDS = {"pollutant-2d": "pollutant"}

# case -> (exit code, {output file: sha256}).  At this size the 2-D slope
# misses its 25% gate, so mdp-slope exits 1; summary.csv is written first.
GOLDEN = {
    "clt-check": (0, {
        "clt_check.csv": "e9c101471c4abe7b394753f67759eef661f0c2e5311fc0451db75a26f2efefdb",
    }),
    "fluid": (0, {
        "fluid.csv": "7b60050e6534186acc75a606ab4fb8d0b52104eb29226de3eb4de7418ad86d3d",
    }),
    "lemma-check": (0, {
        "lemma_bounds.csv": "85e127cd64945d1e8732672e709c36fe0669ee5ac4b729b4618a7b46e59534d4",
        "lemma_constants.csv": "9758825b67f9bc5aa33f76401a0cc987bf1c21fbafc531f3ee758b90e719b359",
    }),
    "var-rep": (0, {
        "var_rep.csv": "87f2286485b4006cd00082da305461a65d351893a17b7fa42bbf1c10b16adee9",
    }),
    "mdp-slope": (1, {
        "summary.csv": "000b74118e54d49e5300ae890093d03b7ba940b541e5e8bda6d2c26037bf9673",
    }),
    "pollutant": (0, {
        "pollutant_field_T.csv": "24f5ded9213044d7a5e0b7d8e46923cd2707585e3275dc687972dfc5f157f410",
        "pollutant_fluid_coeffs.csv": "c1e54920ac1169460d14b63c8699b59b9dd2f8272137ce5558b11a5b12269ee7",
        "pollutant_modes.csv": "8aebc500888f0f0317e9532be190e5eefcf4cb0dbc5573b50d3ac4f758bb43c5",
        "pollutant_report.csv": "276fb5aad3540db194d4766abcb7befe8c12c05e2043241df4bd0923613dd639",
    }),
    "pollutant-2d": (0, {
        "pollutant_field_T.csv": "10cfc204004bb55f7f53c526db0be13cacff5359c065a773f4353b7ebc558f12",
        "pollutant_fluid_coeffs.csv": "cb7aafb03ec7965ecbaf996301b41c4130f4d10a6e28facaa50adea6bfe54c4a",
        "pollutant_modes.csv": "01b375d020dd32684e40f10facb1ccd6d299eb6131ad2d53f639ed7b0cafaa6d",
        "pollutant_report.csv": "e4c9771b66c3e24c7333948e1faf7187adf703fb58e66de761eb82d1873e2ed6",
    }),
    "rate": (0, {
        "rate_path_0.csv": "c9501837da65328cfa13b87eb5647084a0a6d71abada66d8098afaaa1b9fbf38",
        "rate_psi_0.csv": "eea01c8f5fd492ed889412dfdd11061e41c8fcb559c2f40c9bd66da56b0c8924",
        "rate_summary.csv": "b21c9f7b0aed6ed24606f7eae98838edae065cfa87a542d4e3a45da1a3542633",
    }),
    "simulate": (0, {
        "paths/eps0_rep0.csv": "3343bc1f640fd51755a8f66d41e9b8084e5b6755da6503e1be603efb043600de",
        "paths/eps0_rep1.csv": "1fb93daab420079ddc8dcbc6641a8bd3a19cdb7d483f60712a91c99a74b2ad73",
        "paths/eps0_rep2.csv": "321151ee2ec84927be631f0073232744c695ae11c0d3b8b0caef825ff1aa847c",
        "paths/eps0_rep3.csv": "db75a0e379f7f2e3f59cd8f26f88df9b573a55e410f86ecb341680c7165fb166",
        "paths/eps0_rep4.csv": "f7e1fff7bbf91cac3d5cb28efd271091174cbac6c2d2b7e269ecaedd2d4bfbf2",
        "paths/eps1_rep0.csv": "8328255ad8c46e8a1a4ba438e23622584d05b12671647ed37ce5c5cdbd6da918",
        "paths/eps1_rep1.csv": "9fa5a21a1f33499ee0f497a9c239a3fbb2ffde192c2d7c7f8658ab679b35cf0c",
        "paths/eps1_rep2.csv": "c25024959238e19e83422e3fa25635e270d9ce6b5e4e25e5b5599ec49142363b",
        "paths/eps1_rep3.csv": "07cf6f9a2f83b432b00490165eed07144cc8a72cda25cb3b1429f0fe6f835247",
        "paths/eps1_rep4.csv": "ccbf29dee288229d84f794855c937d8ea349bee4f1af824797d924041a9caa4d",
        "terminal_stats.csv": "d2bc00ba9253353df97b9ec063c276762dbc75b6cc5f49911c2419a217d5f5b3",
    }),
}


def run_case(case, out_dir):
    """Run one case's CLI command into out_dir; returns (exit code, {file: sha256})."""
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(CASES[case]))
    code = cli.main([COMMANDS.get(case, case), "--config", str(cfg_path), "--out", str(out_dir / "out")])
    hashes = {
        str(p.relative_to(out_dir / "out")): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((out_dir / "out").rglob("*.csv"))
    }
    return code, hashes


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path, capsys):
    code, hashes = run_case(case, tmp_path)
    expected_code, expected = GOLDEN[case]
    changed = sorted(
        name for name in set(hashes) | set(expected) if hashes.get(name) != expected.get(name)
    )
    assert code == expected_code and not changed, (
        f"{case}: exit code {code} (expected {expected_code}), changed files {changed}. "
        "If the change is intended, update GOLDEN in this file and name the changed "
        "files in CHANGES.md."
    )
