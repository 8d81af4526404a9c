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
    },
    # scalar_benchmark is time-invariant: one stored cell for W and Sigma_T
    "clt-check-scalar": {
        "model": "scalar_benchmark",
        "clt_epsilon": 0.05,
        "clt_replications": 200,
        "n_cells": 32,
    },
    "fluid": {"model": "two_d_benchmark", "n_cells": 200},
    "lemma-check": {"lemma": {"betas": [1.0, 2.0, 5.0], "eps": [0.1], "m_bound": 2.0}},
    "var-rep": {"var_rep": {"replications": 2000}},
    "mdp-slope": {
        "model": "two_d_benchmark",
        "eps_grid": [0.2, 0.1],
        "replications": 100,
        "is_replications": 100,
        "n_cells": 32,
    },
    "mdp-slope-scalar": {
        "model": "scalar_benchmark",
        "eps_grid": [0.2, 0.1],
        "replications": 100,
        "is_replications": 100,
        "n_cells": 32,
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
        "n_cells": 200,
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
COMMANDS = {"clt-check-scalar": "clt-check", "mdp-slope-scalar": "mdp-slope", "pollutant-2d": "pollutant"}

# case -> (exit code, {output file: sha256}).  At these sizes both slopes
# miss their 25% gate, so mdp-slope exits 1; summary.csv is written first.
GOLDEN = {
    "clt-check": (0, {
        "clt_check.csv": "fb1bd16393a707984c543a186d4354d72a1a99a64e40c6cd035848ef4eea7082",
    }),
    "clt-check-scalar": (0, {
        "clt_check.csv": "b7f3ca4e88c5bdab44cc3c55ef6d36b3fb9e433ec9c9479f43e10546e652fbad",
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
        "summary.csv": "565ce82624afed2b593ce60792a6d42727d7eba8fe128feae7d93a1495281e30",
    }),
    "mdp-slope-scalar": (1, {
        "summary.csv": "d55f60a0aea5657b0ac6a24a6913a0a2bec21f962c85938f8f763f5f37dc68c9",
    }),
    "pollutant": (0, {
        "pollutant_field_T.csv": "e45a35c97d9d0ed42618ffed83c8622d32ca8c0e849aa38a723c8cccc3a50b87",
        "pollutant_fluid_coeffs.csv": "5923338b157326ca2c9e1f049bf4ee7401e3c4f36524a2ba482135aa11026d35",
        "pollutant_modes.csv": "8aebc500888f0f0317e9532be190e5eefcf4cb0dbc5573b50d3ac4f758bb43c5",
        "pollutant_report.csv": "341326d57a915da5314c89decffb272099b456cddefe82c8ba9367e775f34c76",
    }),
    "pollutant-2d": (0, {
        "pollutant_field_T.csv": "75044f20aff754d6954a1367c7ad97e3cfbf879dcaa5825f65ff07a4a337e48f",
        "pollutant_fluid_coeffs.csv": "17ac8f13d3f6b98adf15ea491bfa4ea5724db73f35b67d6f8b25064e7b05bbf9",
        "pollutant_modes.csv": "01b375d020dd32684e40f10facb1ccd6d299eb6131ad2d53f639ed7b0cafaa6d",
        "pollutant_report.csv": "6ac5fbcd525d72fe9c4b95de8becb22f77d8cf92b2de62203159e4e297889fd7",
    }),
    "rate": (0, {
        "rate_path_0.csv": "40d68a3afc0169711c38b4b597a6ed04163a3a613bba18eff6277f7200117a10",
        "rate_psi_0.csv": "a5838bdd3997e6310a6b2359006c7c286f475eedb1179e8470f18e7106645b79",
        "rate_summary.csv": "de5169a179d35c796b0fc225ea5a4c2e47f72e1a4616a0e2abdd514aefc701d4",
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
