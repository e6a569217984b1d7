"""Golden digests of everything ``simulate``, ``steps`` and ``analyze`` write.

A small fixed corpus runs through the three commands; each exit code and the
SHA-256 of every written file must match the recorded values.  A change that
moves a digest must update it here and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from stepforge.cli import main

EXIT_CODES = {"simulate": 0, "steps": 0, "analyze": 0}

GOLDEN = {
    "sim/covariates.csv": "8ec06c57568469375a14bc0a84264bb684e8ac76e03974b6cb19b56bf3c57d22",
    "sim/minutes.csv": "b210607e1b79287fe85b0689b6dd5d9a7218eff188fe6892e4c1b49b2a99c8c5",
    "sim/mortality.csv": "9f2429fc4d41a255cb19551a6c5986bed41c27128d5d76fc1125363a422cf95f",
    "sim/raw/R0001.csv": "080e6b1ef4a95948dad7c2f10dbe26b4a3a42a70aa6b3de519fb8262d5f009b6",
    "sim/raw/R0001.csv.sfg1": "08962b7f8e86e1727b9c047ebaf04dc4931903de70675bc91c214dd1d11bf595",
    "steps/R0001_minutes.csv": "2723dec9301a190fb8a8e496ef7244b0a1929537766e538f238f7b6f258381e6",
    "tables/age_curves.csv": "011d71ed1848957618d540b10aec7bbf17fd7f526c3896e8ec4631ba0ca4102d",
    "tables/age_percent_change.csv": "69817e197344bcc682c7bc388cc3698eb99b0a40a80ef22a576d0128b854598a",
    "tables/between_wave_diff.csv": "56611f6d3a9469477f9587c3c1b651fa4220f9bbdd1c9abc2588490a2d7ee058",
    "tables/correlations.csv": "86c66d68223a4b8c159cd7781f30b8a5f1048efdf38d46ada2e1639fb1debedc",
    "tables/day_summaries.csv": "b1d30e99c619641bb6b26c00a74f0d2da20dd65210cab5eac2d23ccbbe84ec44",
    "tables/hazard_ratios.csv": "ec5e295e7c2788168f1c7a3a7ef801fe58c9cdc83fadbfa1d9df339cf52bf0e9",
    "tables/model_suite.csv": "d6eb835fdfa950464daa0dd040224719759b30961e32f03d15c85a1ef1ecf930",
    "tables/subject_summaries.csv": "e3622b3bf6357d99c292f46a7fb511313b606a5033e03fa58ac1982079dd4523",
    "tables/univariate_cvc.csv": "0a7330b8cf49edea038e31f81d1e5b1abc49c987c26dc1664f56122b7e89327d",
    "tables/unknown_transitions.csv": "6b9955ed0e413ca299a310041dc2df19ce8be5b4048baac5be765abce4e8581f",
    "tables/validity_report.csv": "6ba9f13985e344525a83907f9e2d30a4e87587df4a05b815d3d702fbcbeaeeca",
    "tables/weighted_means.csv": "d0792803ac7271626af4467a2e9f1e090c4d7d2b15d2615d177f2a9b62a1844e",
}


def _digests(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sim, steps, tables = root / "sim", root / "steps", root / "tables"
    config = tmp_path_factory.mktemp("golden_config") / "analysis.cfg"
    config.write_text("cv_repeats = 2\ncv_folds = 3\n")
    codes = {
        "simulate": main([
            "simulate", "--out", str(sim), "--subjects", "120", "--days", "4",
            "--seed", "7", "--raw-subjects", "1",
        ]),
        "steps": main(["steps", str(sim / "raw"), "--out", str(steps)]),
        "analyze": main([
            "analyze", str(sim / "minutes.csv"),
            "--covariates", str(sim / "covariates.csv"),
            "--mortality", str(sim / "mortality.csv"),
            "--config", str(config), "--out", str(tables),
        ]),
    }
    return codes, _digests(root)


def test_exit_codes(golden_run):
    codes, _ = golden_run
    assert codes == EXIT_CODES


def test_every_written_file_matches_its_digest(golden_run):
    _, digests = golden_run
    assert sorted(digests) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert changed == []
