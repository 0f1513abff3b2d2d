"""The builtin scenarios' sampled columns against their expectations in the model, over a
fixed ensemble of seeds.

The golden pins check bytes; this checks physics. Each sampled column of `run_all` has an
expectation in the model: the `distributions` counts are multinomial draws of shots ·
`p_simulated`, a `precession` fit's phase scatters about `phase_predicted` by its
`phase_err` and its contrast about exp(-gamma T) by its `contrast_err`, and each
`transform_fringes` ion's contrast scatters across seeds by about its `contrast_err`. The test
bounds aggregates only, so it holds on every (numpy SIMD tier, OpenBLAS core) pair, whichever
way a tie in the last bits falls.
"""

import json

import numpy as np
import pytest

from magicforge import harness
from magicforge.engine import NoiseModel

SEEDS = range(1, 21)
TABLES = ("distributions", "distribution_summary", "precession", "transform_fringes")


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    """Each table of `run_all` at each seed of SEEDS, as lists of rows."""
    runs = []
    for seed in SEEDS:
        directory = tmp_path_factory.mktemp(f"seed{seed}")
        harness.run_all(directory, seed)
        runs.append({stem: json.loads((directory / f"{stem}.json").read_text())
                     for stem in TABLES})
    return runs


def test_distribution_counts_are_multinomial_draws_of_the_model(ensemble):
    # Pearson chi^2 of each input's counts against shots * p_simulated has 7 dof (8 outcomes
    # summing to shots); the sum over 20 seeds x 4 inputs is within 5 sigma = 5 sqrt(2 dof)
    chi2, dof = 0.0, 0
    for run in ensemble:
        for summary in run["distribution_summary"]:
            rows = [r for r in run["distributions"] if r["input"] == summary["input"]]
            counts = np.array([r["counts"] for r in rows])
            expected = summary["shots"] * np.array([r["p_simulated"] for r in rows])
            assert counts.sum() == summary["shots"], summary["input"]
            chi2 += ((counts - expected) ** 2 / expected).sum()
            dof += len(rows) - 1
    assert dof == 7 * 4 * len(SEEDS)
    assert abs(chi2 - dof) <= 5 * np.sqrt(2 * dof), (chi2, dof)


def test_precession_fits_scatter_by_their_reported_errors(ensemble):
    # over 20 seeds x 16 fits, a z-score's mean has a standard error of about 0.056 and its
    # sd one of about 0.04; the bands are about 5 of those. The contrast's expectation is
    # exp(-gamma T): only the probe's own dephasing reaches its coherence. A fit's contrast,
    # 2 sqrt(a^2 + b^2), is biased upward by the noise on a and b, so its band is shifted
    # (seeds 1-140 read means of 0.01 to 0.13 in blocks of 20).
    gamma = NoiseModel().sigma_dephasing_rate
    rows = [r for run in ensemble for r in run["precession"]]
    offset = np.array([r["phase"] - r["phase_predicted"] for r in rows])
    phase_z = np.angle(np.exp(1j * offset)) / np.array([r["phase_err"] for r in rows])
    contrast_z = np.array([(r["contrast"] - np.exp(-gamma * r["duration_ms"] * 1e-3))
                           / r["contrast_err"] for r in rows])
    assert len(rows) == 16 * len(SEEDS)
    assert abs(phase_z.mean()) <= 0.3 and 0.8 <= phase_z.std(ddof=1) <= 1.2, phase_z
    assert -0.2 <= contrast_z.mean() <= 0.4 and 0.8 <= contrast_z.std(ddof=1) <= 1.2, contrast_z


def test_transform_fringe_contrasts_scatter_by_their_reported_errors(ensemble):
    # each ion's contrast is one fit per seed of the same fringe, so across seeds it spreads
    # by about its contrast_err (0.022 to 0.027 by ion). The spread, pooled over the three
    # ions about each ion's own mean, has 57 dof, so its ratio to the mean reported error
    # has a standard error of about 0.09; the band is about 5 of those
    by_ion = {}
    for run in ensemble:
        for r in run["transform_fringes"]:
            by_ion.setdefault(r["ion"], []).append((r["contrast"], r["contrast_err"]))
    assert sorted(by_ion) == [0, 1, 2]
    fits = np.array(list(by_ion.values()))  # (ion, seed, (contrast, contrast_err))
    spread = np.sqrt(fits[..., 0].var(axis=1, ddof=1).mean())
    ratio = spread / fits[..., 1].mean()
    assert 0.55 <= ratio <= 1.45, (spread, fits[..., 1].mean())
