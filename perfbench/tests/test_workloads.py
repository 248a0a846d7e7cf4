"""Tests of the workloads' seeded inputs."""

import numpy as np

import srgo
import workloads


def test_escalation_momentum_lands_in_the_exact_band_on_every_seed():
    structure = srgo.load_model("cartan").structure
    lift = workloads.m_dual(structure)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = workloads.draw_m_coords(rng, structure, zero=(3, 4))
        a[3] = workloads.escalation_p4(a)
        sent = np.array([float(x) for x in workloads.p0_text(a).split(",")])
        cert = srgo.check_homogeneous(srgo.Momentum(lift @ sent, structure))
        low, high = workloads.ESCALATION_BAND
        assert cert.verdict == srgo.NOT_HOMOGENEOUS, seed
        assert low <= cert.residual < high, seed
