"""Bit-for-bit pins of every value the batched Gauss-Kronrod layer produces beyond the
critical density and the limit mu (test_thermodynamics pins those).

Each entry is the float.hex recorded before the quadrature loop was split from its
first-pass cut, on perfbench's (lambda, beta) grid: the kernel panels at r = 1, 5, 20
and the series at r = 5 for beta mu = -1 and -0.1, the pressure at beta mu = -10, -1,
-0.1 and -1e-4, the by-parts critical density and the finite-amplitude bound at
amplitude 2; and the exact spacing probability at three sample sizes. A change to the
cut, the rule, the acceptance test or the order of the sums moves some of them.
"""

import pytest

from bec1d import (
    ModelParams,
    critical_density_bound,
    critical_density_by_parts,
    kernel_limit,
    pressure_limit,
    spacing_probability_exact,
)

BETA_MUS = (-1.0, -0.1)
KERNEL_RS = (1.0, 5.0, 20.0)
PRESSURE_BETA_MUS = (-10.0, -1.0, -0.1, -1e-4)

#: (lambda, beta): kernel panels per beta mu (r = 1, 5, 20), series per beta mu (r = 5),
#: pressure per PRESSURE_BETA_MUS, by-parts critical density, bound at amplitude 2
PINNED = {
    (0.5, 0.5): {
        "panels": (
            ("0x1.e8da9ab650b24p-5", "0x1.8b3253db1fc0ap-19", "-0x1.62e184b99d1d7p-69"),
            ("0x1.0c41f820c23d6p-1", "0x1.71e55d8c3fc41p-8", "0x1.044f49df3c0d7p-32"),
        ),
        "series": ("0x1.8b3253db1f27ap-19", "0x1.71e55d8c3fc37p-8"),
        "pressure": ("0x1.152a1e22fc8a6p-15", "0x1.36a3bf5df085dp-2",
                     "0x1.05ea48552e0a9p+0", "0x1.48de0411a80bfp+0"),
        "by_parts": "0x1.f4d9843ce7b5ap+0",
        "bound": "0x1.51f0ec2794fd0p+2",
    },
    (0.5, 1.0): {
        "panels": (
            ("0x1.bb8cc59690facp-5", "0x1.2b0a6cd6d8a41p-15", "0x1.bcffb26767555p-57"),
            ("0x1.5b5f0bd87f1f9p-2", "0x1.089fa2821d6bdp-7", "0x1.7684198dcfe42p-28"),
        ),
        "series": ("0x1.2b0a6cd6d8939p-15", "0x1.089fa2821d6b2p-7"),
        "pressure": ("0x1.47b44d25d7d1ap-17", "0x1.6bd3e921131d5p-4",
                     "0x1.27f047318a86dp-2", "0x1.69b0c8d090ee8p-2"),
        "by_parts": "0x1.b8674da44aad9p-1",
        "bound": "0x1.3b8cfe340f46fp+1",
    },
    (0.5, 2.0): {
        "panels": (
            ("0x1.32312bdce87bdp-5", "0x1.7011416eb2583p-13", "0x1.0db7122cbd7ddp-45"),
            ("0x1.7d451020276f0p-3", "0x1.11b9effe5dcbap-7", "0x1.589935cea27ccp-25"),
        ),
        "series": ("0x1.7011416eb254ap-13", "0x1.11b9effe5dcb3p-7"),
        "pressure": ("0x1.68a837fe33b71p-19", "0x1.8bb466a2ae393p-6",
                     "0x1.34ed43115f7cdp-4", "0x1.707437b6e8024p-4"),
        "by_parts": "0x1.6f15e47c29ad6p-2",
        "bound": "0x1.1a997a1f9a0bcp+0",
    },
    (1.0, 0.5): {
        "panels": (
            ("0x1.d6d21817b74ffp-6", "0x1.a46a24a9a81fap-23", "-0x1.b58eb7119bdfap-84"),
            ("0x1.8f488211f9fffp-3", "0x1.2704858f0dadcp-12", "0x1.d64b1959792e5p-48"),
        ),
        "series": ("0x1.a46a24a9a4bc8p-23", "0x1.2704858f0da96p-12"),
        "pressure": ("0x1.68a837fe33b71p-16", "0x1.8bb466a2ae393p-3",
                     "0x1.34ed43115f7cdp-1", "0x1.707437b6e8024p-1"),
        "by_parts": "0x1.6f15e47c29ad6p-1",
        "bound": "0x1.9803054d640b0p+1",
    },
    (1.0, 1.0): {
        "panels": (
            ("0x1.785c56cf93fa9p-6", "0x1.28ec58523c0b1p-19", "0x1.f464ca6d72840p-72"),
            ("0x1.c32c7d38cd67cp-4", "0x1.78f3793e3acebp-12", "0x1.2ddd30be850b6p-43"),
        ),
        "series": ("0x1.28ec58523bddap-19", "0x1.78f3793e3acc0p-12"),
        "pressure": ("0x1.677d330d58871p-18", "0x1.84e0082b6432fp-5",
                     "0x1.227399d9c638dp-3", "0x1.533ac1552f81ep-3"),
        "by_parts": "0x1.1bae94157b261p-2",
        "bound": "0x1.6c6366593f822p+0",
    },
    (1.0, 2.0): {
        "panels": (
            ("0x1.abd3db8ae8d87p-7", "0x1.4f4f6f6d1c4fap-17", "0x1.16a492df28d81p-60"),
            ("0x1.99cc629338db6p-5", "0x1.5b976b0f4f484p-12", "0x1.ed690a249c3d3p-41"),
        ),
        "series": ("0x1.4f4f6f6d1c4b8p-17", "0x1.5b976b0f4f471p-12"),
        "pressure": ("0x1.38d6fc4b501e9p-20", "0x1.4d07a64f26b0ep-7",
                     "0x1.dbc0f3b70a7b2p-6", "0x1.111efade997d6p-5"),
        "by_parts": "0x1.8a1403310aa8fp-4",
        "bound": "0x1.2ef6c5987a49dp-1",
    },
    (2.0, 0.5): {
        "panels": (
            ("0x1.cd2183aa3d382p-8", "0x1.f795fb80cb98bp-31", "-0x1.a31355009caa2p-112"),
            ("0x1.204aacd0a8dcfp-5", "0x1.e9e2aa8331e12p-21", "0x1.f4e2c00aacfdep-78"),
        ),
        "series": ("0x1.f795fb80c7ae2p-31", "0x1.e9e2aa8331d34p-21"),
        "pressure": ("0x1.38d6fc4b501e9p-17", "0x1.4d07a64f26b0ep-4",
                     "0x1.dbc0f3b70a7b2p-3", "0x1.111efade997d6p-2"),
        "by_parts": "0x1.8a1403310aa8fp-3",
        "bound": "0x1.04f2b8e7c884cp+1",
    },
    (2.0, 1.0): {
        "panels": (
            ("0x1.2a128494f403cp-8", "0x1.4218b9ddfce12p-27", "0x1.5c09aa2fafe87p-101"),
            ("0x1.10f8bbec9dd14p-6", "0x1.17061eeea09b1p-20", "0x1.1e30412b670e7p-73"),
        ),
        "series": ("0x1.4218b9ddfc788p-27", "0x1.17061eeea095dp-20"),
        "pressure": ("0x1.c4f566471911dp-20", "0x1.da1c031824f21p-7",
                     "0x1.44c9429e6bd3ap-5", "0x1.70058d1c474c2p-5"),
        "by_parts": "0x1.d74c28e2a7bdcp-5",
        "bound": "0x1.b52152ba57371p-1",
    },
    (2.0, 2.0): {
        "panels": (
            ("0x1.e99ec03466436p-10", "0x1.44fdcf303faa8p-25", "0x1.5ae191c9c3347p-90"),
            ("0x1.777b124abf3b9p-8", "0x1.d062996db2fb3p-21", "0x1.a3eeaec2bee89p-71"),
        ),
        "series": ("0x1.44fdcf303f9e6p-25", "0x1.d062996db2f5bp-21"),
        "pressure": ("0x1.0054e2d72cd2dp-22", "0x1.07f395ee3d655p-9",
                     "0x1.5cdd28e9e4b2fp-8", "0x1.8783c27520ad6p-8"),
        "by_parts": "0x1.c9a950a93e21fp-7",
        "bound": "0x1.43d21063de1b6p-2",
    },
}

#: spacing_probability_exact(k, 1.0, 0.5, 1.0) per sample size k
PINNED_SPACING = {
    10: "0x1.660c5bec1684bp-1",
    1000: "0x1.5fc105974390dp-2",
    1000000: "0x1.8df1d0a00f30fp-1",
}


@pytest.mark.parametrize("lam, beta", sorted(PINNED))
class TestPinnedLimitValues:
    def test_kernel_panels(self, lam, beta):
        got = tuple(tuple(kernel_limit(ModelParams(lam), beta, beta_mu / beta, r).hex()
                          for r in KERNEL_RS) for beta_mu in BETA_MUS)
        assert got == PINNED[(lam, beta)]["panels"]

    def test_kernel_series(self, lam, beta):
        got = tuple(kernel_limit(ModelParams(lam), beta, beta_mu / beta, 5.0,
                                 method="series").hex() for beta_mu in BETA_MUS)
        assert got == PINNED[(lam, beta)]["series"]

    def test_pressure(self, lam, beta):
        got = tuple(pressure_limit(ModelParams(lam), beta, beta_mu / beta).hex()
                    for beta_mu in PRESSURE_BETA_MUS)
        assert got == PINNED[(lam, beta)]["pressure"]

    def test_critical_density_by_parts(self, lam, beta):
        got = critical_density_by_parts(ModelParams(lam), beta).hex()
        assert got == PINNED[(lam, beta)]["by_parts"]

    def test_critical_density_bound(self, lam, beta):
        got = critical_density_bound(ModelParams(lam), beta, 2.0).hex()
        assert got == PINNED[(lam, beta)]["bound"]


@pytest.mark.parametrize("k", sorted(PINNED_SPACING))
def test_spacing_probability_exact(k):
    assert spacing_probability_exact(k, 1.0, 0.5, 1.0).hex() == PINNED_SPACING[k]
