r"""Bit-identity of the fluid trajectories across the float-native kernel.

Pins the decision of PR 20.  The scalar DDE kernel steps on Python
floats; before it, the same loop ran on ``(dim,)`` numpy arrays.  Both
do the same IEEE-754 double operations in the same order, so every
trajectory — registered models through ``simulate()``, array-contract
right-hand sides through ``integrate_dde`` — must come out bit for bit.

The constants below are SHA-256 digests of ``sol.t`` and ``sol.y`` at
commit 61dafcf, the last one with the array kernel, generated *before*
any edit by running this module's cases against that tree from the root
of this one::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q 61dafcf
    PYTHONPATH=/tmp/parent/src python - <<'EOF'
    from tests.fluid.test_trajectory_pins import CASES, digest
    for name, run in CASES.items():
        print(f'    "{name}":\n        "{digest(run())}",')
    EOF

A NaN's sign and payload are not part of the arithmetic contract (x86
and ARM disagree on the default NaN), so ``digest`` hashes every NaN as
the one canonical ``np.nan``; where a blow-up turns infinite and where
it turns NaN is pinned all the same.
"""

import hashlib

import numpy as np
import pytest

from repro.fluid import integrate_dde, make_fluid_model


def digest(sol) -> str:
    sha = hashlib.sha256()
    for a in (sol.t, sol.y):
        a = np.ascontiguousarray(a, dtype=np.float64)
        sha.update(np.where(np.isnan(a), np.nan, a).tobytes())
    return sha.hexdigest()


# ----------------------------------------------------------------------
# registered models: simulate()
# ----------------------------------------------------------------------
#: variant -> constructor keywords; "clamp" flips each model's default
VARIANTS = {
    "default": lambda name: {},
    "clamp": lambda name: {"clamp": name != "pert_pi"},
    "r171": lambda name: {"rtt": 0.171},
    "r50": lambda name: {"rtt": 0.05},
}

CASES = {
    f"{name}.{variant}.{method}":
        lambda name=name, kw=kw, method=method:
            make_fluid_model(name, **kw(name)).simulate(5.0, method=method)
    for name in ("pert_red", "tcp_red", "pert_pi")
    for variant, kw in VARIANTS.items()
    for method in ("rk4", "euler")
}
CASES.update({
    # a lag shorter than the step: k4's row is end-clamped every step
    "pert_red.lag_below_dt": lambda: make_fluid_model(
        "pert_red", rtt=0.004, capacity=5000.0, clamp=True
    ).simulate(2.0, dt=5e-3),
    # past the stability boundary, unclamped: finite, then inf, then NaN
    "tcp_red.blow_up_30s": lambda: make_fluid_model(
        "tcp_red", rtt=0.3).simulate(30.0),
    "pert_red.x0_given": lambda: make_fluid_model("pert_red").simulate(
        5.0, x0=(4.0, 0.07, 0.06)),
    "pert_red.n_of_t": lambda: make_fluid_model(
        "pert_red", n_of_t=lambda t: 5.0 if t < 2.0 else 8.0).simulate(5.0),
    # the span is not a multiple of the step: ends at round(T / dt) * dt
    "pert_pi.ragged_span": lambda: make_fluid_model("pert_pi").simulate(
        1.0004, x0=[1.0, 0.0, 0.0]),
})

# ----------------------------------------------------------------------
# array contract: integrate_dde
# ----------------------------------------------------------------------
_A = np.array([[-0.5, 1.0, 0.0], [-1.0, -0.5, 0.25], [0.0, 0.0, -0.125]])


def _two_d(t, x, xd):
    return np.array([x[1], -x[0] - 0.5 * xd[1]])


CASES.update({
    "array.matvec": lambda: integrate_dde(
        lambda t, x, xd: _A @ x, [1.0, 0.0, 2.0], (0.0, 4.0), dt=1e-3),
    "array.hayes": lambda: integrate_dde(
        lambda t, x, xd: -xd, [1.0], (0.0, 6.0), dt=1e-3, lag=1.0),
    "array.hayes_euler": lambda: integrate_dde(
        lambda t, x, xd: -xd, (1.0,), (-0.5, 5.5), dt=1e-2,
        method="euler", lag=1.0),
    "array.two_d_delayed_component": lambda: integrate_dde(
        _two_d, np.array([1.0, 0.0]), (0.0, 8.0), dt=1e-2, lag=0.37),
    "array.lag_below_dt": lambda: integrate_dde(
        lambda t, x, xd: -xd + 0.25 * x, [1.0, -2.0], (0.0, 6.0),
        dt=0.1, lag=0.03),
    "array.constant_rhs": lambda: integrate_dde(
        lambda t, x, xd: np.array([1.0, -2.0]), [0.0, 0.0], (0.0, 1.0),
        dt=0.1),
})

PINS = {
    "pert_red.default.rk4":
        "7340a1873ea30de8c967f83932f1e5a630b7550d82d9728c782e13182a2cec52",
    "pert_red.default.euler":
        "1f8546dc98d621949e0c91cb7d98e6821d329792a9e19f909f3ddef8731f1bb3",
    "pert_red.clamp.rk4":
        "3111b60dedc230a1b89f2a82b5a345bf6fad7f822701faa938177e9b0c2992f4",
    "pert_red.clamp.euler":
        "2ae58bcf92f963fecfb6e3e94a041a1b1ce7690c70e7490462ade4ab989d6bf4",
    "pert_red.r171.rk4":
        "d77f6bdaceb5c30d5db656474f9bceda6e1498204686b38d234e41278be6ad09",
    "pert_red.r171.euler":
        "9a25f9940a2ab11d4f2e0746f605f00b51a6326f58a754975425237849a2828d",
    "pert_red.r50.rk4":
        "c64dc4ef5a888aa1c53a9ea05040f7dc8edb234642ca29bf8cbf5e4ce626585e",
    "pert_red.r50.euler":
        "b4e10e6db5e1ce2258718977290bbbe560794c85ffa2bce8ee9f47a3609fc7d5",
    "tcp_red.default.rk4":
        "b8cc16112ad94c7ea3214fa03fffd88a67c2b1b7890d667d75e870f10259cefc",
    "tcp_red.default.euler":
        "f1a16f538b1e50aa1010813a0575d339ab21893c3f9fbb46d166559c9d768a0b",
    "tcp_red.clamp.rk4":
        "5c430cf5d33681f89143ff146f419b4c77bffa2a4074883265f6d685b9bc44db",
    "tcp_red.clamp.euler":
        "fd4299c13778c2433d3a988ac83e0024cd7be70de4aee47a6abfaaf61c3e211d",
    "tcp_red.r171.rk4":
        "47640c217054dfc3b8cab6426ce3dd69fb9faa5ea4ad475d56c2c6b2a178feb8",
    "tcp_red.r171.euler":
        "0b07153f599b75a8118512b1204c6c485926a01f95299bc82891c1a4931da072",
    "tcp_red.r50.rk4":
        "9d8e486817df1f3b266b8d07402abe1031d60eb5aa3b5ddd88f58e0e4cbe093d",
    "tcp_red.r50.euler":
        "91add5d20cfb30ef0029981bc2a8a04b84f61662f566f20bb1dbc2f624500a74",
    "pert_pi.default.rk4":
        "cc6917131cc3df8946e0cf293aa345d29fc3f1cf62f6fd9becd0bba03d9d6ad5",
    "pert_pi.default.euler":
        "3bee25b420b6b3948fec6e86e0638bc11b50b072b5a188a1caba3e25e47e244d",
    "pert_pi.clamp.rk4":
        "9004d21aa7a648cc2bbfc7178f2e25d098e0b4d083d6981414e23b28405b5e46",
    "pert_pi.clamp.euler":
        "c29a12ab0b0d7888ad055b0e727ce69b5ad563afeb2e1a37519c042629cfd19e",
    "pert_pi.r171.rk4":
        "370fbd5d2f0f709396588d485f9142d18b9ceb811128728d14f9f4faf4d1724f",
    "pert_pi.r171.euler":
        "ab29efbd8a12f51caa9bdd9ede145c1541f2bb06d6e609c6a247ee6023602bc3",
    "pert_pi.r50.rk4":
        "f6ae16c8e1e08a20a757b82662387f228502043f53dda41d31919d3a53532edb",
    "pert_pi.r50.euler":
        "b2000f67c64df92258700a4c553394c5d62f03c3acb31226cc32e1ace4a7c8d7",
    "pert_red.lag_below_dt":
        "141948a7a5b7dd52ec42ad91fdcb6c6fcc3a5139226a53f23e22249e8e395862",
    "tcp_red.blow_up_30s":
        "75a7970c9d32cfa2035eddf3450ac8f01c601aa6262c0332cebfc2270c31fbbf",
    "pert_red.x0_given":
        "e76321f6c20c26cc5e78fe511c8e578d42bbb2c0807a7ecc098a71f1e4ea4f95",
    "pert_red.n_of_t":
        "5f0a5d3a240f5134fbdd066edac12532fd094ce341e94375eb1cf28750d08e72",
    "pert_pi.ragged_span":
        "b3cc05ac3a1b881157f5759354f30b4f219b145875af9e93fcc5528e5ee6f6bb",
    "array.matvec":
        "11a9587dc65cd8d0cd32bf5f96fe70f030d1996ceffee6e6d53949dcb5b0286b",
    "array.hayes":
        "0c942837a95f754dd663a5db9417d1b87e83c2a7e3c9f5eb7a15341b87b0b3ea",
    "array.hayes_euler":
        "95c221dd35c0d50bf38546910e23f52486d6fe431f0176ba7b1f67e1d932bedc",
    "array.two_d_delayed_component":
        "59b4f189904cc2de3a4bea8becc270a43b96fa17b218bf53cb4c24c7beeba20e",
    "array.lag_below_dt":
        "0b627b7df0dc12e0ecdbad766e5cb5fd8290b524e4c7d3f0ff93a1325eda90d3",
    "array.constant_rhs":
        "06c7bbd6a276ad384780e6f72650cfea9956739b15318baa3b29e62d3d098cc0",
}


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_is_bit_identical_to_the_array_kernel(name):
    assert digest(CASES[name]()) == PINS[name]
