"""A battery of solves whose every outcome is pinned.

Each case runs one solver: the closed and open genus-0 solvers or the open
genus-1 solver, at rank 1 over the windows D3-D8 x A1-A3, the rank-2 pair,
the rank-3 seeds of the `generate` benchmark and five more quartic and
quintic WDVV variants.  The other inconsistent cases inject one term into
consistent data, as
`test_genus0.py::TestOpenSolver::test_inconsistent_closed_data_has_no_solution`
does.  A solve that succeeds pins the SHA-256 of its emitted series and of
the repr of its `free` list; one that fails pins the `NoSolutionError`'s
label, message and weight.  The values were recorded before the solver
engine moved its rows to packed keys.
"""

import hashlib
from fractions import Fraction
from functools import cache

import pytest

import ottr.genus0 as genus0
import ottr.genus1 as genus1
from ottr.algebra import JetPoly, phivar, vvar
from ottr.bigphase import BigSeries, TheoryData, Truncation, mono_from_factors, s_var, t_var
from ottr.genus0 import (
    NoSolutionError,
    solve_closed_order_by_order,
    solve_open_order_by_order,
    validate_closed_genus0,
)
from ottr.serialize import emit

WINDOWS = [(d, a) for d in range(3, 9) for a in (1, 2, 3)]
ANTIDIAGONAL = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def _theory(rank: int, degree: int, amax: int) -> TheoryData:
    tr = Truncation.of(degree, amax)
    if rank == 1:
        return TheoryData.rank1(tr)
    if rank == 2:
        return TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], tr)
    return TheoryData.build(3, ANTIDIAGONAL, [1, 0, 0], tr)


def _jet(th: TheoryData, *exponents: int) -> JetPoly:
    """prod v{alpha}_0^e over the exponents, then phi^e for one more."""
    jt = th.trunc.jet()
    out = JetPoly.const(1, jt)
    for alpha, e in enumerate(exponents, 1):
        var = vvar(alpha, 0) if alpha <= th.n else phivar(0)
        for _ in range(e):
            out = out * JetPoly.var(var, jt)
    return out


def _inject(f: BigSeries, *factors) -> BigSeries:
    bad = mono_from_factors(factors)
    return f + BigSeries.from_coeffs({bad: Fraction(1)}, f.trunc, rel=f.rel)


@cache
def _closed(rank: int, degree: int, amax: int):
    th = _theory(rank, degree, amax)
    seed = sum((_jet(th, *(3 * (i == alpha) for i in range(th.n))) * Fraction(1, 6)
                for alpha in range(rank)), JetPoly.zero(th.trunc.jet()))
    return th, solve_closed_order_by_order(seed, th)


@cache
def _open(rank: int, degree: int, amax: int):
    th, closed = _closed(rank, degree, amax)
    return th, closed.series, solve_open_order_by_order(closed.series, _open_seed(th), th)


def _open_seed(th: TheoryData) -> JetPoly:
    zeros = [0] * (th.n - 1)
    return _jet(th, 1, *zeros, 1) + _jet(th, 0, *zeros, 3) * Fraction(1, 6)


def _go(th: TheoryData, name: str) -> JetPoly:
    zeros = [0] * (th.n - 1)
    return {"phi3": _jet(th, 0, *zeros, 3) * Fraction(1, 6),
            "vphi": _jet(th, 1, *zeros, 1),
            "zero": JetPoly.zero(th.trunc.jet())}[name]


def _solve_f1o(f0, f0o, go, th):
    """solve_f1o's series, and the free list of its engine run."""
    runs = []
    real = genus1._march

    def spy(*args):
        runs.append(real(*args))
        return runs[-1]

    genus1._march = spy
    try:
        series = genus1.solve_f1o(f0, f0o, go, th)
    finally:
        genus1._march = real
    return series, runs[0].free


def _rank3(extra: tuple[int, int, int], th: TheoryData | None = None):
    th = th or _theory(3, 6, 2)
    seed = (_jet(th, 2, 0, 1) + _jet(th, 1, 2, 0)) * Fraction(1, 2) + _jet(th, *extra)
    result = solve_closed_order_by_order(seed, th)
    return th, result.series, result.free


def _case(name: str):
    """(theory, series, free) of one solve; NoSolutionError passes through."""
    kind, *args = name.split("-")
    if kind == "closed":
        th, result = _closed(1, int(args[0][1:]), int(args[1][1:]))
        return th, result.series, result.free
    if kind == "open":
        th, _f0, result = _open(1, int(args[0][1:]), int(args[1][1:]))
        return th, result.series, result.free
    if kind == "genus1":
        d, a, go = int(args[0][1:]), int(args[1][1:]), args[2]
        th, f0, result = _open(1, d, a)
        return (th, *_solve_f1o(f0, result.series, _go(th, go), th))
    if kind == "rank2":
        th, f0, result = _open(2, 5, 1)
        if args[0] == "closed":
            return th, f0, _closed(2, 5, 1)[1].free
        return th, result.series, result.free
    if kind == "frobenius":  # eta = 1, A = (1, 1, 1), D5/A2
        th = TheoryData.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1],
                              Truncation.of(5, 2))
        seed = (_jet(th, 3) + _jet(th, 0, 3) + _jet(th, 0, 0, 3)) * Fraction(1, 6)
        result = solve_closed_order_by_order(seed, th)
        return th, result.series, result.free
    if kind == "rank3":  # the WDVV seed plus v1^e1 v2^e2 v3^e3, antidiagonal eta
        return _rank3(tuple(int(c) for c in args[0]))
    d, a = int(args[0][1:]), int(args[1][1:])
    if kind == "badopen":  # closed data with one extra term t1_0^e0 t1_1^e1
        th, closed = _closed(1, d, a)
        f0 = _inject(closed.series, (t_var(1, 0), int(args[2][0])), (t_var(1, 1), int(args[2][1])))
        result = solve_open_order_by_order(f0, _open_seed(th), th)
        return th, result.series, result.free
    if kind == "badgenus1":  # open data with one extra term s_0^e0 t1_1^e1
        th, f0, result = _open(1, d, a)
        f0o = _inject(result.series, (s_var(0), int(args[2][0])), (t_var(1, 1), int(args[2][1])))
        return (th, *_solve_f1o(f0, f0o, _go(th, "phi3"), th))
    raise ValueError(name)


def outcome(name: str, case=_case) -> tuple:
    """("ok", sha256 of emit(series), sha256 of repr(free), len(free)) or
    ("error", repr(label), str(error), weight)."""
    try:
        th, series, free = case(name)
    except NoSolutionError as err:
        return "error", repr(err.label), str(err), err.weight
    digest = hashlib.sha256(emit(series, th).encode()).hexdigest()
    return "ok", digest, hashlib.sha256(repr(free).encode()).hexdigest(), len(free)


GO_BY_DEGREE = {3: "zero", 4: "phi3", 5: "vphi", 6: "phi3", 7: "vphi", 8: "phi3"}
CASES = ([f"closed-D{d}-A{a}" for d, a in WINDOWS]
         + [f"open-D{d}-A{a}" for d, a in WINDOWS]
         + [f"genus1-D{d}-A{a}-{GO_BY_DEGREE[d]}" for d, a in WINDOWS]
         + ["rank2-closed", "rank2-open", "frobenius"]
         + [f"rank3-{e}" for e in ("040", "004", "013", "022", "031", "005", "023")]
         + [f"badopen-D{d}-A{a}-{e}" for d, a, e in
            [(5, 1, "21"), (6, 1, "21"), (7, 2, "21"), (8, 3, "21"), (6, 2, "12"),
             (7, 3, "31"), (8, 2, "12")]]
         + [f"badgenus1-D{d}-A{a}-{e}" for d, a, e in
            [(5, 1, "21"), (6, 2, "21"), (7, 2, "12"), (8, 3, "11"), (8, 3, "31")]])

PINNED = {
    'closed-D3-A1': ('ok', '37f0076d03f167d96c62aeaa1c930bdb11c357ac4081f046c3fb8ed6f285b8cb', '3f97ffa737fc001c507035f5f92953ff271876c6fe3d2968583875afb2d215b8', 2),
    'closed-D3-A2': ('ok', 'f1487a18dc0110d09dbd97ad803ec4598efa293562af870391af8d634fcca77b', '48294ff42d5771486f1508e9c370d55c1fbf5444eda8f9abfd083ad87b58bd6b', 5),
    'closed-D3-A3': ('ok', 'bdd0769dcd62e7e20ff2eeca0834dc41e0006b06fa6297141577101801636d6e', '612ceba6f175f08fbd5af027d8e73d102565a60e48ca912e59acb2dbf665c43a', 9),
    'closed-D4-A1': ('ok', '6d20fd411c1916774c032315cfce5d52999a8a7b3112e8476f261b91bcd7039f', '3f97ffa737fc001c507035f5f92953ff271876c6fe3d2968583875afb2d215b8', 2),
    'closed-D4-A2': ('ok', '5aa70d2dd4f97146b77c77812041ca9466b9cfd7c8c07808d801cb553946750f', '48294ff42d5771486f1508e9c370d55c1fbf5444eda8f9abfd083ad87b58bd6b', 5),
    'closed-D4-A3': ('ok', '462f857719cb0e049d7aa3cb28d41652ad2d8abdce9747c7e19ec9a6393c60d7', '612ceba6f175f08fbd5af027d8e73d102565a60e48ca912e59acb2dbf665c43a', 9),
    'closed-D5-A1': ('ok', '60fd5a57b3ec3353019c324a366ab7f6e72f4bf34167be8f1300fec6b1e6fc23', '3f97ffa737fc001c507035f5f92953ff271876c6fe3d2968583875afb2d215b8', 2),
    'closed-D5-A2': ('ok', '32d8566ec2f8ae510aeae714eb467fa3b742a6bdec6e6d5f44d2fa855760748d', '48294ff42d5771486f1508e9c370d55c1fbf5444eda8f9abfd083ad87b58bd6b', 5),
    'closed-D5-A3': ('ok', '5c7053bc41673d4ca08cdc47df8a6e79ac55bdbb0559034555ba55c815d8b684', '612ceba6f175f08fbd5af027d8e73d102565a60e48ca912e59acb2dbf665c43a', 9),
    'closed-D6-A1': ('ok', '0a5dbab23be6d9eeac94f0cc6e4578540a4c007e220f37599f2fcf714075c446', '3f97ffa737fc001c507035f5f92953ff271876c6fe3d2968583875afb2d215b8', 2),
    'closed-D6-A2': ('ok', 'ca4eef8b860812db518ad8f41e449491089ebdee1ac340a68a67b3963ef668f4', '48294ff42d5771486f1508e9c370d55c1fbf5444eda8f9abfd083ad87b58bd6b', 5),
    'closed-D6-A3': ('ok', '97b625ed4be2cc2e075b65c565c5337a96b02fce00bb1d57049ee89b24f84dcb', '612ceba6f175f08fbd5af027d8e73d102565a60e48ca912e59acb2dbf665c43a', 9),
    'closed-D7-A1': ('ok', '9a8fb53686bd9efeaed549ab6c2865317ef0a66a7047a78de2f4af01c6e4e99d', '3f97ffa737fc001c507035f5f92953ff271876c6fe3d2968583875afb2d215b8', 2),
    'closed-D7-A2': ('ok', 'f25ce8aeb07e6bbe82e57bc306f6bd5c7f29968d1fc7f774a964656e5eebdf58', '48294ff42d5771486f1508e9c370d55c1fbf5444eda8f9abfd083ad87b58bd6b', 5),
    'closed-D7-A3': ('ok', 'e4829ee528e9270a26faefdfe6a6838d6ece1533af2597fc44b75d4aa5c2d6fb', '612ceba6f175f08fbd5af027d8e73d102565a60e48ca912e59acb2dbf665c43a', 9),
    'closed-D8-A1': ('ok', 'f4ceab04844589bab3aa99ed1ff3c165c9e64b5cb8b64b2d79118fa7c7d79714', '3f97ffa737fc001c507035f5f92953ff271876c6fe3d2968583875afb2d215b8', 2),
    'closed-D8-A2': ('ok', '4a35bebca78b8e92647d8a66f6eaceada5faa853620a5c59c3e72ca57f173ca2', '48294ff42d5771486f1508e9c370d55c1fbf5444eda8f9abfd083ad87b58bd6b', 5),
    'closed-D8-A3': ('ok', '5151c6fd533df1c4021b4fa6e4a84ba011fa1fb566456cfabd69c4cff20ed1c6', '612ceba6f175f08fbd5af027d8e73d102565a60e48ca912e59acb2dbf665c43a', 9),
    'open-D3-A1': ('ok', '2f7f6ff254d3c64e03f2f7dce3b7f92e5fdf1229e3203e9f6eab0a720ac79dac', '42a60058d722fa84d1e9e85653938fc76af25eb7ef5ad162c6908ce542d470b8', 2),
    'open-D3-A2': ('ok', '1d842e6288e860bc529a294a73f26dc57573d1f528cdb1880824eff94de6d196', 'a983e505f6b2626f2fbd647dea2bcc3e9e1fd61059ca58fc64a54c80656badae', 4),
    'open-D3-A3': ('ok', '568720ef70562a678e7f718d85e6eb60458971e5da1e60ebfbfad3abc765b6e3', '4f00b0822b0254011d60fcd7093e492e495cc96927291db7e7bcd22f0852faf9', 6),
    'open-D4-A1': ('ok', 'f4db7c98c3cb1f4357aa0cc2f6a6c14f0d20506d20da649cb206e24d836f9c96', '42a60058d722fa84d1e9e85653938fc76af25eb7ef5ad162c6908ce542d470b8', 2),
    'open-D4-A2': ('ok', 'b334cd9faddf0fac0acfd55ed907b17ce8c31dea30b4c30226d3ceba4e8ccb6f', 'a983e505f6b2626f2fbd647dea2bcc3e9e1fd61059ca58fc64a54c80656badae', 4),
    'open-D4-A3': ('ok', '968ff33a1bd541ced99bbab14adc5e461bfca7e8ad92ddb8473ef2f51ed68674', '4f00b0822b0254011d60fcd7093e492e495cc96927291db7e7bcd22f0852faf9', 6),
    'open-D5-A1': ('ok', 'ed894c24336bbfb44bbba513ef46bcafe80277fa48a4343f1bddcc67dc322725', '42a60058d722fa84d1e9e85653938fc76af25eb7ef5ad162c6908ce542d470b8', 2),
    'open-D5-A2': ('ok', 'e3f10f9b82e96b9c40e023958f43549a3c8925705c2fba3a53894eec339860f6', 'a983e505f6b2626f2fbd647dea2bcc3e9e1fd61059ca58fc64a54c80656badae', 4),
    'open-D5-A3': ('ok', '3e7b4d1042dce95e415335a9cc5ffa596f3393f1a95e9a5cf19d73ead7a9360e', '4f00b0822b0254011d60fcd7093e492e495cc96927291db7e7bcd22f0852faf9', 6),
    'open-D6-A1': ('ok', '517d4bb9d85a09409ec569784e4435569667a6c5201c11ef406594bef58184fb', '42a60058d722fa84d1e9e85653938fc76af25eb7ef5ad162c6908ce542d470b8', 2),
    'open-D6-A2': ('ok', 'd1f77713dcdbeeeeea45eb9e27f5cc7ba4cace658c346d8a3d60edb97dadd6e9', 'a983e505f6b2626f2fbd647dea2bcc3e9e1fd61059ca58fc64a54c80656badae', 4),
    'open-D6-A3': ('ok', 'c36dd3fb0d4cc50419f1676b7ab328118082b68254d4f7575b069920afb309fb', '4f00b0822b0254011d60fcd7093e492e495cc96927291db7e7bcd22f0852faf9', 6),
    'open-D7-A1': ('ok', 'a38f5dfa49a36dbf53b38e9fa11d988382f26cb8e8698b67a321389bdca1cc2c', '42a60058d722fa84d1e9e85653938fc76af25eb7ef5ad162c6908ce542d470b8', 2),
    'open-D7-A2': ('ok', '625a539f1c906a8abcbf920cc8f2763a828b85dcfd556316e463551aec47d983', 'a983e505f6b2626f2fbd647dea2bcc3e9e1fd61059ca58fc64a54c80656badae', 4),
    'open-D7-A3': ('ok', '4a8e572e1465e282cb5a31868c720b621dce288879fecc60611d9b69f949fd93', '4f00b0822b0254011d60fcd7093e492e495cc96927291db7e7bcd22f0852faf9', 6),
    'open-D8-A1': ('ok', '22c1e7af32a41e075e1f5d5455e73e2bca713c49ec86248120ef71a761d80f5a', '42a60058d722fa84d1e9e85653938fc76af25eb7ef5ad162c6908ce542d470b8', 2),
    'open-D8-A2': ('ok', '6c1cdda4ce431f3f7731e5a2f5474752f351ec8f5396651972d1daf154d7ffae', 'a983e505f6b2626f2fbd647dea2bcc3e9e1fd61059ca58fc64a54c80656badae', 4),
    'open-D8-A3': ('ok', 'ca490b47387f8cc49833ee2fc341740f38b5b26c66158d8f4c0c3cb53d36559f', '4f00b0822b0254011d60fcd7093e492e495cc96927291db7e7bcd22f0852faf9', 6),
    'genus1-D3-A1-zero': ('ok', '9d723aa9d38b982b214e2b5cb3d1718eb1258fc6bcd8042d36fd00833d6c7a39', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D3-A2-zero': ('ok', '67abfb11a4f2d8b2491f94ce519abdb28c589110797c3c01483603e9f10a94a2', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D3-A3-zero': ('ok', 'd3520d56d4b45f94b01b4cb2ac4ac867d431c9d69255f0bbcccb6ea9f2fc268e', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D4-A1-phi3': ('ok', '474b94624e6989ee3abae5c58634e9867abb586799b275a7862382ddee2c80a7', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D4-A2-phi3': ('ok', '239fce1ce1cf25f99add8379538df817e24addeb80d952e634ceea3f5d665bcb', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D4-A3-phi3': ('ok', '47ad3ed8d1e3ca16f808ee3f8c91ababeafc37558fd51448261f798037713d83', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D5-A1-vphi': ('ok', 'e36c85590461736449522a07a5dfbf1f783c77a06e14399c7920eb7dca18c1da', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D5-A2-vphi': ('ok', 'f2080a158bff54cb0eae64575d8897270ee2b0c6ffac175a0945a6a9e2edde62', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D5-A3-vphi': ('ok', '8e9ce4fc44b6986771952fd9fd50c4f87c42d1c8fea0625738277d317ff27acb', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D6-A1-phi3': ('ok', '034c29ba8f1679d38fe367e7f0fae2c18d84a3c8a13b9d3392dfca6bc78d6ba0', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D6-A2-phi3': ('ok', '3e2e5225dcea1b1910321eec09c49424e6e9b67a2eaa754720f0e4ed34570550', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D6-A3-phi3': ('ok', '7330ae72f2b9a191a001b3e0b9a2d0796ef629df37f106f1a8c200c1cdb8bcd7', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D7-A1-vphi': ('ok', '798f697cbfc5e3d2007a6b74d13f487eb647f6c27cc91a1948ccd2859b3df94b', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D7-A2-vphi': ('ok', 'd49e53b1c197c540c5f498d87ddc9bcbd0ea100b72467e87d90b2ed3e032d03d', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D7-A3-vphi': ('ok', 'f30d4e78e36220d84dac58091c38ccc3b26367e6315b179eea0e848e374f309f', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D8-A1-phi3': ('ok', '533987348d132418e1ba2baa03cbfa103a85c7e04480ec0a87c91ee38d774088', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D8-A2-phi3': ('ok', '21e4ead3710e0d241352cfe81efcf01e0aa0edbd0cf45c1563fd97b45a96b9e6', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'genus1-D8-A3-phi3': ('ok', 'e1cf32069ba1cda4bd6790237c2f9ee3bab39f10813d04f8034dc452308bf95c', '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945', 0),
    'rank2-closed': ('ok', 'f0f15e4ea350fc7acafbcc4e34a476a08df09fb5cc9ceae177c9ffc3d9dce3ff', '82037f9dbe508ac91e6aef57c51491bb5d0a023fa58e855dc7ecc6a15c8d0d3e', 5),
    'rank2-open': ('ok', '341dd07c8f4f2cf8413849317e0aa5028300afdf92a529e113fb5226fa6e6778', '704dbc7d748a07c76753f6a6a9f21982cda801a9a2b587c718153f00b0926180', 3),
    'frobenius': ('ok', 'd325b6e6986a4597cad0c123ba55c2ae2d08ac992a43f1b97af3b913678de71d', '31a067ab5e8691c87cb247d9d3098d66cc22dbe44fffbf14dcee2c7d19095d0f', 27),
    'rank3-040': ('ok', '9f67aa98959aeb5cac71138ffa1b09134785def7765a8158d885c8be59b4c767', '6ac30f64e1e069975545dff2b0354ebc40afa3b785217d7d24cf2d79fec03e12', 39),
    'rank3-004': ('error', "('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 1), ((0, 3, 0), 1)))", "inconsistent constraint ('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 1), ((0, 3, 0), 1))): 0 = 24", 1),
    'rank3-013': ('error', "('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 2),))", "inconsistent constraint ('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 2),)): 0 = 3", 1),
    'rank3-022': ('error', "('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 1), ((0, 3, 0), 2)))", "inconsistent constraint ('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 1), ((0, 3, 0), 2))): 0 = -16", 1),
    'rank3-031': ('error', "('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 3),))", "inconsistent constraint ('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 3),)): 0 = -12", 1),
    'rank3-005': ('error', "('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 1), ((0, 3, 0), 2)))", "inconsistent constraint ('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 1), ((0, 3, 0), 2))): 0 = 60", 1),
    'rank3-023': ('error', "('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 3),))", "inconsistent constraint ('trr0', (2, 0, 3, 0, 3, 0), (((0, 2, 0), 3),)): 0 = 2", 1),
    'badopen-D5-A1-21': ('error', "('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),)): 0 = 2", 2),
    'badopen-D6-A1-21': ('error', "('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),)): 0 = 2", 2),
    'badopen-D7-A2-21': ('error', "('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),)): 0 = 2", 2),
    'badopen-D8-A3-21': ('error', "('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 1), 1),)): 0 = 2", 2),
    'badopen-D6-A2-12': ('error', "('open_trr_t', (1, 1, (1, 0, 0)), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr_t', (1, 1, (1, 0, 0)), (((0, 1, 1), 1),)): 0 = 2", 3),
    'badopen-D7-A3-31': ('error', "('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 0), 1), ((0, 1, 1), 1)))", "inconsistent constraint ('open_trr_t', (1, 0, (1, 0, 0)), (((0, 1, 0), 1), ((0, 1, 1), 1))): 0 = 6", 2),
    'badopen-D8-A2-12': ('error', "('open_trr_t', (1, 1, (1, 0, 0)), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr_t', (1, 1, (1, 0, 0)), (((0, 1, 1), 1),)): 0 = 2", 3),
    'badgenus1-D5-A1-21': ('error', "('open_trr1_s', (0,), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr1_s', (0,), (((0, 1, 1), 1),)): 0 = 1", 2),
    'badgenus1-D6-A2-21': ('error', "('open_trr1_s', (0,), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr1_s', (0,), (((0, 1, 1), 1),)): 0 = 1", 2),
    'badgenus1-D7-A2-12': ('error', "('open_trr1_t', (1, 1), (((0, 1, 1), 1),))", "inconsistent constraint ('open_trr1_t', (1, 1), (((0, 1, 1), 1),)): 0 = 1", 3),
    'badgenus1-D8-A3-11': ('error', "('open_trr1_s', (0,), (((0, 1, 1), 1), ((1, 0, 0), 2)))", "inconsistent constraint ('open_trr1_s', (0,), (((0, 1, 1), 1), ((1, 0, 0), 2))): 0 = 1/2", 2),
    'badgenus1-D8-A3-31': ('error', "('open_trr1_s', (0,), (((0, 1, 1), 1), ((1, 0, 0), 1)))", "inconsistent constraint ('open_trr1_s', (0,), (((0, 1, 1), 1), ((1, 0, 0), 1))): 0 = 3", 2),
}


@pytest.mark.parametrize("name", CASES)
def test_solve_outcome_is_pinned(name):
    assert outcome(name) == PINNED[name]


def test_battery_covers_inconsistent_solves():
    assert len(CASES) >= 30
    assert sum(PINNED[name][0] == "error" for name in CASES) >= 10


def test_one_theory_object_solves_again_after_a_failure(monkeypatch):
    """The closed families are built once per theory object and shared by its
    solves and validations: a failed solve leaves nothing that a later solve
    or validation on the same object reads, and equal objects share nothing."""
    built = []
    real = genus0._closed_families
    monkeypatch.setattr(genus0, "_closed_families", lambda th: built.append(real(th)) or built[-1])
    th = _theory(3, 6, 2)
    assert outcome("rank3-004", lambda name: _rank3((0, 0, 4), th)) == PINNED["rank3-004"]
    solved = _rank3((0, 4, 0), th)
    assert outcome("rank3-040", lambda name: solved) == PINNED["rank3-040"]
    report = validate_closed_genus0(solved[1], th)
    assert len(built) == 3 and all(families is built[0] for families in built)

    fresh = _theory(3, 6, 2)
    assert fresh == th and hash(fresh) == hash(th)
    assert emit(validate_closed_genus0(solved[1], fresh), fresh) == emit(report, th)
    assert report.all_zero and built[-1] is not built[0]


def test_shared_tables_keep_nothing_of_a_solve():
    """The tables of a theory object's closed families let go of the slices
    and parts of each solve when it returns or raises."""
    th = _theory(3, 6, 2)

    def held() -> list:
        tables = {t for fam in th.memo["closed_families"] for pair in fam.products
                  for t in pair}
        assert tables
        return [x for t in tables for x in (t.slices, t.nonzero, t.low) if x is not None]

    assert outcome("rank3-004", lambda name: _rank3((0, 0, 4), th)) == PINNED["rank3-004"]
    assert held() == []
    assert outcome("rank3-040", lambda name: _rank3((0, 4, 0), th)) == PINNED["rank3-040"]
    assert held() == []


@pytest.mark.parametrize("name", ["open-D6-A2", "genus1-D6-A2-phi3", "genus1-D7-A2-vphi"])
def test_fixed_tables_take_in_their_parts_at_weight_one(name, monkeypatch):
    """A table of a fixed series (the Hessians of F0, the tables of F0o and
    the unit) has every part from the start: the engine refreshes it once,
    at weight 1, where it takes in all its parts.  A fed table, one that
    stands for the potential under solution, is refreshed at later weights
    too.  The solve's values and `free` list stay pinned."""
    solves, calls = [], []  # each solve's slice list; (table, weight, new parts, all parts)
    real_reset, real_refresh = genus0._Table.reset, genus0._Table.refresh

    def reset(self, solved):
        if not solves or solves[-1] is not solved:
            solves.append(solved)
        real_reset(self, solved)

    def refresh(self):
        weight = len(solves[-1])  # the slices so far: the seed and weights 1 .. w - 1
        new = real_refresh(self)
        calls.append((self, weight, new, sorted(self.nonzero)))
        return new

    monkeypatch.setattr(genus0._Table, "reset", reset)
    monkeypatch.setattr(genus0._Table, "refresh", refresh)
    if name.startswith("open"):
        th, _f0, result = _open.__wrapped__(1, 6, 2)  # solved afresh, under the spies
        assert outcome(name, lambda _name: (th, result.series, result.free)) == PINNED[name]
    else:
        assert outcome(name) == PINNED[name]
    fixed = [call for call in calls if call[0].series is not None]
    fed = [call for call in calls if call[0].series is None]
    assert fixed and any(new for _t, _w, new, _all in fixed)
    assert all(weight == 1 and new == parts for _t, weight, new, parts in fixed)
    assert len(fixed) == len({id(t) for t, *_ in fixed})  # once per solve
    assert max(weight for _t, weight, *_ in fed) > 1
