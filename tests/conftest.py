import itertools
import random
from pathlib import Path

import pytest

from logcap.forge import SearchParams, random_instance
from logcap.instance import build_instance, load_instance

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
CORPUS = REPO / "corpus"


@pytest.fixture(scope="session")
def e1():
    """l=2, n=3, G=Z/2, torsion Z/2, tau: alpha -> alpha, gamma -> gamma+alpha."""
    return build_instance(2, 3, [2], [2], [[[1, 0], [1, 1]]], {})


@pytest.fixture(scope="session")
def inst33():
    """l=3, G=(Z/3)^2, torsion Z/3, trivial action, asymmetric factor set
    z(g, h) = 2 g1 h2 + h1 g2: nonzero boundary module, H1 through the
    commutators alone."""
    table = {}
    for g1 in range(3):
        for g2 in range(3):
            for h1 in range(3):
                for h2 in range(3):
                    table[((g1, g2), (h1, h2))] = ((2 * g1 * h2 + h1 * g2) % 3,)
    ident = [[1, 0], [0, 1]]
    return build_instance(3, 3, [3, 3], [3], [ident, ident], table)


@pytest.fixture(scope="session")
def trivial_atilde():
    """G = Z/2 with trivial torsion: everything degenerates to zero."""
    return build_instance(2, 3, [2], [], [[[1]]], {})


@pytest.fixture(scope="session")
def rank3():
    """A sampled l=2, n=4, G=(Z/2)^3, torsion Z/2 instance: |U| = 256."""
    params = SearchParams(
        prime=2,
        precision=4,
        g_orders_list=((2, 2, 2),),
        atilde_orders_list=((2,),),
        seed=0,
    )
    return random_instance(params, (2, 2, 2), (2,))


@pytest.fixture(scope="session")
def rank5():
    """A sampled l=2, n=3, G=(Z/2)^5 instance with trivial torsion: the one
    rank-5 group the group-order limit admits, and a 5x5 relation matrix."""
    params = SearchParams(
        prime=2,
        precision=3,
        g_orders_list=((2,) * 5,),
        atilde_orders_list=((),),
        seed=0,
    )
    return random_instance(params, (2,) * 5, ())


@pytest.fixture(scope="session")
def h1_violating():
    return load_instance(FIXTURES / "h1_violating.json")


@pytest.fixture(scope="session")
def corrupted():
    return load_instance(FIXTURES / "corrupted_cocycle.json")


@pytest.fixture()
def rng():
    return random.Random(20240811)


def corpus_paths():
    if not CORPUS.exists():
        return []
    out = []
    for sub in sorted(CORPUS.iterdir()):
        if sub.is_dir():
            out.extend(sorted(p for p in sub.glob("*.json") if p.name != "manifest.json"))
    return out


def span_elements(sub):
    """Every element of a Submodule's span, each once: the coefficient of
    basis row k runs below N / pivot_k, which the Howell form makes exact."""
    N = sub.ring.modulus
    vec = [0] * sub.ambient

    def rec(k: int):
        if k == len(sub.basis):
            yield tuple(vec)
            return
        row = sub.basis[k]
        col = sub.pivots[k]
        saved = vec[:]
        for c in range(N // row[col]):
            if c:
                for j in range(col, sub.ambient):
                    vec[j] = (saved[j] + c * row[j]) % N
            yield from rec(k + 1)
        vec[:] = saved

    yield from rec(0)


def random_admissible_shift(inst, rng):
    """A random transversal move c (c_1 = 0, c_tau = -tau * c_{tau^-1}),
    suitable for coboundary_shift without rejection."""
    group = inst.group
    orders = inst.atilde_orders
    shift = {}
    done = set()
    for tau in group.nonidentity():
        if tau in done:
            continue
        ti = group.inv(tau)
        if tau == ti:
            # (1 + tau) c = 0: sample from the kernel by scanning candidates
            candidates = []
            for v in itertools.product(*(range(o) for o in orders)):
                s = inst.atilde_act(tau, v)
                if all((x + y) % o == 0 for x, y, o in zip(v, s, orders)):
                    candidates.append(v)
            shift[tau] = candidates[rng.randrange(len(candidates))]
            done.add(tau)
        else:
            v = tuple(rng.randrange(o) for o in orders)
            shift[tau] = v
            shift[ti] = tuple((-x) % o for x, o in zip(inst.atilde_act(ti, v), orders))
            done.add(tau)
            done.add(ti)
    return shift
