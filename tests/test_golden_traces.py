"""Golden optimizer traces: `minimize_kd` output must stay byte-identical.

Each case hashes `trace_text()` followed by `repr(result.entropy)` with
sha256.  The graphs are generated here from fixed seeds, so the table below
pins every merge, combine and flatten step, its 9-decimal delta and the
final entropy to the last bit.  The cases mix non-dyadic weights (so float
addition order shows), unit and small-integer weights (so exact delta ties
must break the same way), a path graph and planted cliques, each at height
caps 2, 3 and 4 so that polish steps below the root are covered.
`sparse-250` and `unit-200` are as large as the benchmark's graphs, so
deep polish phases and joins of long sibling-pair rows are pinned too.

`PYTHONPATH=src python tests/test_golden_traces.py` prints the table from
the code as it stands.  Re-record it only for a change that is meant to
alter the output.  Every float sum behind it is a left fold, so it does
not depend on the interpreter's builtin `sum`.
"""

import hashlib
import random

import pytest

import structen as st


def _connected(rng, n, m, weight):
    """Random spanning tree plus random extra edges, in shuffled order."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    return st.Graph.from_index_edges(n, [(u, v, weight(rng)) for u, v in pairs])


def sparse(seed, n, m):
    return _connected(random.Random(seed), n, m,
                      lambda rng: round(rng.uniform(0.05, 3.0), 4))


def unit(seed, n, m):
    return _connected(random.Random(seed), n, m, lambda rng: 1.0)


def small_int(seed, n, m):
    return _connected(random.Random(seed), n, m,
                      lambda rng: float(rng.choice((1, 2, 3))))


def path(n):
    return st.Graph.from_index_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def cliques(blocks, size):
    edges = [(b * size + i, b * size + j, 1.0)
             for b in range(blocks) for i in range(size) for j in range(i + 1, size)]
    edges += [(b * size + size - 1, (b + 1) * size, 1.0) for b in range(blocks - 1)]
    return st.Graph.from_index_edges(blocks * size, edges)


GRAPHS = {
    "sparse-12": lambda: sparse(101, 12, 30),
    "sparse-30": lambda: sparse(102, 30, 90),
    "sparse-60": lambda: sparse(103, 60, 180),
    "sparse-90": lambda: sparse(105, 90, 270),
    "sparse-120": lambda: sparse(104, 120, 360),
    "sparse-250": lambda: sparse(107, 250, 750),
    "dense-30": lambda: sparse(106, 30, 200),
    "unit-16": lambda: unit(201, 16, 36),
    "unit-40": lambda: unit(202, 40, 100),
    "unit-80": lambda: unit(203, 80, 200),
    "unit-200": lambda: unit(204, 200, 500),
    "int-20": lambda: small_int(301, 20, 50),
    "int-50": lambda: small_int(302, 50, 130),
    "int-100": lambda: small_int(303, 100, 260),
    "path-40": lambda: path(40),
    "cliques-4x6": lambda: cliques(4, 6),
}


def digest(g, k):
    result = st.minimize_kd(g, k)
    text = result.trace_text() + repr(result.entropy)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    "cliques-4x6/k2": "60ef9472bc5ed0a41d9956dafc86c2cb9cacc1d19465bfca7cb5abd04a6f481c",
    "cliques-4x6/k3": "d735e291b067456b25c5708d4d8086347ec71190ca477e2e36ea9e35cecab3ea",
    "cliques-4x6/k4": "e0c4085be6b6317387641ea434f2857465a9663e771b72a521fa72bf5f1d13c2",
    "dense-30/k2": "f5cb50fdfaab653845c1791011a20e1dfc12362d74fadd83b922292a2071bbbc",
    "dense-30/k3": "fd5ca6f5045a0398b3466a1a9facaf3e93574c887db5603a4ef704bc5abe8160",
    "dense-30/k4": "aeb11c2b36a5bc1557076cb58dd3ec2a63ce004e63c2544b51a320fdba210804",
    "int-100/k2": "697bb3d93d9f07b6e327a5827abc595e91db09b2e32fef7aa754434ad1498ee8",
    "int-100/k3": "5319b776153f25bf44b24903c3534bc42bb2d5eacfa857e47cb14df14d65aabf",
    "int-100/k4": "5c05089aa2834adfc8fda227dda70e5ab9ec5332de8a5602ade2d3156cc5ee8d",
    "int-20/k2": "4b579000bea3a47ed902cb40d35d4156976cf47601759e69563c329839bb753f",
    "int-20/k3": "8cd515368f0a5b65016637fab704ebe30a95fd7d06c9c06e66203e16ecaa7e04",
    "int-20/k4": "bc696ca6fe3f51cddf979356ca324b430ea8b103efdcc22602868e313bb3cd24",
    "int-50/k2": "3a58124c5ef05376bfab665614b1b41e9dbc1ce066c24fec7e90c57a100ac19c",
    "int-50/k3": "b252981a5ff66fba27e4f03bf41394adc4270c0edf12efaabf0b0e0bbce91f0b",
    "int-50/k4": "0b25f310fe22a06b0970b0a2bb4128293401bc50fd4552eed421fec9e8ec69eb",
    "path-40/k2": "3c1d375134b2cad0bbe33afdfcef34acdd1983dfd9da9bf8d7c20b7ebcfd0ac6",
    "path-40/k3": "46479048565a9a02e2aa38a6963ec396576c32adb0f7dec5b841f55569bb2e32",
    "path-40/k4": "0da5b8fa060576ff8b2ce2c86dd39bbfa26789f79ae6ee434ed16428651e4657",
    "sparse-12/k2": "1bd4aed0049e3879a01de43b364c5334bc8b6298950620ccb57681c1943a9dc1",
    "sparse-12/k3": "39c811ac25517e81daec1b4dc410deb9ca57852695ca61c8310019a6eb03c68b",
    "sparse-12/k4": "93350813aea86d4ecd67bc0e2f07bcf704763d15ce93d6e4d98a25844321d9f8",
    "sparse-120/k2": "5e6d14a345256d8d08461b3f69ac005f47adbc75c4dfb603d27b752b67814b66",
    "sparse-120/k3": "3571a3d9895c5d449f5a2d641827902d6625da4d75464a6aedd55058943628b5",
    "sparse-120/k4": "3039bc65a48dab20914e555772ede5be88d4a33a65b36d879a2153f0dcaa9a9e",
    "sparse-250/k2": "086d8c23fa5b2a21bc68dd57dd5084386012ada40950bacc70354ab05d54e2a0",
    "sparse-250/k3": "35f57e4e7a2eae534035b9801bfde6e145756ccdb35beb27ec96baee25b6ed18",
    "sparse-250/k4": "f71377bc169c19c3702d9a6d7e4677f9942cf40c327e73d078a1e292a8f4e4c3",
    "sparse-30/k2": "7cba63747b6a265e51fb899c7bec9024e32c9b59d84666f4898319b025679f1d",
    "sparse-30/k3": "74c9c0241a16d8c31afd5957f5334a46e21af7f09a2445e8674b76f335eca5e2",
    "sparse-30/k4": "38cd3439567f811a8e38769bd02362bbf404813cb55cf72c29f9944afdb544eb",
    "sparse-60/k2": "0f183edbfb744a81de96682cd73a2e3a9253bc28083ae71d9a5bcc6f367a6217",
    "sparse-60/k3": "2eb45801c272d6eb750f22fe544b472f5838d64224c29015036bceba4b7ca96b",
    "sparse-60/k4": "31f8875ed12bcb9899cc8141b824b5947ef3f2572d05505bd9e8f4a798c74591",
    "sparse-90/k2": "051f603a9eba2777041822c69204d254496e0c65805ff86aeb6e9016b8e3e4d9",
    "sparse-90/k3": "fe148fa3d64181a4df36d93005029c0630adf0aaa0f381d67c8fcaca863386a9",
    "sparse-90/k4": "6c721d67854491adaf8425b59644235a5a1e3c8ce443aa2dcb76cb3304dffc53",
    "unit-16/k2": "c915c4b03448f33a0046eb7d15987e77c0e2caf4cda00485e1d918ce771d73f4",
    "unit-16/k3": "7f666f67fd54d24720b07a3b5027299d7415ce83edd64add7b29426560bfeb6d",
    "unit-16/k4": "d5703197fa01f4d6ffe67c0bcf4914ddeb4b351074a33f89615000f2c3ed1cde",
    "unit-200/k2": "a2f60a16f85116679dc6cfcf1be6b2ae62aea6049727551253e9b5ecee7b9ccb",
    "unit-200/k3": "a047252d59b0ae355845f1c038715a1d0d8463206b03b8f1af512979bcdcdf7c",
    "unit-200/k4": "70175406622a5f0579edc0622d1180834c38559cb4ca654962d9e5910ce623a8",
    "unit-40/k2": "b372a5578bb3b95f8e66e43ae3bff93fd81f43f9f109e313dfa772e4c601e98a",
    "unit-40/k3": "b17db6b30a4bb4d3ed1fca1ab2f1b0a91deaaeafc37fe7a4a278f9d9b5e22246",
    "unit-40/k4": "6e9f8adcfdb01bbe733427333f0d33669c0af6b0de53d910153be7f68607b92e",
    "unit-80/k2": "8b9163c8f6b27c03c703990429c3d11f9e1fb00a4936d7b033bf2995994af849",
    "unit-80/k3": "64e1fb1f81106d32abec1dbc13b50bde1c76bfcbff0ea58ee5a3d2628c9e48d8",
    "unit-80/k4": "dd9ce0819834a6efa13a93828b94ace184ee29bd986c97a31e1aa9cebbc7a821",
}


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_trace_matches_golden(name, k):
    assert digest(GRAPHS[name](), k) == GOLDEN[f"{name}/k{k}"]


if __name__ == "__main__":
    for name in sorted(GRAPHS):
        for k in (2, 3, 4):
            print(f'    "{name}/k{k}": "{digest(GRAPHS[name](), k)}",')
