"""Byte identity of the JSON reports on the fixture networks, of the
enumeration stream and of the root finder's results.

Each report is pinned by its SHA-256.  A change to the float arithmetic
(even the order of two multiplications) or to the report layout changes a
digest; a change that means to alter the bytes re-records them and says
why.
"""

import hashlib
import random

import pytest

from crn1d import critical_points, find_roots, main

from conftest import DATA
from support import DEGREE_GAP, DOUBLE_ZERO, END_ROOT, clustered_gproblem, random_gproblem

CLASSIFY = {
    "gb": "b22fc9e34ed1da7b436df13673387e864583fa0c3d54d39d7b85e9589d8bc7d9",
    "gc": "2330ddc10824e38fd51b2565215b0c45a6ee3e3e07cf24d505c2e95bd78d9d12",
    "gd": "e8809bacd215f9ac7002c2f2098db1cbe438f057b6edc19e16a08e2f929e0878",
    "gh": "4682400188aac48ecd70f155d94fb67d9d6e76c7f94539abb17febb5f036742a",
    "w1": "af5fe2a7ccf77ba17e82f547fc71ad5dbdd4565adeb78ba798da38f48af19e55",
    "nb": "1b513a477931c46018ffb7cb1e689a761844609d176a5fb915d34259d1728fd6",
}

# (network, goal): (witness report digest, verify report digest)
WITNESS = {
    ("gb", "three"): (
        "1f5ef4ffff0fe50aec59faa8483828f300dfcc5cf114da29f6c64fb3a2a26c3a",
        "30a2ab0265a0c39852faba0700e6979941222dfd53cf93ecf7ac74d0c0b2e595",
    ),
    ("gc", "three"): (
        "f11ec693eccfb36768dcc449c25c30b0e0b6df9fbd968ba022a331c07b6c4f8e",
        "e1234f5eff7eefdec331abcfee2f88e668320d38c435e071092242b8e05427e8",
    ),
    ("gd", "three"): (
        "f6920883de06181f7ebb5039bd2b14051c85b18d190d1de6215c82bb2c5c80d0",
        "23c93ae31ce5aea67d16e4ec649ba363960ab890f8779297168815250f172166",
    ),
    ("gh", "three"): (
        "1c8b2a7cf97c53ed67b745a26895c234d0f5b41b6c1c2228687f4933fb78802e",
        "1bf87e18083496ad2b2122b1fb02ff7ccffb562ac2b198cb2873b64e69df40fe",
    ),
    ("gb", "two"): (
        "ae300fedb98e7e3502b5bde3c72a802ef6892fbedd421ba2bbc2219ffefffe75",
        "ba8d9769159703d30c63a557d4c32d84559a6209365453ddcb32903e83edbd96",
    ),
    ("gc", "two"): (
        "6d7302d1a4ab4926234de62ebd09484d56936490483c1511b429f626d42b004a",
        "87b39a27e25f25cf8477567b6a7ca21e46b357be9023316f53aa5daecdba451b",
    ),
    ("gd", "two"): (
        "33c8f9e28de441f38c03e99f81a4f4506a1b667b58ceaf36db06e0eb3360db71",
        "2984c0b2faa39a145e592630867d0b73d44b23b5bd940eb4fac356b36e44407d",
    ),
    ("gh", "two"): (
        "6d76fdfbda7d38b68dc68e2fe8caf0a878310d02ef7bd9aa0bd72ff7f2cd4ab1",
        "88089690726954862bb17e0a217130b5342ca1fb3ce0ef039c1517dbee3f7352",
    ),
    ("w1", "two"): (
        "e880c11359b1388e97be1237d433653f6c6069cacd60dbfed3756d056bbcea7a",
        "d1bda1a07e51dd59f1111440818d2559449f377095792f4d9bedf1a9db8bb1cd",
    ),
    ("nb", "two"): (
        "1375953858804bf8d0259e753ca7c637c1255eed9ed2bc8e44d39c6ce3bdad46",
        "6a494f3eadebeb2697f5a07ab771a0e6f4aabc2279badb9e41c028edf749f2ca",
    ),
}


# (species, max_coeff): enumerate --out JSONL digest
ENUMERATE = {
    (1, 1): "4d88763a720f855da128cd85ab91dd5a66a7ce818c08fa00006410c7f18ac549",
    (1, 2): "5ffe091e5bd2c1ebd2b3db042fda12181850ea04b1a891aa1c4f50f7c5b26fa4",
    (1, 3): "0d489ae056fb826c306025048dbb2cf4005936749ccb0a1539ebe2314417e057",
    (1, 4): "235f47cb6c9ef3e933aa766aec29854c053845319ba46cc63400d061cc2f99ae",
    (2, 1): "5387fb2f94b87e708fc98e500d7015b2f58cbe4c7c888924af198458b1ec9495",
    (2, 2): "cefdc46d899e22e8af6e0e827f5b9d309d725811eb670cc07878bf9fdfe4d8f4",
    (2, 3): "75b2e92b478d4038f9afcee7fffa42a5ad9543fd1aab55058028f96945e216b4",
    (2, 4): "a359d3813c6ed7d018eba26e92aa121c17be78ae916f38afe8675c90898e2caf",
    (3, 1): "3e045f483c839a427bf11cc8751c781ec42435334217769aae71827161afb874",
    (3, 2): "b3212731a7abb0ea4ec924e061cae03b6c097a702d7d2e944b915daafce3d184",
    (3, 3): "90053132ef8731a99a176477d63184d23f4fc078fcb2a7c2aa83f69039f08ae9",
    (4, 1): "ffa7eaaf42877ae7118fc915f647c7d052281bf8af500f9092da5f3f2e1e86da",
    (4, 2): "11a25524a6485810860cc4d715078eb92f5689cbcaafef45a2da83a13baf7ba3",
}

# pool sample: (witness reports digest, verify reports digest), each over
# the concatenated stdout of one run per network in file order
POOLS = {
    "pool_two": (
        "68db1893f98b7ed6361bdb5a3c85ac5736e1d1078a7ea172ef3d67705ece6d92",
        "47ef13cc7bb92e77ad876ce545f6388e5a8fd52d714cfd1e58599e5ec5761a8f",
    ),
    "pool_multi": (
        "8d4ce8d8ba383000b51ffd23f4a2a063c0a50a3cbfe3da52ba7eea7b13051f20",
        "6fcf8fc2826d6c7559b9e0591d7b028d067f3cad2e630739b336e42da8407303",
    ),
}

# repr of critical_points and find_roots over 200 seeded g-problems
ROOTS = "fdbc7b6d1026532c92de27ad33c0633835d3b2cf39a4c0c9d73462b97e8fd289"
# the same over 100 seeded clustered-pole g-problems, the two fixtures that
# divide the numerator of g' (a double zero, a zero at an end) and the one
# whose Sturm chain skips a degree
CLUSTERED_ROOTS = "2f0f9174482f7686b64e1fcd3c3a595c723c482e774ceb783b787fcd3036fce4"


def digest_of(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classify_bytes(capsys, name):
    assert digest_of(capsys, "classify", str(DATA / f"{name}.crn")) == CLASSIFY[name]


@pytest.mark.parametrize("name,goal", sorted(WITNESS))
def test_witness_and_verify_bytes(capsys, tmp_path, name, goal):
    crn = str(DATA / f"{name}.crn")
    witness_digest, verify_digest = WITNESS[(name, goal)]
    assert digest_of(capsys, "witness", crn, "--goal", goal) == witness_digest
    report = tmp_path / "witness.json"
    assert main(["witness", crn, "--goal", goal, "--out", str(report)]) == 0
    assert digest_of(capsys, "verify", crn, "--witness", str(report)) == verify_digest


@pytest.mark.parametrize("species,bound", sorted(ENUMERATE))
def test_enumerate_bytes(capsys, tmp_path, species, bound):
    out = tmp_path / "nets.jsonl"
    argv = ["enumerate", "--species", str(species), "--max-coeff", str(bound), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENUMERATE[(species, bound)]


@pytest.mark.parametrize("name", sorted(POOLS))
def test_pool_witness_and_verify_bytes(capsys, tmp_path, name):
    lines = (DATA / f"{name}.txt").read_text().splitlines()
    goal = "three" if name == "pool_two" else "two"
    crn, report = tmp_path / "net.crn", tmp_path / "witness.json"
    witnesses, verifies = hashlib.sha256(), hashlib.sha256()
    for line in lines:
        if line.startswith("#"):
            continue
        crn.write_text(line.replace(" / ", "\n") + "\n")
        assert main(["witness", str(crn), "--goal", goal]) == 0, line
        out = capsys.readouterr().out
        witnesses.update(out.encode())
        report.write_text(out)
        assert main(["verify", str(crn), "--witness", str(report)]) == 0, line
        verifies.update(capsys.readouterr().out.encode())
    assert (witnesses.hexdigest(), verifies.hexdigest()) == POOLS[name]


def roots_digest(cases) -> str:
    """SHA-256 over the repr of critical_points and find_roots (or the name
    of the exception raised) for each ``(gp, K)``."""
    h = hashlib.sha256()
    for gp, K in cases:
        for call in (lambda: critical_points(gp), lambda: find_roots(gp, K)):
            try:
                out = repr(call())
            except Exception as exc:
                out = type(exc).__name__
            h.update(out.encode() + b"\n")
    return h.hexdigest()


def test_root_finder_bytes():
    cases = []
    for i in range(200):
        rng = random.Random(f"pin-{i}")
        gp = random_gproblem(rng)
        cases.append((gp, rng.uniform(-6, 6)))
    assert roots_digest(cases) == ROOTS


def test_clustered_root_finder_bytes():
    cases = [clustered_gproblem(random.Random(f"cluster-{i}")) for i in range(100)]
    cases += [(gp, K) for gp in (DOUBLE_ZERO, END_ROOT, DEGREE_GAP) for K in (-2.2, 0.0, 4.0)]
    assert roots_digest(cases) == CLUSTERED_ROOTS
