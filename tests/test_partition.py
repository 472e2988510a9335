"""Unit tests for horizontal and vertical partitioning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.distributed import Cluster, Site
from repro.partition import (
    PartitionError,
    VerticalPartition,
    partition_by_attribute,
    partition_by_hash,
    partition_by_predicates,
    partition_uniform,
    vertical_partition,
)
from repro.relational import Eq, Gt, Le, Relation, Schema

S = Schema("R", ["id", "kind", "x"], key=["id"])
ROWS = [(i, "even" if i % 2 == 0 else "odd", i * 10) for i in range(10)]
REL = Relation(S, ROWS)


# -- horizontal ---------------------------------------------------------------


def test_predicates_partition_disjoint_cover():
    cluster = partition_by_predicates(REL, [Eq("kind", "even"), Eq("kind", "odd")])
    assert cluster.n_sites == 2
    assert cluster.total_tuples() == len(REL)
    assert cluster.reconstruct() == REL


def test_predicates_overlapping_rejected_when_strict():
    with pytest.raises(PartitionError):
        partition_by_predicates(REL, [Gt("x", -1), Eq("kind", "even")])


def test_predicates_non_covering_rejected_when_strict():
    with pytest.raises(PartitionError):
        partition_by_predicates(REL, [Eq("kind", "even")])


def test_predicates_lenient_mode_keeps_first_match():
    cluster = partition_by_predicates(
        REL, [Le("x", 40), Gt("x", 40)], strict=False
    )
    assert cluster.total_tuples() == len(REL)


def test_sites_carry_their_predicates():
    predicate = Eq("kind", "even")
    cluster = partition_by_predicates(REL, [predicate, Eq("kind", "odd")])
    assert cluster.sites[0].predicate is predicate


def test_partition_by_attribute_one_site_per_value():
    cluster = partition_by_attribute(REL, "kind")
    assert cluster.n_sites == 2
    assert {site.name for site in cluster.sites} == {"kind=even", "kind=odd"}
    assert cluster.reconstruct() == REL


def test_partition_uniform_balance():
    cluster = partition_uniform(REL, 3)
    sizes = [len(site.fragment) for site in cluster.sites]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    assert cluster.reconstruct() == REL


def test_partition_uniform_more_sites_than_rows():
    cluster = partition_uniform(REL, 20)
    assert cluster.n_sites == 20
    assert cluster.total_tuples() == 10


def test_partition_uniform_invalid():
    with pytest.raises(PartitionError):
        partition_uniform(REL, 0)


def test_partition_by_hash_deterministic_cover():
    cluster = partition_by_hash(REL, ["kind"], 4)
    assert cluster.total_tuples() == 10
    assert cluster.reconstruct() == REL
    # all rows with equal hash attributes land together
    homes = {
        row[1]: site.index
        for site in cluster.sites
        for row in site.fragment.rows
    }
    for site in cluster.sites:
        for row in site.fragment.rows:
            assert homes[row[1]] == site.index


def test_partition_by_hash_co_locates_equal_numbers():
    rows = [(i, (1, 1.0, True, 0, 0.0, False, -0.0)[i % 7], 0) for i in range(14)]
    cluster = partition_by_hash(Relation(S, rows), ["kind"], 5)
    homes = {
        bool(row[1]): {site.index for site in cluster.sites if row in site.fragment.rows}
        for row in rows
    }
    assert all(len(sites) == 1 for sites in homes.values())


#: str attribute values, str subset names and str elements: builtin
#: ``hash`` of any of them changes with ``PYTHONHASHSEED``
HASH_SEED_SCRIPT = """
from repro.datagen import generate_cust
from repro.partition import partition_by_hash
from repro.theory import greedy_set_cover, minimum_set_cover

cluster = partition_by_hash(generate_cust(200, seed=1), ["city"], 3)
print([site.fragment.rows for site in cluster.sites])
names = ["d", "c", "a", "b", "f", "e"]
subsets = dict(zip(names, [{0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}, {0, 3}, {1, 2}]))
print(greedy_set_cover(range(6), subsets), minimum_set_cover(range(6), subsets))
words = dict(zip(names, [{"p", "q"}, {"r", "s"}, {"p", "r"}, {"q", "s"}, {"p"}, {"s"}]))
print(greedy_set_cover("pqrs", words), minimum_set_cover("pqrs", words))
"""


def test_hash_partition_and_covers_do_not_depend_on_the_hash_seed():
    src = Path(repro.__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_cluster_rejects_mixed_schemas():
    other = Relation(Schema("Q", ["a"]), [(1,)])
    with pytest.raises(ValueError):
        Cluster([Site(0, REL), Site(1, other)])


def test_cluster_rejects_empty():
    with pytest.raises(ValueError):
        Cluster([])


# -- vertical -----------------------------------------------------------------


def test_vertical_partition_adds_key_everywhere():
    partition = VerticalPartition(S, {"V1": ["kind"], "V2": ["x"]})
    assert partition.attributes_of("V1") == ("id", "kind")
    assert partition.attributes_of("V2") == ("id", "x")


def test_vertical_partition_must_cover():
    with pytest.raises(PartitionError):
        VerticalPartition(S, {"V1": ["kind"]})


def test_vertical_partition_covers_lookup():
    partition = VerticalPartition(S, {"V1": ["kind", "x"], "V2": ["x"]})
    assert partition.covers(["kind", "x"]) == "V1"
    assert partition.covers(["id", "x"]) in {"V1", "V2"}
    assert partition.covers(["kind", "nope"]) is None


def test_vertical_refine_adds_attributes():
    partition = VerticalPartition(S, {"V1": ["kind"], "V2": ["x"]})
    refined = partition.refine({"V2": ["kind"]})
    assert partition.covers(["kind", "x"]) is None
    assert refined.covers(["kind", "x"]) == "V2"


def test_vertical_deploy_and_reconstruct():
    cluster = vertical_partition(REL, {"V1": ["kind"], "V2": ["x"]})
    assert cluster.n_sites == 2
    assert cluster.reconstruct() == REL


def test_vertical_fragment_order_follows_schema():
    cluster = vertical_partition(REL, {"V1": ["x", "kind"]})
    assert cluster.fragment(0).schema.attributes == ("id", "kind", "x")


def test_vertical_sites_with_attributes():
    cluster = vertical_partition(REL, {"V1": ["kind"], "V2": ["x", "kind"]})
    holders = cluster.sites_with_attributes(["kind", "x"])
    assert [site.name for site in holders] == ["V2"]


def test_fragment_schemas_keyed():
    partition = VerticalPartition(S, {"V1": ["kind"], "V2": ["x"]})
    schemas = partition.fragment_schemas()
    assert schemas["V1"].key == ("id",)
