import pytest
from hypothesis import given, strategies as st

from ncfree import oracle
from ncfree.ncpartition import Partition, enumerate_nc, is_noncrossing, kreweras, nc_pairs
from helpers import PartitionPermutation, perm_of, recursive_nc_pairs

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_counts_match_catalan():
    for n in range(1, 9):
        assert len(enumerate_nc(n)) == CATALAN[n]


def test_partition_of_canonicalizes():
    p = Partition.of(5, [[3, 4], [5, 2, 1]])
    assert p.blocks == ((1, 2, 5), (3, 4))
    assert str(p) == "{1,2,5}{3,4}"


def test_partition_of_rejects_bad_blocks():
    with pytest.raises(ValueError):
        Partition.of(3, [[1, 2]])  # misses 3
    with pytest.raises(ValueError):
        Partition.of(3, [[1, 2], [2, 3]])  # duplicate element
    with pytest.raises(ValueError):
        Partition.of(3, [[1, 2, 3, 4]])  # out of range


def test_block_lookup():
    p = Partition.of(5, [[1, 2, 5], [3, 4]])
    assert p.block_count() == 2
    assert p.block_of(4) == (3, 4)
    assert p.block_of(5) == (1, 2, 5)


def test_is_noncrossing_known_cases():
    assert not is_noncrossing(Partition.of(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(Partition.of(4, [[1, 4], [2, 3]]))
    assert is_noncrossing(Partition.of(1, [[1]]))
    with pytest.raises(ValueError, match="crossing"):
        kreweras(Partition.of(4, [[1, 3], [2, 4]]))


def test_is_noncrossing_matches_four_point_test():
    for n in range(1, 9):
        for p in oracle.all_set_partitions(n):
            assert is_noncrossing(p) == (not oracle._crosses(p)), p


def test_enumeration_is_sorted_and_noncrossing():
    for n in range(1, 7):
        parts = list(enumerate_nc(n))
        assert parts == sorted(parts, key=lambda p: p.blocks)
        assert len(set(parts)) == len(parts)
        assert all(is_noncrossing(p) for p in parts)


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_nc(13)
    for n in (0, 13):
        with pytest.raises(ValueError):
            nc_pairs(n)


def test_nc_pairs_match_recursive_pipeline():
    for n in range(1, 10):
        assert nc_pairs(n) == recursive_nc_pairs(n)


def test_perm_of_cycles_blocks():
    p = Partition.of(5, [[1, 2, 5], [3, 4]])
    f = perm_of(p)
    assert [f(k) for k in range(1, 6)] == [2, 5, 4, 3, 1]
    assert f.cycle_partition() == p


def test_forward_cycle_and_compose():
    g = PartitionPermutation.forward_cycle(4)
    assert [g(k) for k in range(1, 5)] == [2, 3, 4, 1]
    assert g.compose(g.inverse()) == PartitionPermutation.identity(4)


def test_kreweras_worked_example():
    p = Partition.of(5, [[1, 2, 5], [3, 4]])
    assert str(kreweras(p)) == "{1}{2,4}{3}{5}"


def test_kreweras_extremes():
    for n in range(1, 7):
        assert kreweras(Partition.singletons(n)) == Partition.whole(n)
        assert kreweras(Partition.whole(n)) == Partition.singletons(n)


def test_kreweras_block_count_complement():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert p.block_count() + kreweras(p).block_count() == n + 1


def test_kreweras_defining_identity():
    # perm(pi) composed with perm(Kr(pi)) walks the full forward cycle
    for n in range(1, 7):
        gamma = PartitionPermutation.forward_cycle(n)
        for p in enumerate_nc(n):
            assert perm_of(p).compose(perm_of(kreweras(p))) == gamma


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sampled_from(enumerate_nc(n))
))
def test_perm_inverse_roundtrip(p):
    f = perm_of(p)
    assert f.compose(f.inverse()) == PartitionPermutation.identity(p.n)
    assert f.inverse().compose(f) == PartitionPermutation.identity(p.n)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sampled_from(enumerate_nc(n))
))
def test_kreweras_stays_noncrossing(p):
    assert is_noncrossing(kreweras(p))


def test_invariants_raise_without_assert(monkeypatch):
    # the checks are real raises, so they hold under python -O as well
    import ncfree.ncpartition as ncp

    # pi = {1,2}{3,4}{5,6}; a forged complement {1,3}{2,4}{5}{6} keeps the
    # block count, so only the check on the complement can catch it
    p = Partition.of(6, [[1, 2], [3, 4], [5, 6]])
    forged = ((0, 2), (1, 3), (4,), (5,))
    real = ncp._complement

    def forge(blocks, n):
        return forged if blocks == ((0, 1), (2, 3), (4, 5)) else real(blocks, n)

    monkeypatch.setattr(ncp, "_complement", forge)
    with pytest.raises(RuntimeError, match="crossing"):
        kreweras(p)
    nc_pairs.cache_clear()
    with pytest.raises(RuntimeError, match="crossing"):
        nc_pairs(6)

    # a forged complement that is non-crossing, with the right block count,
    # but equal to the complement of {1,2}{3,4,5}{6}: no check on one pair
    # can catch it, only the bijection check over all of NC(6)
    repeated = real(((0, 1), (2, 3, 4), (5,)), 6)

    def repeat(blocks, n):
        return repeated if blocks == ((0, 1), (2, 3), (4, 5)) else real(blocks, n)

    monkeypatch.setattr(ncp, "_complement", repeat)
    nc_pairs.cache_clear()
    with pytest.raises(RuntimeError, match=r"of \(\(0, 1\), \(2, 3, 4\), \(5,\)\) repeats"):
        nc_pairs(6)


def test_built_partitions_equal_validated_ones():
    # enumerate_nc and kreweras skip validation on blocks they made canonical
    for n in range(1, 9):
        for p in enumerate_nc(n):
            for q in (p, kreweras(p)):
                checked = Partition(n, q.blocks)
                assert q == checked
                assert hash(q) == hash(checked)
                assert str(q) == str(checked)
