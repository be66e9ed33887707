"""Unit tests for the spanning tree behind tree mode.

The :class:`SpanningTree` is a pure function of a sorted site list, so
these tests pin down the rotation/heap math every member must agree on.
"""

from repro.core.tree import SpanningTree, min_merge_have_vectors


class TestSpanningTree:
    def test_sites_sorted_and_deduped(self):
        tree = SpanningTree([5, 1, 3, 1, 5], fanout=2)
        assert tree.sites == [1, 3, 5]
        assert len(tree) == 3
        assert 3 in tree and 2 not in tree

    def test_heap_layout_from_root(self):
        tree = SpanningTree(range(10), fanout=3)
        assert tree.children(0, 0) == [1, 2, 3]
        assert tree.children(0, 1) == [4, 5, 6]
        assert tree.children(0, 2) == [7, 8, 9]
        assert tree.children(0, 3) == []
        assert tree.parent(0, 0) is None
        assert tree.parent(0, 4) == 1
        assert tree.parent(0, 9) == 2

    def test_rotation_every_root_gets_full_tree(self):
        sites = [2, 4, 7, 9, 11]
        tree = SpanningTree(sites, fanout=2)
        for root in sites:
            seen = set()
            frontier = [root]
            while frontier:
                site = frontier.pop()
                assert site not in seen, "cycle in spanning tree"
                seen.add(site)
                for child in tree.children(root, site):
                    assert tree.parent(root, child) == site
                    frontier.append(child)
            assert seen == set(sites)

    def test_unknown_root_or_site_is_inert(self):
        tree = SpanningTree([1, 2, 3], fanout=2)
        assert tree.children(1, 99) == []
        assert tree.children(99, 1) == []
        assert tree.parent(99, 1) is None
        assert tree.subtree_size(1, 99) == 0

    def test_depth_matches_heap_height(self):
        assert SpanningTree([0], fanout=2).depth() == 0
        assert SpanningTree(range(2), fanout=2).depth() == 1
        assert SpanningTree(range(3), fanout=2).depth() == 1
        assert SpanningTree(range(4), fanout=2).depth() == 2
        assert SpanningTree(range(256), fanout=4).depth() == 4
        # Fanout 1 degrades to a chain: depth n-1.
        assert SpanningTree(range(6), fanout=1).depth() == 5

    def test_subtree_sizes_partition_the_view(self):
        tree = SpanningTree(range(11), fanout=3)
        for root in range(11):
            assert tree.subtree_size(root, root) == 11
            kids = tree.children(root, root)
            assert sum(tree.subtree_size(root, k) for k in kids) == 10


class TestMinMergeHaveVectors:
    def test_empty_and_identity(self):
        assert min_merge_have_vectors([]) == {}
        assert min_merge_have_vectors([{1: 4, 2: 7}]) == {1: 4, 2: 7}

    def test_pointwise_minimum(self):
        merged = min_merge_have_vectors([{1: 4, 2: 7}, {1: 6, 2: 3}])
        assert merged == {1: 4, 2: 3}

    def test_absent_origin_reads_as_zero(self):
        # Origin 2 missing from the second vector: its floor there is 0,
        # so it must not survive the merge (the subtree has nothing).
        merged = min_merge_have_vectors([{1: 4, 2: 7}, {1: 6}])
        assert merged == {1: 4}
