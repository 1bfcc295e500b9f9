"""Tables and figure: content, serialization, and oracle cross-derivation."""

import json
import xml.etree.ElementTree as ET

import pytest

from erdos_straus import (
    DomainError,
    SolutionType,
    classify_solution,
    figure_points,
    k_table,
    k_table_csv,
    k_table_json,
    points_csv,
    primes_in_range,
    render_scatter,
    scan_primes,
    solve_bruteforce,
    x_range,
)


def k_sets_from_bruteforce(p: int) -> dict[SolutionType, tuple[int, ...]]:
    """Independent derivation of the k table through the oracle route."""
    lo = (p + 3) // 4
    sets: dict[SolutionType, set[int]] = {
        SolutionType.TYPE_I: set(),
        SolutionType.TYPE_II: set(),
    }
    for x, y, z in solve_bruteforce(p):
        sets[classify_solution(p, x, y, z)].add(x - lo)
    return {t: tuple(sorted(s)) for t, s in sets.items()}


class TestKTable:
    def test_spot_rows(self):
        rows = dict(k_table(100, SolutionType.TYPE_I))
        assert rows[29] == (0, 3)
        assert rows[2] == ()
        assert rows[5] == (0,)
        rows2 = dict(k_table(100, SolutionType.TYPE_II))
        assert rows2[59] == (0, 1, 2, 5)
        assert rows2[2] == (0,)
        assert rows2[73] == (1, 2)

    def test_row_shape(self):
        rows = k_table(100, SolutionType.TYPE_I)
        assert len(rows) == 25
        assert [p for p, _ in rows] == primes_in_range(2, 100)
        for p, ks in rows:
            assert isinstance(ks, tuple)
            assert list(ks) == sorted(set(ks))

    def test_whole_table_matches_bruteforce_derivation(self):
        t1 = dict(k_table(100, SolutionType.TYPE_I))
        t2 = dict(k_table(100, SolutionType.TYPE_II))
        for p in primes_in_range(2, 100):
            oracle_sets = k_sets_from_bruteforce(p)
            assert t1[p] == oracle_sets[SolutionType.TYPE_I], p
            assert t2[p] == oracle_sets[SolutionType.TYPE_II], p

    def test_row_47_pinned_against_bruteforce(self):
        # This row is easy to get wrong by hand: x=17 admits nothing,
        # while k=6 and k=8 do admit type I solutions.
        rows = dict(k_table(47, SolutionType.TYPE_I))
        assert rows[47] == (0, 1, 2, 3, 4, 6, 8, 9, 12)
        assert rows[47] == k_sets_from_bruteforce(47)[SolutionType.TYPE_I]
        assert all(x != 17 for x, _, _ in solve_bruteforce(47))

    def test_domain_guard(self):
        # The table always starts at 2, so the message names only hi.
        with pytest.raises(DomainError, match=r"^need hi >= 2, got hi=1$"):
            k_table(1, SolutionType.TYPE_I)


class TestSerialization:
    def test_csv_shape(self):
        text = k_table_csv(k_table(100, SolutionType.TYPE_I))
        lines = text.splitlines()
        assert len(lines) == 25
        assert lines[0] == "2"  # empty k set collapses to the prime alone
        assert lines[1] == "3,0,1"
        assert lines[-1] == "97,0,1,3,9"
        assert text.endswith("\n")

    def test_csv_type2(self):
        lines = k_table_csv(k_table(100, SolutionType.TYPE_II)).splitlines()
        assert lines[0] == "2,0"
        assert lines[-1] == "97,0,1,3"

    def test_json_round_trip(self):
        rows = k_table(100, SolutionType.TYPE_II)
        data = json.loads(k_table_json(rows))
        assert data["41"] == [0, 1, 3]
        assert list(data.keys()) == [str(p) for p, _ in rows]

    def test_deterministic(self):
        rows = k_table(50, SolutionType.TYPE_I)
        assert k_table_csv(rows) == k_table_csv(rows)
        assert k_table_json(rows) == k_table_json(rows)


class TestFigurePoints:
    def test_spot_values(self):
        pts = figure_points(100)
        assert [x for p, x in pts if p == 41] == [11, 12, 14, 18]
        assert figure_points(2) == [(2, 1)]

    def test_domain_guard(self):
        with pytest.raises(DomainError, match=r"^need hi >= 2, got hi=1$"):
            figure_points(1)

    def test_sorted_and_in_range(self):
        pts = figure_points(100)
        assert pts == sorted(pts)
        for p, x in pts:
            lo, hi = x_range(p)
            assert lo <= x <= hi

    def test_matches_exhaustive_scan_projection(self):
        pts = set(figure_points(100))
        expected = set()
        for r in scan_primes(2, 100, mode="exhaustive").records:
            lo = (r.p + 3) // 4
            for k in (*r.type1_k_set, *r.type2_k_set):
                expected.add((r.p, lo + k))
        assert pts == expected

    def test_points_csv(self):
        text = points_csv([(2, 1), (3, 1)])
        assert text == "p,x\n2,1\n3,1\n"


class TestRenderScatter:
    def test_well_formed_with_all_primes(self):
        svg = render_scatter(figure_points(100))
        root = ET.fromstring(svg)
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len({c.get("data-p") for c in circles}) == 25

    def test_single_point(self):
        svg = render_scatter([(2, 1)])
        root = ET.fromstring(svg)
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 1
        assert circles[0].get("data-x") == "1"

    def test_deterministic_bytes(self):
        pts = figure_points(60)
        assert render_scatter(pts) == render_scatter(pts)

    def test_axes_present(self):
        svg = render_scatter([(2, 1), (97, 30)])
        assert "<line" in svg and "<text" in svg

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            render_scatter([])
