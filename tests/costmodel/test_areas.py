"""Unit tests for the λ² area budgets (paper Tables 1-3)."""

import pytest

from repro.costmodel.areas import (
    AreaItem,
    APComposition,
    CONTROL_OBJECT_ITEMS,
    MEMORY_BLOCK_ITEMS,
    PAPER_TABLE1_TOTAL,
    PAPER_TABLE2_TOTAL,
    PAPER_TABLE3_TOTAL,
    PHYSICAL_OBJECT_ITEMS,
    ap_area,
    control_objects_budget,
    memory_block_budget,
    physical_object_budget,
)


class TestAreaItem:
    def test_fields_preserved(self):
        item = AreaItem("64b fDiv", 0.25, 0.21e8)
        assert item.name == "64b fDiv"
        assert item.reference_process_um == 0.25
        assert item.area_lambda2 == 0.21e8

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            AreaItem("bad", 0.25, 0.0)
        with pytest.raises(ValueError):
            AreaItem("bad", 0.25, -1.0)

    def test_rejects_nonpositive_process(self):
        with pytest.raises(ValueError):
            AreaItem("bad", 0.0, 1.0)

    def test_frozen(self):
        item = AreaItem("x", 0.25, 1.0)
        with pytest.raises(AttributeError):
            item.area_lambda2 = 2.0


class TestTable1PhysicalObject:
    def test_total_matches_paper(self):
        # Paper prints 5.32e8; the row sum is 5.3236e8 (printed total rounded).
        total = physical_object_budget().total_lambda2
        assert total == pytest.approx(PAPER_TABLE1_TOTAL, rel=0.01)

    def test_has_five_rows(self):
        assert len(physical_object_budget()) == 5

    def test_row_names_match_paper(self):
        names = [i.name for i in physical_object_budget()]
        assert names == [
            "64b fMul, fAdd",
            "64b fDiv",
            "64b iMul + iALU/Shift",
            "64b iDiv",
            "64b Register x6",
        ]

    def test_fpu_fraction_under_one_third(self):
        # fMul/fAdd + fDiv is the FP fabric; the integer side dominates.
        budget = physical_object_budget()
        frac = budget.fraction("64b fMul, fAdd", "64b fDiv")
        assert 0.25 < frac < 0.33

    def test_integer_multiplier_is_largest_row(self):
        budget = physical_object_budget()
        largest = max(budget, key=lambda i: i.area_lambda2)
        assert largest.name == "64b iMul + iALU/Shift"


class TestTable2MemoryBlock:
    def test_total_matches_paper(self):
        total = memory_block_budget().total_lambda2
        assert total == pytest.approx(PAPER_TABLE2_TOTAL, rel=0.01)

    def test_sram_dominates(self):
        budget = memory_block_budget()
        assert budget.fraction("64KB SRAM") > 0.7

    def test_memory_block_about_twice_physical_object(self):
        # Paper: "The total memory block takes approximately twice the area
        # of the physical object."
        ratio = memory_block_budget().total_lambda2 / physical_object_budget().total_lambda2
        assert 1.7 < ratio < 2.0

    def test_reference_processes_recorded(self):
        by_name = {i.name: i for i in MEMORY_BLOCK_ITEMS}
        assert by_name["16b ALU-II x4"].reference_process_um == 0.21
        assert by_name["64KB SRAM"].reference_process_um == 0.35


class TestTable3ControlObjects:
    def test_total_matches_paper(self):
        total = control_objects_budget().total_lambda2
        assert total == pytest.approx(PAPER_TABLE3_TOTAL, rel=0.01)

    def test_wsrf_is_largest(self):
        largest = max(CONTROL_OBJECT_ITEMS, key=lambda i: i.area_lambda2)
        assert "WSRF" in largest.name

    def test_control_negligible_vs_ap(self):
        # Control registers are < 0.5 % of the AP -- the paper's "area cost
        # is very low" claim for the control plane.
        assert control_objects_budget().total_lambda2 / ap_area() < 0.005


class TestAreaBudget:
    def test_iteration_order(self):
        budget = physical_object_budget()
        assert tuple(budget) == PHYSICAL_OBJECT_ITEMS

    def test_fraction_unknown_row_raises(self):
        with pytest.raises(KeyError):
            physical_object_budget().fraction("no such row")

    def test_fraction_of_all_rows_is_one(self):
        budget = memory_block_budget()
        names = [i.name for i in budget]
        assert budget.fraction(*names) == pytest.approx(1.0)

    def test_scaled_scales_total(self):
        budget = physical_object_budget()
        doubled = budget.scaled(2.0)
        assert doubled.total_lambda2 == pytest.approx(2 * budget.total_lambda2)
        assert len(doubled) == len(budget)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            physical_object_budget().scaled(0.0)

    def test_rows_yields_triples(self):
        for name, proc, area in control_objects_budget().rows():
            assert isinstance(name, str)
            assert proc > 0 and area > 0


class TestAPComposition:
    def test_default_is_16_16(self):
        comp = APComposition()
        assert comp.n_physical_objects == 16
        assert comp.n_memory_blocks == 16

    def test_compute_to_memory_ratio_about_half(self):
        # Paper: "The area ratio of physical to memory objects is 1 : 2".
        assert APComposition().compute_to_memory_ratio == pytest.approx(0.546, abs=0.05)

    def test_zero_memory_gives_infinite_ratio(self):
        assert APComposition(16, 0).compute_to_memory_ratio == float("inf")

    def test_rejects_zero_physical_objects(self):
        with pytest.raises(ValueError):
            APComposition(0, 16)

    def test_rejects_negative_memory(self):
        with pytest.raises(ValueError):
            APComposition(16, -1)


class TestAPArea:
    def test_default_ap_area(self):
        # 16*(5.3236e8) + 16*(9.7458e8) + 75.02e6 = 2.4186e10
        assert ap_area() == pytest.approx(2.419e10, rel=0.01)

    def test_custom_composition(self):
        small = ap_area(APComposition(4, 4))
        assert small < ap_area()
        expected = (
            4 * physical_object_budget().total_lambda2
            + 4 * memory_block_budget().total_lambda2
            + control_objects_budget().total_lambda2
        )
        assert small == pytest.approx(expected)

    def test_more_fpus_less_memory_changes_area(self):
        # The ablation knob of section 4.1.
        fpu_heavy = ap_area(APComposition(24, 8))
        assert fpu_heavy != ap_area()
