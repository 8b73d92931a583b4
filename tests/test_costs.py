import numpy as np
import pytest

from modemix import (
    Beamsplitter,
    Circuit,
    CSBlock,
    DimensionError,
    InternalOp,
    ModeSpace,
    PhaseBlock,
    audit_circuit,
    cost_report,
    decompose,
    decompose_stage1,
    haar_random_unitary,
)


class TestCostReport:
    def test_three_by_two(self):
        report = cost_report(ModeSpace(3, 2))
        assert report.reck_beamsplitters == 15
        assert report.beamsplitters == 6
        assert report.eta == pytest.approx(2.5)
        assert report.eta > 2 ** 2 / 2

    def test_two_by_three(self):
        report = cost_report(ModeSpace(2, 3))
        assert report.reck_beamsplitters == 15
        assert report.beamsplitters == 2
        assert report.eta == pytest.approx(7.5)
        assert report.eta > 3 ** 2 / 2

    def test_two_by_one_has_no_advantage(self):
        report = cost_report(ModeSpace(2, 1))
        assert report.reck_beamsplitters == 1
        assert report.beamsplitters == 2
        assert report.eta == pytest.approx(0.5)
        assert report.eta == pytest.approx(1 ** 2 / 2)

    def test_count_formulas(self):
        report = cost_report(ModeSpace(5, 3))
        assert report.beamsplitters == 20
        assert report.internal_arbitrary == 25
        assert report.internal_phase_blocks == 20
        assert report.internal_element_estimate == 15 * (15 + 4)
        assert report.reck_phase_shifters == 15 * 16 // 2

    def test_internal_estimate_formula_grid(self):
        for n_s in range(1, 9):
            for n_p in range(1, 7):
                report = cost_report(ModeSpace(n_s, n_p))
                total = n_s * n_p
                assert report.internal_element_estimate == total * (total + n_s - 1)
                # the estimate decomposes into its counting rules
                assert report.internal_element_estimate == (
                    report.internal_arbitrary * n_p**2 + report.internal_phase_blocks * n_p
                )

    def test_single_spatial_mode_marks_ratios_undefined(self):
        report = cost_report(ModeSpace(1, 4))
        assert report.beamsplitters == 0
        assert report.internal_arbitrary == 1
        assert report.eta is None
        assert report.xi is None

    def test_eta_exceeds_half_np_squared_for_np_at_least_2(self):
        for n_s in range(2, 9):
            for n_p in range(2, 7):
                report = cost_report(ModeSpace(n_s, n_p))
                assert report.eta > n_p**2 / 2

    def test_eta_equals_half_for_single_internal_mode(self):
        # with one internal mode the ratio degenerates to exactly 1/2
        for n_s in range(2, 9):
            assert cost_report(ModeSpace(n_s, 1)).eta == pytest.approx(0.5)

    def test_xi_closed_form(self):
        for n_s in range(2, 9):
            for n_p in range(1, 7):
                report = cost_report(ModeSpace(n_s, n_p))
                expected = 2 * (n_s * n_p + n_s - 1) / (n_s * n_p + 1)
                assert report.xi == pytest.approx(expected)

    def test_xi_range_and_monotonicity(self):
        # xi = 2 + 2(n_s - 2)/(n_s n_p + 1): equal to 2 at n_s = 2, above 2
        # for n_s >= 3, decreasing toward 2 as n_p grows; its grid maximum
        # 10/3 sits at (n_s, n_p) = (8, 1)
        for n_s in range(2, 9):
            previous = None
            for n_p in range(1, 7):
                xi = cost_report(ModeSpace(n_s, n_p)).xi
                assert 2.0 <= xi <= 10 / 3 + 1e-12
                if n_s == 2:
                    assert xi == pytest.approx(2.0)
                else:
                    assert xi > 2.0
                if previous is not None:
                    assert xi <= previous + 1e-12
                previous = xi
        assert cost_report(ModeSpace(8, 1)).xi == pytest.approx(10 / 3)

    def test_xi_approaches_two_for_many_internal_modes(self):
        assert cost_report(ModeSpace(8, 50)).xi == pytest.approx(2.0, abs=0.04)


class TestAuditCircuit:
    @pytest.mark.parametrize("n_s,n_p", [(1, 2), (2, 3), (4, 2), (5, 1)])
    def test_matches_formulas_for_decompose_output(self, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        circuit = decompose(haar_random_unitary(space.dim, 0), space)
        assert audit_circuit(circuit) == cost_report(space)

    def test_single_mode_circuit(self):
        space = ModeSpace(1, 3)
        circuit = decompose(haar_random_unitary(3, 1), space)
        report = audit_circuit(circuit)
        assert report.beamsplitters == 0
        assert report.internal_arbitrary == 1
        assert report.eta is None

    def test_rejects_stage1_circuits(self):
        space = ModeSpace(3, 2)
        stage1 = decompose_stage1(haar_random_unitary(6, 2), space)
        with pytest.raises(ValueError, match="expand"):
            audit_circuit(stage1)

    def test_counts_arbitrary_circuit(self):
        space = ModeSpace(2, 2)
        circuit = Circuit(space, [InternalOp(1, np.eye(2)), InternalOp(2, np.eye(2))])
        report = audit_circuit(circuit)
        assert report.internal_arbitrary == 2
        assert report.beamsplitters == 0
        assert report.internal_element_estimate == 2 * 4

    def test_counts_both_beamsplitter_flags(self):
        space = ModeSpace(3, 1)
        elements = [Beamsplitter((1, 2)), Beamsplitter((2, 3), conjugate=True), PhaseBlock(1, np.zeros(1))]
        elements += [Beamsplitter((1, 2), conjugate=True), Beamsplitter((2, 3))]
        report = audit_circuit(Circuit(space, elements))
        assert report.beamsplitters == 4
        assert report.internal_phase_blocks == 1

    def test_refuses_what_reconstruct_refuses(self):
        # The counts come from the walk that checks elements for reconstruct and serialize.
        space = ModeSpace(2, 1)
        with pytest.raises(TypeError, match="^unknown circuit element type: str$"):
            audit_circuit(Circuit(space, [InternalOp(1, np.eye(1)), "junk"]))
        with pytest.raises(DimensionError, match="^spatial index 9 out of range 1..2$"):
            audit_circuit(Circuit(space, [InternalOp(9, np.eye(3))]))
