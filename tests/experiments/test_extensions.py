"""Tests for the extension experiments (motivation, energy, batching)."""

import pytest

from repro.experiments import batching, energy, motivation


class TestMotivation:
    @pytest.fixture(scope="class")
    def result(self):
        return motivation.run()

    def test_conv_layers_compute_bound(self, result):
        """Paper observation 1: inference is compute-intensive."""
        assert result.compute_bound_layers["Conv1"]
        assert result.compute_bound_layers["PrimaryCaps"]

    def test_parameters_fit_onchip(self, result):
        """Paper observation 3: 8 MB suffices for every parameter."""
        assert result.fits_onchip
        assert 6.0 < result.weight_megabytes < 7.0

    def test_network_intensity_above_ridge(self, result):
        assert result.network_point.arithmetic_intensity > result.ridge_intensity

    def test_report_renders(self, result):
        text = motivation.format_report(result)
        assert "compute" in text
        assert "8 MB" in text


class TestEnergy:
    @pytest.fixture(scope="class")
    def result(self):
        return energy.run()

    def test_bottomup_within_topdown_envelope(self, result):
        assert result.consistent

    def test_macs_dominate_dynamic_energy(self, result):
        assert result.bottomup_energy_uj["mac"] == max(
            result.bottomup_energy_uj.values()
        )

    def test_plausible_magnitudes(self, result):
        # ~200M MACs at ~1 pJ each plus traffic: hundreds of microjoules.
        assert 50 < result.bottomup_total_uj < 1000
        assert 200 < result.topdown_energy_uj < 2000

    def test_report_renders(self, result):
        assert "uJ" in energy.format_report(result)


class TestBatching:
    @pytest.fixture(scope="class")
    def result(self):
        return batching.run()

    def test_capsacc_wins_at_batch_one(self, result):
        """The paper's regime: batch-1 latency-critical inference."""
        assert result.capsacc_images_per_s > result.gpu_images_per_s[1]

    def test_gpu_throughput_monotone_in_batch(self, result):
        values = [result.gpu_images_per_s[b] for b in result.batch_sizes]
        assert values == sorted(values)

    def test_crossover_exists_and_beyond_embedded_batches(self, result):
        crossover = result.crossover_batch
        assert crossover is not None
        assert crossover >= 8

    def test_report_renders(self, result):
        assert "crossover" in batching.format_report(result).lower()


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return batching.policy_comparison(
            network="tiny",
            requests=64,
            deadline_ms=0.05,
            max_wait_us=50.0,
        )

    def test_one_row_per_policy(self, result):
        assert [row["policy"] for row in result.rows] == [
            "fifo",
            "deadline",
            "greedy",
        ]

    def test_deadline_policy_bounds_p99_at_saturation(self, result):
        """The acceptance shape on closed-form costs: the SLA-aware policy
        sheds or early-launches instead of blowing p99."""
        fifo, deadline = result.row("fifo"), result.row("deadline")
        assert deadline["p99_us"] < fifo["p99_us"]
        assert deadline["deadline_miss_rate"] <= fifo["deadline_miss_rate"]

    def test_report_renders(self, result):
        text = batching.format_policy_report(result)
        assert "policy" in text and "p99" in text and "shed" in text


class TestOracleAdmissionStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return batching.oracle_admission_study(
            network="tiny",
            requests=64,
            deadline_ms=0.1,
            max_wait_us=50.0,
            slacks_us=(0.0, 20.0, 50.0),
        )

    def test_one_row_per_slack_plus_oracle(self, result):
        assert [row["label"] for row in result.rows] == [
            "slack=0us",
            "slack=20us",
            "slack=50us",
            "oracle",
        ]

    def test_every_row_served_the_same_trace(self, result):
        offered = {row["offered"] for row in result.rows}
        assert offered == {64}

    def test_oracle_reaches_a_missless_fixed_point(self, result):
        oracle = result.row("oracle")
        assert result.oracle_converged
        assert oracle["deadline_miss_rate"] == 0.0
        assert 1 <= result.oracle_iterations <= 8

    def test_zero_iteration_budget_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            batching.oracle_admission_study(network="tiny", max_iterations=0)

    def test_goodput_accounts_shed_and_missed(self, result):
        for row in result.rows:
            assert row["goodput_rps"] >= 0.0
            assert 0.0 <= row["shed_rate"] <= 1.0
            # Goodput is normalized by the offered window, so it can
            # never exceed the offered rate.
            assert row["goodput_rps"] <= result.offered_rps + 1e-9

    def test_report_renders(self, result):
        text = batching.format_admission_report(result)
        assert "oracle" in text and "goodput" in text and "slack=0us" in text
