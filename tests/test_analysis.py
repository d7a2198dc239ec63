"""Landscape lines/planes, checkpoint export, regret aggregation."""

import numpy as np
import pytest

from o2olab.analysis import (
    RegretRecord,
    aggregate_normalized_regret,
    export_checkpoint_matrix,
    interpolate_eval,
    plane_basis,
    plane_grid_eval,
    read_regret_records,
    regret_from_evals,
    write_regret_records,
    write_regret_table,
)
from o2olab.cli import bundled_fixture_records
from o2olab.envs import make_env_spec
from o2olab.errors import ShapeError
from o2olab.networks import make_policy
from o2olab.numkit import MlpSpec, ParamVector
from o2olab.pipeline import evaluate_policy
from o2olab.seeding import stream
from o2olab.tables import read_table


def policy_and_env(seed=0):
    env = make_env_spec("reach2d")
    policy = make_policy(2, env.action_low, env.action_high, (8,), stream(seed, "p"))
    return policy, env


def pv(spec, values):
    return ParamVector(spec, np.asarray(values, dtype=np.float64))


class TestInterpolation:
    def test_endpoints_match_direct_evaluation_exactly(self):
        policy, env = policy_and_env()
        spec = policy.params.spec
        rng = stream(1, "x")
        theta_a = pv(spec, rng.standard_normal(spec.param_count))
        theta_b = pv(spec, rng.standard_normal(spec.param_count))
        curve = interpolate_eval(policy, theta_a, theta_b, [0.0, 0.5, 1.0], env, 3, seed=2)
        at_a = evaluate_policy(policy.with_params(theta_a), env, 3, seed=2)
        at_b = evaluate_policy(policy.with_params(theta_b), env, 3, seed=2)
        assert curve[0][1] == at_a[0] and curve[0][2] == at_a[1]
        assert curve[2][1] == at_b[0] and curve[2][2] == at_b[1]

    def test_identical_endpoints_flat_curve(self):
        policy, env = policy_and_env()
        theta = policy.params
        curve = interpolate_eval(policy, theta, theta.copy(), np.linspace(0, 1, 5), env, 2, seed=3)
        values = {mean for _, mean, _ in curve}
        assert len(values) == 1

    def test_shape_mismatch_rejected(self):
        policy, env = policy_and_env()
        other_spec = MlpSpec((2, 3, 2))
        with pytest.raises(ShapeError):
            interpolate_eval(
                policy,
                policy.params,
                pv(other_spec, np.zeros(other_spec.param_count)),
                [0.0],
                env,
                1,
                seed=0,
            )


class TestPlaneBasis:
    spec = MlpSpec((3, 3))

    def _vec(self, values):
        out = np.zeros(self.spec.param_count)
        out[: len(values)] = values
        return pv(self.spec, out)

    def test_orthogonal_inputs_unchanged(self):
        t1 = self._vec([0.0])
        t2 = self._vec([1.0, 0.0, 0.0])
        t3 = self._vec([0.0, 2.0, 0.0])
        basis = plane_basis(t1, t2, t3)
        assert np.array_equal(basis.v, t3.values)

    def test_projection_removed(self):
        # v = 2u + w with w orthogonal to u leaves exactly w.
        rng = stream(4, "x")
        u = np.zeros(self.spec.param_count)
        u[0] = 1.0
        w = np.zeros(self.spec.param_count)
        w[1] = 0.7
        t1 = pv(self.spec, np.zeros(self.spec.param_count))
        t2 = pv(self.spec, u)
        t3 = pv(self.spec, 2.0 * u + w)
        basis = plane_basis(t1, t2, t3)
        assert np.allclose(basis.v, w, atol=1e-15)

    def test_random_triples_orthogonal(self):
        rng = stream(5, "x")
        for _ in range(100):
            t1 = pv(self.spec, rng.standard_normal(self.spec.param_count))
            t2 = pv(self.spec, rng.standard_normal(self.spec.param_count))
            t3 = pv(self.spec, rng.standard_normal(self.spec.param_count))
            basis = plane_basis(t1, t2, t3)
            cos = abs(basis.u @ basis.v) / (basis.u_norm * basis.v_norm)
            assert cos <= 1e-10

    def test_collinear_rejected_with_cosine(self):
        t1 = self._vec([0.0])
        t2 = self._vec([1.0, 1.0])
        t3 = self._vec([2.0, 2.0])
        with pytest.raises(ValueError, match="cosine"):
            plane_basis(t1, t2, t3)

    def test_degenerate_rejected(self):
        t1 = self._vec([0.0])
        with pytest.raises(ValueError):
            plane_basis(t1, t1.copy(), self._vec([1.0]))

    def test_scaling_third_point_scales_v_only(self):
        rng = stream(6, "x")
        t1 = pv(self.spec, rng.standard_normal(self.spec.param_count))
        t2 = pv(self.spec, rng.standard_normal(self.spec.param_count))
        delta = rng.standard_normal(self.spec.param_count)
        t3a = pv(self.spec, t1.values + delta)
        t3b = pv(self.spec, t1.values + 3.0 * delta)
        ba = plane_basis(t1, t2, t3a)
        bb = plane_basis(t1, t2, t3b)
        assert np.allclose(bb.v, 3.0 * ba.v, rtol=1e-12)
        assert np.array_equal(ba.u, bb.u)


class TestPlaneGrid:
    def test_origin_cell_matches_origin_evaluation(self):
        policy, env = policy_and_env(7)
        spec = policy.params.spec
        rng = stream(8, "x")
        t1 = pv(spec, rng.standard_normal(spec.param_count))
        t2 = pv(spec, t1.values + rng.standard_normal(spec.param_count))
        t3 = pv(spec, t1.values + rng.standard_normal(spec.param_count))
        basis = plane_basis(t1, t2, t3)
        returns, l_coords, t_coords = plane_grid_eval(
            policy, basis, env, 2, seed=9, grid_lo=0.0, grid_hi=1.0, resolution=3
        )
        direct, _ = evaluate_policy(policy.with_params(t1), env, 2, seed=9)
        assert returns[0, 0] == direct
        assert l_coords[0] == 0.0 and t_coords[0] == 0.0

    def test_resolution_two_gives_four_cells(self):
        policy, env = policy_and_env(10)
        spec = policy.params.spec
        rng = stream(11, "x")
        t1 = pv(spec, rng.standard_normal(spec.param_count))
        t2 = pv(spec, t1.values + rng.standard_normal(spec.param_count))
        t3 = pv(spec, t1.values + rng.standard_normal(spec.param_count))
        returns, _, _ = plane_grid_eval(
            policy, plane_basis(t1, t2, t3), env, 1, seed=12, resolution=2
        )
        assert returns.shape == (2, 2)

    def test_basis_corner_recovers_second_checkpoint(self):
        # With theta2 - theta1 orthogonal to v by construction, the grid
        # point (l, t) = (1, 0) evaluates theta2 exactly (integer-valued
        # parameters make the arithmetic exact).
        policy, env = policy_and_env(13)
        spec = policy.params.spec
        n = spec.param_count
        base = np.zeros(n)
        u = np.zeros(n)
        u[0] = 1.0
        w = np.zeros(n)
        w[1] = 2.0
        t1, t2, t3 = pv(spec, base), pv(spec, u), pv(spec, w)
        basis = plane_basis(t1, t2, t3)
        returns, l_coords, t_coords = plane_grid_eval(
            policy, basis, env, 2, seed=14, grid_lo=0.0, grid_hi=1.0, resolution=2
        )
        direct, _ = evaluate_policy(policy.with_params(t2), env, 2, seed=14)
        assert returns[0, 1] == direct

    def test_min_resolution_enforced(self):
        policy, env = policy_and_env(15)
        spec = policy.params.spec
        rng = stream(16, "x")
        t1 = pv(spec, rng.standard_normal(spec.param_count))
        t2 = pv(spec, t1.values + rng.standard_normal(spec.param_count))
        t3 = pv(spec, t1.values + rng.standard_normal(spec.param_count))
        with pytest.raises(ValueError):
            plane_grid_eval(policy, plane_basis(t1, t2, t3), env, 1, seed=0, resolution=1)


class TestExportMatrix:
    spec = MlpSpec((2, 2))

    def test_rows_and_round_trip(self, tmp_path):
        rng = stream(17, "x")
        checkpoints = [pv(self.spec, rng.standard_normal(self.spec.param_count)) for _ in range(4)]
        path = tmp_path / "matrix.csv"
        matrix = export_checkpoint_matrix(checkpoints, path)
        assert matrix.shape == (4, self.spec.param_count)
        assert np.array_equal(read_table(path, None, (float,) * matrix.shape[1]), matrix)

    def test_duplicates_kept(self):
        theta = pv(self.spec, np.arange(6.0))
        matrix = export_checkpoint_matrix([theta, theta])
        assert matrix.shape[0] == 2
        assert np.array_equal(matrix[0], matrix[1])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            export_checkpoint_matrix([np.zeros(4), np.zeros(5)])


class TestRegret:
    def test_regret_recomputation_matches(self):
        rng = stream(18, "x")
        streams = [rng.standard_normal(20) for _ in range(4)]
        r_star = max(float(s.max()) for s in streams)
        mean, err, avg = regret_from_evals(streams, r_star)
        manual = np.mean([np.mean(r_star - s) for s in streams])
        assert abs(mean - manual) <= 1e-12
        assert abs(np.mean(r_star - avg) - mean) <= 1e-12
        assert mean >= 0.0

    def test_mismatched_stream_lengths_rejected(self):
        with pytest.raises(ShapeError):
            regret_from_evals([np.zeros(3), np.zeros(4)], 1.0)

    def test_aggregation_reproduces_published_values(self):
        table = aggregate_normalized_regret(bundled_fixture_records())
        assert abs(table.averaged[("smac", "sac")] - 0.031) <= 0.005
        assert abs(table.averaged[("iql", "sac")] - 0.471) <= 0.005
        assert abs(table.averaged[("td3bc", "sac")] - 0.962) <= 0.005

    def test_normalization_attains_zero_and_one_per_env(self):
        table = aggregate_normalized_regret(bundled_fixture_records())
        for env in table.envs:
            cells = [
                table.normalized_cells[(env, off, on)]
                for off in table.offline_algs
                for on in table.online_algs
            ]
            assert min(cells) == 0.0 and max(cells) == 1.0
            assert all(0.0 <= c <= 1.0 for c in cells)

    def test_degenerate_environment_maps_to_zero(self):
        records = [
            RegretRecord("e", off, on, 5.0) for off in ("a", "b") for on in ("x", "y")
        ]
        table = aggregate_normalized_regret(records)
        assert all(v == 0.0 for v in table.normalized_cells.values())

    def test_missing_cells_listed(self):
        records = [
            RegretRecord("e", "a", "x", 1.0),
            RegretRecord("e", "a", "y", 2.0),
            RegretRecord("e", "b", "x", 3.0),
        ]
        with pytest.raises(ValueError, match=r"\('e', 'b', 'y'\)"):
            aggregate_normalized_regret(records)

    def test_records_csv_round_trip(self, tmp_path):
        records = bundled_fixture_records()
        path = tmp_path / "records.csv"
        write_regret_records(records, path)
        assert read_regret_records(path) == records

    def test_table_csv_written(self, tmp_path):
        table = aggregate_normalized_regret(bundled_fixture_records())
        path = tmp_path / "table.csv"
        write_regret_table(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("env,offline_alg,online_alg")
        assert len(lines) == 1 + 96
