"""Data model, validation report and CSV round-trip."""
import csv
import io

import numpy as np
import pytest

from fedcause import core
from fedcause import (
    EstimateReport,
    SiteDataset,
    TargetCovariates,
    read_sites_csv,
    read_target_csv,
    validate_dataset,
    write_sites_csv,
    write_target_csv,
)


def _random_sites(rng, n_sites=3, d=3):
    sites = []
    for k in range(1, n_sites + 1):
        n = int(rng.integers(5, 20))
        x = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3)
        z = rng.integers(0, 2, size=n)
        z[:2] = [0, 1]
        y = rng.normal(size=n) / 3.0  # awkward mantissas on purpose
        sites.append(SiteDataset.from_arrays(k, x, z, y))
    return sites


def test_sites_csv_round_trip_is_exact(tmp_path, rng):
    sites = _random_sites(rng)
    path = tmp_path / "sites.csv"
    write_sites_csv(sites, path)
    back = read_sites_csv(path)
    assert [s.site_id for s in back] == [s.site_id for s in sites]
    for a, b in zip(sites, back):
        assert np.array_equal(a.x_matrix, b.x_matrix)
        assert np.array_equal(a.z_vec, b.z_vec)
        assert np.array_equal(a.y_vec, b.y_vec)


def test_target_csv_round_trip_is_exact(tmp_path, rng):
    target = TargetCovariates(rng.normal(size=(50, 4)) * 1e-7)
    path = tmp_path / "target.csv"
    write_target_csv(target, path)
    back = read_target_csv(path)
    assert np.array_equal(back.xs, target.xs)


def test_csv_headers(tmp_path, rng):
    sites = _random_sites(rng, n_sites=1, d=2)
    write_sites_csv(sites, tmp_path / "s.csv")
    write_target_csv(TargetCovariates(rng.normal(size=(3, 2))), tmp_path / "t.csv")
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "site_id,z,y,x1,x2"
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == "x1,x2"


_HEADER = "site_id,z,y,x1,x2\n"


@pytest.mark.parametrize("row", ["1,1.0,0.5,1,2", "1.0,1,0.5,1,2", "1,1,0.5,1",
                                 "1,1,0.5,1,2,3", "1,1,abc,1,2", "1,1,0.5,,2"])
def test_sites_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_text(_HEADER + "1,0,0.25,3,4\n" + row + "\n")
    with pytest.raises(ValueError):
        read_sites_csv(path)


def test_sites_csv_without_rows_names_the_file(tmp_path):
    path = tmp_path / "site_3.csv"
    path.write_text(_HEADER)
    with pytest.raises(ValueError, match="site_3.csv"):
        read_sites_csv(path)


@pytest.mark.parametrize("text", ["", "site_id,z,y\n1,0,0.5\n"])
def test_sites_csv_needs_a_covariate_column(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="header"):
        read_sites_csv(path)


def test_csv_blank_lines_are_ignored(tmp_path, rng):
    sites = _random_sites(rng)
    target = TargetCovariates(rng.normal(size=(7, 3)))
    write_sites_csv(sites, tmp_path / "s.csv")
    write_target_csv(target, tmp_path / "t.csv")
    for name in ("s.csv", "t.csv"):
        (tmp_path / f"blank_{name}").write_text((tmp_path / name).read_text() + "\n")
    back = read_sites_csv(tmp_path / "blank_s.csv")
    for a, b in zip(sites, back, strict=True):
        assert a.site_id == b.site_id
        assert np.array_equal(a.x_matrix, b.x_matrix)
        assert np.array_equal(a.z_vec, b.z_vec)
        assert np.array_equal(a.y_vec, b.y_vec)
    assert np.array_equal(read_target_csv(tmp_path / "blank_t.csv").xs, target.xs)


def _reference_sites_csv(sites) -> bytes:
    # one csv.writer row per unit and one %.17g per value: the byte format
    # the block writers must reproduce
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["site_id", "z", "y"] + [f"x{j + 1}" for j in range(sites[0].d)])
    for s in sites:
        for i in range(s.n):
            w.writerow([s.site_id, int(s.z_vec[i]), "%.17g" % float(s.y_vec[i])]
                       + ["%.17g" % float(v) for v in s.x_matrix[i]])
    return buf.getvalue().encode()


def _reference_target_csv(target) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow([f"x{j + 1}" for j in range(target.d)])
    for row in target.xs:
        w.writerow(["%.17g" % float(v) for v in row])
    return buf.getvalue().encode()


_AWKWARD = [-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 3.0, -12.0,
            2.0 ** 53, 0.1, 1 / 3, np.nan, np.inf, -np.inf, 2.5e-310]


def _awkward(rng, shape) -> np.ndarray:
    # random mantissas over a wide range of exponents, led by edge values
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = vals.reshape(-1)
    flat[:len(_AWKWARD)] = _AWKWARD[:len(flat)]
    return vals


@pytest.mark.parametrize("sizes,d", [
    ((1,), 1), ((1,), 5), ((3, 4), 5), ((2, 7), 1),
    ((2 * core._CHUNK_ROWS + 3,), 3), ((core._CHUNK_ROWS, 5, core._CHUNK_ROWS + 1), 2)])
def test_sites_csv_bytes_match_the_per_value_writer(tmp_path, rng, sizes, d):
    sites = []
    for k, n in enumerate(sizes, start=1):
        z = rng.integers(0, 2, size=n)
        z[0] = 2 ** 62 + 1  # an arm no float64 can hold; only the writer sees it
        sites.append(SiteDataset.from_arrays(2 ** 53 + k, _awkward(rng, (n, d)), z,
                                             _awkward(rng, n)[::-1]))
    write_sites_csv(sites, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == _reference_sites_csv(sites)


@pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (6, 5), (7, 1),
                                 (2 * core._CHUNK_ROWS + 3, 3)])
def test_target_csv_bytes_match_the_per_value_writer(tmp_path, rng, n, d):
    target = TargetCovariates(_awkward(rng, (n, d)))
    write_target_csv(target, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == _reference_target_csv(target)


def test_write_sites_csv_needs_a_site(tmp_path):
    with pytest.raises(ValueError, match="^no sites to write$"):
        write_sites_csv([], tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()


def test_write_sites_csv_refuses_sites_of_different_dimension(tmp_path, rng):
    sites = _random_sites(rng, n_sites=2, d=3) + _random_sites(rng, n_sites=1, d=2)
    sites[2] = SiteDataset.from_arrays(3, sites[2].x_matrix, sites[2].z_vec, sites[2].y_vec)
    with pytest.raises(ValueError, match="^site 3 has 2 covariates; site 1 has 3$"):
        write_sites_csv(sites, tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("text", ["x1,x2\n1,2,3\n4,5,6\n", "x1,x2,x3\n1,2\n"])
def test_target_csv_header_must_match_the_row_width(tmp_path, text):
    path = tmp_path / "target.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="target.csv"):
        read_target_csv(path)


def test_header_only_target_is_reported_empty(tmp_path, rng):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,x3\n")
    rep = validate_dataset(_random_sites(rng), read_target_csv(path))
    assert "target covariate set is empty" in rep.errors


def test_multi_site_csv_keeps_row_order(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text(_HEADER + "2,1,0.5,1,2\n1,0,1.5,3,4\n2,0,2.5,5,6\n"
                    "1,1,3.5,7,8\n2,1,4.5,9,10\n")
    s1, s2 = read_sites_csv(path)
    assert (s1.site_id, s2.site_id) == (1, 2)
    assert s1.y_vec.tolist() == [1.5, 3.5] and s1.z_vec.tolist() == [0, 1]
    assert s2.y_vec.tolist() == [0.5, 2.5, 4.5] and s2.z_vec.tolist() == [1, 0, 1]
    assert s2.x_matrix.tolist() == [[1, 2], [5, 6], [9, 10]]


def test_validate_well_formed_ok():
    rng = np.random.default_rng(1)
    sites = _random_sites(rng)
    rep = validate_dataset(sites, TargetCovariates(rng.normal(size=(10, 3))))
    assert rep.ok and not rep.errors


def test_validate_dimension_mismatch():
    rng = np.random.default_rng(2)
    s1 = SiteDataset.from_arrays(1, rng.normal(size=(4, 3)), [0, 1, 0, 1], rng.normal(size=4))
    s2 = SiteDataset.from_arrays(2, rng.normal(size=(4, 2)), [0, 1, 0, 1], rng.normal(size=4))
    rep = validate_dataset([s1, s2], TargetCovariates(rng.normal(size=(5, 3))))
    assert not rep.ok
    assert any("dimension mismatch site 2" in e for e in rep.errors)


def test_from_arrays_rejects_misaligned_arrays():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        SiteDataset.from_arrays(1, x, [0, 1], [0.0, 1.0])  # x longer than z, y
    with pytest.raises(ValueError):
        SiteDataset.from_arrays(1, x, [0, 1, 0, 1], [0.0, 1.0, 2.0, 3.0])  # x shorter
    with pytest.raises(ValueError):
        SiteDataset.from_arrays(1, x, [0, 1, 0], [0.0, 1.0])  # y alone too short
    with pytest.raises(ValueError):
        SiteDataset.from_arrays(1, x, [[0, 1, 0]], [0.0, 1.0, 2.0])  # z not 1-d
    site = SiteDataset.from_arrays(1, x, [0, 1, 0], [0.0, 1.0, 2.0])
    assert (site.n, site.d) == (3, 2)


def test_validate_missing_arm_is_warning_not_error():
    rng = np.random.default_rng(3)
    s1 = SiteDataset.from_arrays(1, rng.normal(size=(4, 3)), [1, 1, 1, 1], rng.normal(size=4))
    rep = validate_dataset([s1], TargetCovariates(rng.normal(size=(5, 3))))
    assert rep.ok
    assert any("site 1 lacks control units" in w for w in rep.warnings)


def test_validate_duplicate_ids_and_nonfinite():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 3))
    x[0, 0] = np.nan
    s1 = SiteDataset.from_arrays(1, x, [0, 1, 0, 1], rng.normal(size=4))
    s2 = SiteDataset.from_arrays(1, rng.normal(size=(4, 3)), [0, 1, 0, 1], rng.normal(size=4))
    rep = validate_dataset([s1, s2], TargetCovariates(rng.normal(size=(5, 3))))
    assert any("duplicate site_id 1" in e for e in rep.errors)
    assert any("non-finite value in site 1" in e for e in rep.errors)


def test_validate_z_outside_binary():
    s = SiteDataset.from_arrays(1, np.zeros((3, 2)), [0, 1, 2], [0.0, 0.0, 0.0])
    rep = validate_dataset([s], TargetCovariates(np.zeros((2, 2))))
    assert any("z outside {0,1}" in e for e in rep.errors)


def test_report_validation():
    kw = dict(tau_hat=0.0, var_hat=1.0, n_effective=1, ci_level=0.95, ci_lo=-1, ci_hi=1)
    with pytest.raises(ValueError):
        EstimateReport(estimator_name="Nope", **kw)
    with pytest.raises(ValueError):
        EstimateReport(estimator_name="MetaIPW", tau_hat=5.0, var_hat=1.0,
                       n_effective=1, ci_level=0.95, ci_lo=-1, ci_hi=1)
    with pytest.raises(ValueError):
        EstimateReport(estimator_name="MetaIPW", tau_hat=0.0, var_hat=-1.0,
                       n_effective=1, ci_level=0.95, ci_lo=-1, ci_hi=1)
