import warnings

import numpy as np
import pytest

from arraycav.config import default_config_text, parse_config


def make_config(**overrides):
    """Parsed config with sane defaults; keyword overrides per field."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_config(default_config_text(**overrides))


@pytest.fixture(scope="session")
def std_config():
    # w = 4, a = 0.5, n_side = 32: extent = 4 w, qz0 = pi/4
    return make_config()


@pytest.fixture(scope="session")
def std_kernels(std_config):
    """Projected kernel pair (D, D'') for the standard geometry."""
    from arraycav.confined import projected_kernels
    cfg = std_config
    return projected_kernels(cfg.lattice, cfg.cavity.z0, cfg.cavity.k_cut_abs)


@pytest.fixture(scope="session")
def std_grid(std_config):
    from arraycav.lattice_sums import dispersion_grid
    return dispersion_grid(std_config.lattice.a, std_config.lattice.n_side)


def rel_err(x, y):
    return abs(x - y) / abs(y)


def assert_close(x, y, rel, msg=""):
    assert rel_err(x, y) <= rel, f"{msg}: {x} vs {y} (rel {rel_err(x, y):.3g})"
