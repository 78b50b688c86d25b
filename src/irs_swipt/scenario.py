"""System configuration, node geometry, and channel realization.

The downlink has one BS, K_I multi-antenna information receivers (IRs),
K_E multi-antenna energy receivers (ERs), and an IRS with M passive
reflective elements.  Five channel families connect them:

    z          (M, N_B)        BS -> IRS
    h_b[k]     (N_I, N_B)      BS -> IR k
    h_r[k]     (N_I, M)        IRS -> IR k
    g_b[l]     (N_E, N_B)      BS -> ER l
    g_r[l]     (N_E, M)        IRS -> ER l

Large-scale fading follows a log-distance power law; small-scale fading is
Rician for the short links around the BS/IRS/ER cluster and Rayleigh for the
distant IR links.  Every matrix has unit average entry power before the
path-loss scaling is applied.

A draw takes the ER then the IR positions from the seeded stream, then the
links in the order z, h_b[0..K_I), h_r[0..K_I), g_b[0..K_E), g_r[0..K_E):
a Rician link takes its two angles and then its fading (a real, then an
imaginary block), a Rayleigh link its fading only.  It reads that order in
as few calls as it has gap-free stretches: one call of uniforms for the
positions and z's angles, one of normals for the fading of z, h_b and h_r,
then one of each per ER link.  numpy's Generator caches no normals, so this
is the same stream as one call per block.  The complex combine, the
line-of-sight terms, the Rician mix and the path-loss scaling then run once
per channel family over all of its links.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import accumulate
from math import inf, isfinite
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
COUNT_FIELDS = ("n_bs_antennas", "n_ir_antennas", "n_er_antennas", "n_irs",
                "n_ers", "n_streams", "n_elements")
EXPONENT_FIELDS = ("alpha_bs_irs", "alpha_irs_er", "alpha_irs_ir",
                   "alpha_bs_ir", "alpha_bs_er")


def _check_int(name: str, value, low: int | None = None) -> None:
    """Raise ValueError unless value is an integer (a bool is not) >= low."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_list(name: str, value, length: int | None = None) -> tuple:
    """value as a tuple; raise ValueError unless it is a list, tuple or
    array (a string is not) with exactly length entries, if length is given."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    if length is not None and len(value) != length:
        raise ValueError(f"{name} must hold exactly {length} numbers, "
                         f"got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters (antenna counts, powers, weights, noise)."""

    n_bs_antennas: int = 4          # N_B
    n_ir_antennas: int = 2          # N_I
    n_er_antennas: int = 2          # N_E
    n_irs: int = 2                  # K_I
    n_ers: int = 4                  # K_E
    n_streams: int = 2              # d per IR
    n_elements: int = 50            # M reflective elements
    power_budget: float = 10.0      # P_T, watts
    eh_threshold: float = 2e-4      # min weighted harvested power, watts
    eh_efficiency: float = 0.5      # RF-to-DC efficiency in (0, 1]
    rate_weights: tuple[float, ...] = ()    # omega_k, defaults to all-ones
    eh_weights: tuple[float, ...] = ()      # alpha_l, defaults to all-ones
    noise_power_ir: float = 1e-13   # watts (-160 dBm/Hz over 1 MHz)
    rician_factor: float = 3.0      # beta for the Rician links
    antenna_spacing_ratio: float = 0.5  # element spacing over wavelength

    def __post_init__(self):
        for name in COUNT_FIELDS:
            _check_int(name, getattr(self, name), 0 if name == "n_elements" else 1)
        for name, count in (("rate_weights", self.n_irs),
                            ("eh_weights", self.n_ers)):
            weights = _check_list(name, getattr(self, name))
            object.__setattr__(self, name, tuple(map(float, weights))
                               if weights else (1.0,) * count)
        if not 1 <= self.n_streams <= min(self.n_bs_antennas, self.n_ir_antennas):
            raise ValueError("need 1 <= n_streams <= min(n_bs_antennas, n_ir_antennas)")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise ValueError("eh_efficiency must be in (0, 1]")
        for name in ("power_budget", "noise_power_ir"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.eh_threshold >= 0.0:
            raise ValueError("eh_threshold must be non-negative")
        if not self.rician_factor >= 0.0:
            raise ValueError("rician_factor must be non-negative")
        if len(self.rate_weights) != self.n_irs:
            raise ValueError("rate_weights length must equal n_irs")
        if len(self.eh_weights) != self.n_ers:
            raise ValueError("eh_weights length must equal n_ers")
        if not all(w > 0.0 for w in self.rate_weights + self.eh_weights):
            raise ValueError("all rate/eh weights must be strictly positive")


@dataclass(frozen=True)
class Geometry:
    """Planar node layout and per-link path-loss model.

    The BS sits at the origin.  ERs are scattered uniformly over a disk
    centered at ``er_center`` on the x axis, IRs over a disk at ``ir_center``,
    and the IRS hangs just above the ER cluster by default.
    """

    bs_position: tuple[float, float] = (0.0, 0.0)
    er_center: float = 5.0          # x_ER, meters
    er_radius: float = 1.0
    ir_center: float = 400.0        # x_IR, meters
    ir_radius: float = 4.0
    irs_position: tuple[float, float] | None = None  # defaults to (er_center, 2)
    alpha_bs_irs: float = 2.2
    alpha_irs_er: float = 2.2
    alpha_irs_ir: float = 2.4
    alpha_bs_ir: float = 3.6
    alpha_bs_er: float = 3.6
    pl0_db: float = -30.0           # reference path loss at d0, dB
    d0: float = 1.0                 # reference distance, meters

    def __post_init__(self):
        if self.irs_position is None:
            object.__setattr__(self, "irs_position", (self.er_center, 2.0))
        for name in ("er_center", "ir_center", "er_radius", "ir_radius"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("bs_position", "irs_position"):
            position = tuple(map(float, _check_list(name, getattr(self, name),
                                                    2)))
            if not (isfinite(position[0]) and isfinite(position[1])):
                raise ValueError(f"{name} must hold two finite numbers, "
                                 f"got {position!r}")
            object.__setattr__(self, name, position)
        for name in EXPONENT_FIELDS:
            if not 0.0 <= getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")
        if not isfinite(self.pl0_db):
            raise ValueError(f"pl0_db must be finite, got {self.pl0_db!r}")
        if not self.d0 > 0.0:
            raise ValueError("d0 must be strictly positive")

    def with_er_center(self, x_er: float) -> "Geometry":
        """Move the ER cluster, keeping the IRS directly above it."""
        return replace(self, er_center=x_er, irs_position=(x_er, self.irs_position[1]))


@dataclass
class ChannelSet:
    """One realization of the five channel families."""

    z: np.ndarray       # (M, N_B)
    h_b: np.ndarray     # (K_I, N_I, N_B)
    h_r: np.ndarray     # (K_I, N_I, M)
    g_b: np.ndarray     # (K_E, N_E, N_B)
    g_r: np.ndarray     # (K_E, N_E, M)


def path_loss_linear(distance: float, exponent: float, pl0_db: float = -30.0,
                     d0: float = 1.0) -> float:
    """Linear power gain of the log-distance path-loss law.

    Returns 10**(pl0_db/10) * (distance/d0)**(-exponent).
    """
    if not distance > 0.0:
        raise ValueError("distance must be strictly positive")
    if not d0 > 0.0:
        raise ValueError("d0 must be strictly positive")
    return float(10.0 ** (pl0_db / 10.0) * (distance / d0) ** (-exponent))


def steering_vector(n: int, angle: float | np.ndarray,
                    spacing_ratio: float = 0.5) -> np.ndarray:
    """Uniform-linear-array response: entry m is exp(j*2*pi*spacing*m*sin(angle)).

    An array of angles gives one response per angle, stacked along a new
    last axis of length n.
    """
    if n < 1:
        raise ValueError("array size must be at least 1")
    m = np.arange(n)
    return np.exp(1j * TWO_PI * spacing_ratio * m * np.sin(angle)[..., None])


def _rician_mix(nlos: np.ndarray, aoa: float | np.ndarray,
                aod: float | np.ndarray, beta: float,
                spacing_ratio: float) -> np.ndarray:
    """Unit-average-power Rician fading of a stack of links.

    sqrt(beta/(beta+1)) * a_rows(aoa) a_cols(aod)^H + sqrt(1/(beta+1)) * nlos
    per link, with nlos of shape (..., rows, cols) and one angle pair per
    link.  beta = 0 or an empty link returns nlos itself.
    """
    if beta == 0.0 or nlos.size == 0:
        return nlos
    rows, cols = nlos.shape[-2:]
    los = (steering_vector(rows, aoa, spacing_ratio)[..., :, None]
           * steering_vector(cols, aod, spacing_ratio).conj()[..., None, :])
    return np.sqrt(beta / (beta + 1.0)) * los + np.sqrt(1.0 / (beta + 1.0)) * nlos


def _blocks(a: np.ndarray, *sizes: int) -> list[np.ndarray]:
    """Consecutive leading slices of a with the given lengths."""
    bounds = list(accumulate(sizes, initial=0))
    return [a[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def generate_scenario(config: SystemConfig, geometry: Geometry,
                      seed: int) -> ChannelSet:
    """Draw node positions and all channel matrices for one trial.

    Deterministic given (config, geometry, seed): positions are drawn first
    (ERs then IRs), then the links in the fixed order z, h_b, h_r, g_b, g_r.
    A zero-length link or a non-finite entry raises ValueError.
    """
    rng = np.random.default_rng(seed)
    m, nb = config.n_elements, config.n_bs_antennas
    ni, ne = config.n_ir_antennas, config.n_er_antennas
    k_i, k_e = config.n_irs, config.n_ers
    beta, spacing = config.rician_factor, config.antenna_spacing_ratio
    geo = geometry

    # The stream in order: the ERs' disk radii and angles, the IRs', z's two
    # angles (one stretch of uniforms); the fading of z, h_b[0..K_I) and
    # h_r[0..K_I) (one stretch of normals); then g_b[0..K_E) and
    # g_r[0..K_E), one link at a time: two angles, then the fading.
    er_r, er_t, ir_r, ir_t, z_angles = _blocks(
        rng.random(2 * (k_e + k_i) + 2), k_e, k_e, k_i, k_i, 2)
    z_x, hb_x, hr_x = _blocks(
        rng.standard_normal(2 * (m * nb + k_i * ni * (nb + m))),
        2 * m * nb, 2 * k_i * ni * nb, 2 * k_i * ni * m)
    er_angles = np.empty((2, k_e, 2))
    gb_x, gr_x = np.empty((k_e, 2, ne, nb)), np.empty((k_e, 2, ne, m))
    for family, buf in enumerate((gb_x, gr_x)):
        for el in range(k_e):
            rng.random(out=er_angles[family, el])
            rng.standard_normal(out=buf[el])
    er_angles *= TWO_PI     # bitwise rng.uniform(0, 2 pi)

    def disk(u_r, u_theta, center_x, radius):
        """Uniform points over a disk (sqrt-radius sampling), shape (2, count)."""
        r = radius * np.sqrt(u_r)
        theta = TWO_PI * u_theta
        return np.array((center_x + r * np.cos(theta), r * np.sin(theta)))

    # The link lengths, BS -> (IRS, IRs, ERs) then IRS -> (IRs, ERs), and
    # one path-loss amplitude gain per link in that order.
    bs = np.asarray(geo.bs_position)[:, None]
    irs = np.asarray(geo.irs_position)[:, None]
    ends = np.concatenate((irs, disk(ir_r, ir_t, geo.ir_center, geo.ir_radius),
                           disk(er_r, er_t, geo.er_center, geo.er_radius)),
                          axis=1)
    dist = np.hypot(*np.concatenate((bs - ends, irs - ends[:, 1:]),
                                    axis=1)).tolist()
    if min(dist) <= 0.0:
        raise ValueError("node placement produced a zero-length link")
    exponents = ([geo.alpha_bs_irs] + [geo.alpha_bs_ir] * k_i
                 + [geo.alpha_bs_er] * k_e + [geo.alpha_irs_ir] * k_i
                 + [geo.alpha_irs_er] * k_e)
    gain = np.sqrt([path_loss_linear(d, alpha, geo.pl0_db, geo.d0)
                    for d, alpha in zip(dist, exponents)])[:, None, None]
    z_gain, hb_gain, gb_gain, hr_gain, gr_gain = _blocks(
        gain, 1, k_i, k_e, k_i, k_e)

    root2 = np.sqrt(2.0)

    def fading(x):
        """Unit-power complex Gaussian entries from (..., 2, rows, cols)."""
        return (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / root2

    # Short links around the BS/IRS/ER cluster are Rician; the distant IR
    # links (from both the BS and the IRS) are Rayleigh.
    channels = ChannelSet(
        z=z_gain[0] * _rician_mix(fading(z_x.reshape(2, m, nb)),
                                  *(TWO_PI * z_angles), beta, spacing),
        h_b=hb_gain * fading(hb_x.reshape(k_i, 2, ni, nb)),
        h_r=hr_gain * fading(hr_x.reshape(k_i, 2, ni, m)),
        g_b=gb_gain * _rician_mix(fading(gb_x), *er_angles[0].T, beta, spacing),
        g_r=gr_gain * _rician_mix(fading(gr_x), *er_angles[1].T, beta, spacing))
    if not all(np.isfinite(h).all() for h in vars(channels).values()):
        raise ValueError("a link gain or fading entry is not finite")
    return channels


def _read_object(path: str | Path, kind: str, build: Callable[[dict], object]):
    """Open a JSON file whose top level is an object and return build(raw);
    a TypeError, KeyError or ValueError from the build is re-raised as a
    ValueError that names the file."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"malformed {kind} {path}: the top level is "
                         f"{type(raw).__name__}, not a JSON object")
    try:
        return build(raw)
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"malformed {kind} {path}: {exc!r}") from exc


def load_scenario(path: str | Path) -> tuple[SystemConfig, Geometry, int]:
    """Read a scenario file: a JSON object with "config", "geometry",
    optional integer "seed"; any other top level, an unknown key or a
    mistyped value raises ValueError."""
    def build(config={}, geometry={}, seed=0):
        _check_int("seed", seed, 0)
        return SystemConfig(**config), Geometry(**geometry), seed

    return _read_object(path, "scenario", lambda raw: build(**raw))
