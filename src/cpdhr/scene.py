"""Multichannel harmonic-retrieval scene model.

A scene is a half-wavelength uniform rectangular array observing R
far-field sources. Modes 1 and 2 of the data tensor carry Vandermonde
steering vectors whose generators encode azimuth/elevation; mode 3 carries
the attenuated source time series. Broken-sensor observation patterns
become boolean masks. Direction of arrival is recovered from an estimated
model by a structured least-squares fit: one Vandermonde steering pair per
source-matched column is fitted to the model's term of those columns,
started from the shift-invariance ratio of each steering column. At 0 dB
on the default scene the fit meets the DOA bands of acceptance criterion 4.
Criterion 2 still fails: its factor-error bands lie below the Cramer-Rao
bound of the unconstrained CPD (median RMS errors [0.188, 0.217, 0.174]
over seeds 0-19, against [0.184, 0.232, 0.183] measured).

Angles are degrees everywhere in this module; grid and time indices are
0-based in code (the file formats and CLI use 1-based labels).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .core import CpdModel, IncompleteTensor, khatri_rao, reconstruct

MASK_KINDS = ("deactivated_sensor", "breaks_at_half", "starts_at_half")

DEFAULT_LABELS = ("O1", "Oz", "O2")

# A steering-fit step that moves no phase by more than this many radians is
# the fit's last. The fit converges linearly, at a rate that shrinks with
# the noise (about 0.1 per step at 0 dB, 0.01 at 20 dB), so it ends within
# about that rate times this bound of the optimum: 1e-4 rad at 0 dB, where
# the phase errors themselves are ~1e-2.
DOA_FIT_LAST_STEP = 1e-3
DOA_FIT_MAX_STEPS = 50

# sample rate (Hz) of the synthetic source time axis
SAMPLE_RATE = 128.0


@dataclass
class SourceSpec:
    azimuth_deg: float
    elevation_deg: float
    attenuation: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.azimuth_deg < 90.0:
            raise ValueError(f"azimuth must be in (0, 90) degrees, got {self.azimuth_deg}")
        if not 0.0 < self.elevation_deg < 90.0:
            raise ValueError(f"elevation must be in (0, 90) degrees, got {self.elevation_deg}")
        if not 0.0 < self.attenuation < math.inf:
            raise ValueError(f"attenuation must be positive and finite, got {self.attenuation}")


@dataclass
class DoaScene:
    sources: list
    grid_m1: int = 10
    grid_m2: int = 10
    time_len: int = 15

    def __post_init__(self):
        if self.grid_m1 < 1 or self.grid_m2 < 1:
            raise ValueError("grid extents must be >= 1")
        if self.time_len < 2:
            raise ValueError("time_len must be >= 2")
        if not self.sources:
            raise ValueError("a scene needs at least one source")
        self.sources = [
            s if isinstance(s, SourceSpec) else SourceSpec(**s) for s in self.sources
        ]

    @property
    def rank(self):
        return len(self.sources)

    @property
    def shape(self):
        return (self.grid_m1, self.grid_m2, self.time_len)


@dataclass
class SourceSet:
    """Real source time series, one column per source."""

    signals: np.ndarray
    labels: list = field(default_factory=list)

    def __post_init__(self):
        self.signals = np.asarray(self.signals, dtype=np.float64)
        if self.signals.ndim != 2:
            raise ValueError("signals must be a K x R matrix")
        if not self.labels:
            self.labels = [f"src{r + 1}" for r in range(self.signals.shape[1])]
        if len(self.labels) != self.signals.shape[1]:
            raise ValueError("one label per source column required")
        stds = self.signals.std(axis=0)
        if np.any(stds == 0):
            raise ValueError("source columns must not be constant")


@dataclass
class MaskPattern:
    """One broken sensor. sensor is a 0-based (i, j) grid coordinate."""

    kind: str
    sensor: tuple

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.kind!r}, expected one of {MASK_KINDS}")
        self.sensor = (int(self.sensor[0]), int(self.sensor[1]))


@dataclass
class DoaEstimate:
    """Lists of one entry per source. reason[r] is None where source r's
    angles were read, else why not, and then its angles are NaN and its
    errors infinite."""

    azimuth_deg: list
    elevation_deg: list
    azimuth_rel_err: list
    elevation_rel_err: list
    reason: list


def _generator(azimuth_deg, elevation_deg, axis):
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    if axis == 1:
        return complex(np.exp(1j * math.pi * math.sin(el) * math.cos(az)))
    return complex(np.exp(1j * math.pi * math.sin(el) * math.sin(az)))


def steering_vector(azimuth_deg, elevation_deg, axis, m):
    """Vandermonde steering vector [1, z, ..., z^(m-1)] for one array axis.

    Half-wavelength spacing: z = exp(i*pi*sin(el)*cos(az)) along axis 1 and
    exp(i*pi*sin(el)*sin(az)) along axis 2.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if not 0.0 < azimuth_deg < 90.0 or not 0.0 < elevation_deg < 90.0:
        raise ValueError("angles must be inside (0, 90) degrees")
    if m < 1:
        raise ValueError("m must be >= 1")
    z = _generator(azimuth_deg, elevation_deg, axis)
    return z ** np.arange(m)


def build_scene_tensor(scene, sources):
    """Scene tensor and its ground-truth model.

    T = sum_r a_r o b_r o (attenuation_r * s_r), with a_r and b_r the two
    steering vectors of source r.
    """
    signals = sources.signals
    if signals.shape != (scene.time_len, scene.rank):
        raise ValueError(
            f"signals shape {signals.shape} does not match scene "
            f"(K={scene.time_len}, R={scene.rank})"
        )
    a, b = _truth_steering_model(scene).factors
    attens = np.array([s.attenuation for s in scene.sources])
    c = signals.astype(np.complex128) * attens[None, :]
    truth = CpdModel([a, b, c])
    return reconstruct(truth), truth


def add_noise(t, snr_db, seed):
    """t plus seeded circular complex Gaussian noise, scaled so that
    20*log10(||t|| / ||noise||) equals snr_db exactly. An snr_db whose
    noise norm ||t|| / 10^(snr_db / 20) is not a positive finite float is
    refused before the noise is drawn."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    t = np.asarray(t, dtype=np.complex128)
    t_norm = float(np.linalg.norm(t.ravel()))
    if t_norm == 0.0:
        raise ValueError("cannot calibrate noise against a zero tensor")
    try:
        target = t_norm / 10.0 ** (snr_db / 20.0)
    except OverflowError:  # 10^(snr_db / 20) past the float range
        target = 0.0
    except ZeroDivisionError:  # 10^(snr_db / 20) rounded to zero
        target = math.inf
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError(f"snr_db {snr_db} is out of range: the noise norm {target} it gives "
                         f"for this tensor is not a positive finite number")
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(t.shape)
    im = rng.standard_normal(t.shape)
    noise = (re + 1j * im) / np.sqrt(2.0)
    noise *= target / float(np.linalg.norm(noise.ravel()))
    return t + noise


def synthetic_sources(time_len, n_sources, seed, freqs=(8.0, 10.0, 12.0)):
    """Seeded stand-in source set: each channel is a sum of sinusoids at
    the given frequencies with channel-specific random amplitudes and
    phases, plus 10% white noise, sampled at SAMPLE_RATE."""
    rng = np.random.default_rng(seed)
    t = np.arange(time_len) / SAMPLE_RATE
    cols = []
    for _ in range(n_sources):
        wave = np.zeros(time_len)
        for f in freqs:
            amp = rng.uniform(0.5, 1.5)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = wave + amp * np.sin(2.0 * np.pi * f * t + phase)
        wave = wave + 0.1 * float(np.std(wave)) * rng.standard_normal(time_len)
        cols.append(wave)
    labels = [
        DEFAULT_LABELS[r] if n_sources <= len(DEFAULT_LABELS) else f"src{r + 1}"
        for r in range(n_sources)
    ]
    return SourceSet(np.column_stack(cols), labels)


def estimate_generator(v):
    """Least-squares shift ratio of a (noisy) Vandermonde vector."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if v.size < 2:
        raise ValueError("need at least 2 entries")
    head = v[:-1]
    denom = np.vdot(head, head)
    if denom == 0:
        raise ValueError("leading subvector is zero, shift ratio undefined")
    return complex(np.vdot(head, v[1:]) / denom)


def doa_from_generators(z1, z2):
    """Invert the steering generator map back to (azimuth, elevation) in
    degrees. Phases must sit in (0, pi) with sqrt(p1^2 + p2^2) <= pi."""
    p1 = np.angle(z1)
    p2 = np.angle(z2)
    if not 0.0 < p1 < np.pi or not 0.0 < p2 < np.pi:
        raise ValueError(f"generator phases ({p1:.4f}, {p2:.4f}) outside (0, pi)")
    rho = math.hypot(p1, p2)
    if rho > np.pi:
        raise ValueError(f"combined phase magnitude {rho:.4f} exceeds pi")
    azimuth = math.degrees(math.atan2(p2, p1))
    elevation = math.degrees(math.asin(rho / np.pi))
    return azimuth, elevation


def _truth_steering_model(scene):
    """The steering_vector columns of every source, one power per factor;
    the angles were validated when the scene's sources were built."""
    factors = []
    for axis, m in ((1, scene.grid_m1), (2, scene.grid_m2)):
        z = np.array([_generator(s.azimuth_deg, s.elevation_deg, axis) for s in scene.sources])
        factors.append(z[None, :] ** np.arange(m)[:, None])
    return CpdModel(factors)


def _fit_steering_phases(a, b, mode3_gram, phases):
    """Generator phases of the Vandermonde steering pairs closest to a model.

    Minimizes ||T - sum_r v(p1_r) o w(p2_r) o s_r|| over the phases and
    the mode-3 vectors s_r, where T = sum_r a_r o b_r o c_r is the model's
    own rank-R term and v, w are unit-first Vandermonde vectors of the two
    steering modes. The s_r are projected out (variable projection), and T
    enters only through Y = khatri_rao(a, b) @ L with L L^H = mode3_gram
    (C^T C^* for an order-3 model), an exact compression of its mode-3
    unfolding, so the tensor is never formed. The phases, ordered
    (p1_1..p1_R, p2_1..p2_R), are refined from ``phases`` by damped
    Gauss-Newton (Levenberg) steps on Kaufman's Jacobian, which gives the
    exact gradient. A step is kept only if it does not raise the residual,
    and one below ``DOA_FIT_LAST_STEP`` is taken as the last. The start
    comes back unchanged if two of its steering columns coincide.
    """
    r = a.shape[1]
    m1, m2 = a.shape[0], b.shape[0]
    n = m1 * m2
    lam, vec = np.linalg.eigh(mode3_gram)
    # column blocks [phi | dphi/dp1 | dphi/dp2 | Y], phi = khatri_rao(V, W);
    # the derivative blocks are stored without their factor i
    cols = np.empty((n, 4, r), dtype=np.complex128)
    cols[:, 3] = khatri_rao(a, b) @ (vec * np.sqrt(np.clip(lam, 0.0, None)))
    steered = cols[:, :3]
    cols = cols.reshape(n, 4 * r)
    weights = np.ones((n, 3, 1))
    weights[:, 1:, 0] = np.indices((m1, m2)).reshape(2, n).T
    grid = 1j * np.arange(max(m1, m2))[:, None]
    source = np.arange(2 * r) % r  # the column that phase k steers
    diag = np.diag_indices(2 * r)

    def project(p):
        z = np.exp(grid * p)
        np.multiply(weights, khatri_rao(z[:m1, :r], z[:m2, r:])[:, None, :], out=steered)
        gram = cols.conj().T @ cols
        try:
            s = np.linalg.solve(gram[:r, :r], gram[:r, r:])
        except np.linalg.LinAlgError:  # two steering columns coincide
            return None
        # [dphi, Y]^H P [dphi, Y] with P the projector off phi; its Y block
        # holds the residual. s[:, 2r:] are the least-squares mode-3
        # weights; row k of ``rows`` is the conjugate of those of the column
        # that phase k steers.
        schur = gram[r:, r:] - gram[r:, :r] @ s
        rows = s[source, 2 * r:].conj()
        return schur, rows, schur[2 * r:, 2 * r:].trace().real

    state = project(phases)
    if state is None:
        return phases
    mu = 1e-3
    for _ in range(DOA_FIT_MAX_STEPS):
        schur, rows, res = state
        # Gauss-Newton system of the real phases, Levenberg-damped so that
        # the phases of a column with no mode-3 weight stay put
        h = (schur[:2 * r, :2 * r] * (rows @ rows.conj().T)).real
        g = (schur[:2 * r, 2 * r:] * rows).sum(axis=1).imag
        h[diag] += mu * h.trace() / (2 * r)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:  # no column has any mode-3 weight
            break
        if np.abs(step).max() < DOA_FIT_LAST_STEP:
            return phases + step
        trial = project(phases + step)
        if trial is not None and trial[2] <= res:
            phases, state, mu = phases + step, trial, mu / 10
        else:
            mu *= 10
    return phases


def estimate_doa(model, scene):
    """Direction of arrival per source from an estimated model.

    Sources are matched to estimate columns through the steering modes
    only (the congruence assignment of the first two factor matrices), so
    no knowledge of the source signals is needed. The generators come from
    a structured least-squares fit of Vandermonde steering pairs to the
    model's term of its matched columns alone (``_fit_steering_phases``),
    started from the shift ratio of each steering column
    (``estimate_generator``); they are turned into angles by
    ``doa_from_generators`` at the end. The fit uses the Vandermonde
    structure of both steering modes and the coupling of the columns
    through mode 3, which the per-column shift ratio ignores: at 0 dB on the
    default scene it cuts the median source-1 azimuth error over seeds 0-19
    from 0.164 to 0.045, inside the 0.05 band of acceptance criterion 4 and
    at the Cramer-Rao median of about 0.047.
    A source with no matched column or with phases ``doa_from_generators``
    cannot map, or every source where a steering mode has fewer than 2 rows,
    gets NaN angles, infinite errors and the reason; the others keep theirs.
    """
    if (model.shape[0], model.shape[1]) != (scene.grid_m1, scene.grid_m2):
        raise ValueError("model grid does not match the scene")
    short = min(model.shape[:2]) < 2
    if not short:
        permutation = metrics.match_columns(_truth_steering_model(scene), CpdModel(model.factors[:2]))
        # the fit reads only the matched columns, in ascending order, so a
        # column matched to no source cannot pull the sources' phases
        matched = sorted(c for c in permutation if c is not None)
        a, b, *rest = [f[:, matched] for f in model.factors]
        m = len(matched)
        mode3_gram = np.ones((m, m), dtype=np.complex128)
        for f in rest:
            mode3_gram = mode3_gram * (f.T @ f.conj())
        start = np.angle([estimate_generator(f[:, k]) for f in (a, b) for k in range(m)])
        phases = _fit_steering_phases(a, b, mode3_gram, start)

    doa = DoaEstimate([], [], [], [], [])
    for r, spec in enumerate(scene.sources):
        try:
            if short:
                raise ValueError("steering modes need at least 2 rows for shift invariance")
            if permutation[r] is None:
                raise ValueError("no estimate column matched the source")
            k = matched.index(permutation[r])
            az, el = doa_from_generators(np.exp(1j * phases[k]), np.exp(1j * phases[m + k]))
            reason = None
        except ValueError as exc:
            az = el = math.nan
            reason = str(exc)
        doa.azimuth_deg.append(az)
        doa.elevation_deg.append(el)
        doa.azimuth_rel_err.append(math.inf if reason else abs(az - spec.azimuth_deg) / spec.azimuth_deg)
        doa.elevation_rel_err.append(math.inf if reason else abs(el - spec.elevation_deg) / spec.elevation_deg)
        doa.reason.append(reason)
    return doa


def apply_mask(t, patterns):
    """Boolean observation mask from broken-sensor patterns, unioned.

    A deactivated sensor loses its whole time fiber; one that breaks at
    half time loses indices >= ceil(K/2); one that starts at half time
    loses indices < ceil(K/2) (for odd K the extra sample goes to the
    first half).
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim != 3:
        raise ValueError("expected an order-3 scene tensor")
    m1, m2, k = t.shape
    half = math.ceil(k / 2)
    mask = np.ones(t.shape, dtype=bool)
    for pat in patterns:
        if not isinstance(pat, MaskPattern):
            pat = MaskPattern(**pat)
        i, j = pat.sensor
        if not (0 <= i < m1 and 0 <= j < m2):
            raise ValueError(f"sensor {pat.sensor} outside the {m1}x{m2} grid")
        if pat.kind == "deactivated_sensor":
            mask[i, j, :] = False
        elif pat.kind == "breaks_at_half":
            mask[i, j, half:] = False
        else:
            mask[i, j, :half] = False
    return IncompleteTensor(t, mask)


def default_scene(sources=None):
    """The reference three-source scene on a 10 x 10 array, 15 samples."""
    sources = sources or [
        SourceSpec(10.0, 20.0),
        SourceSpec(30.0, 30.0),
        SourceSpec(70.0, 40.0),
    ]
    return DoaScene(sources=sources)
