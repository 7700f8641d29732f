"""Seeded inputs shaped by the paper's deployment figures.

Everything here runs before set-up and is never timed. The program under
test only ever receives the documents (or, for the phone-side client,
the ``Observation`` objects those documents serialize from) built here.

Make-up of one observation (see README.md for the reasoning):

- device model drawn by its Figure 9 device share
  (``DeviceRegistry.device_shares``);
- about 40 % localized; of those 86 % network, 7 % GPS and 7 % fused
  fixes, with the accuracy shapes of Figures 10-13;
- sensing mode: opportunistic, manual (participatory) or journey;
- ``taken_at`` over a 300-day campaign with a diurnal hour-of-day
  profile (quiet nights, an evening peak — Figure 18's shape);
- positions clustered around a hot city centre, so 500 m cells are
  loaded very unevenly;
- ``taken_at`` is unique per observation, which lets the checks map a
  pushed event (which carries no ``obs_id``) back to its observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.devices.registry import DeviceRegistry

APP_ID = "SC"
CELL_M = 500.0
#: the paper's campaign length in days (10 months)
CAMPAIGN_DAYS = 300
#: provider split of localized observations (Figures 10-13, Figure 20)
PROVIDERS = ("network", "gps", "fused")
PROVIDER_P = (0.86, 0.07, 0.07)
LOCALIZED_SHARE = 0.40
MODES = ("opportunistic", "manual", "journey")
MODE_P = (0.80, 0.10, 0.10)
ACTIVITIES = ("still", "foot", "vehicle", "bicycle", "tilting", "unknown", "undefined")
ACTIVITY_P = (0.52, 0.16, 0.12, 0.03, 0.05, 0.05, 0.07)
#: relative sensing volume per hour of day (night trough, evening peak)
DIURNAL = np.array(
    [2, 1, 1, 1, 1, 2, 4, 6, 7, 7, 7, 7, 8, 8, 7, 7, 8, 9, 10, 11, 11, 9, 6, 4],
    dtype=float,
)
#: the hot city centre: share of positions near it and its spread
CENTRE_SHARE = 0.65
CENTRE_SIGMA_M = 1500.0
CITY_HALF_M = 10_000.0


@dataclass
class Contributor:
    """One phone owner: a model and a home position."""

    user_id: str
    model: str
    home: Tuple[float, float]


def cell_of(x_m: float, y_m: float) -> Tuple[int, int]:
    """The benchmark's own 500 m cell test."""
    return (math.floor(x_m / CELL_M), math.floor(y_m / CELL_M))


def model_shares() -> Dict[str, float]:
    """Figure 9 device shares, straight from the registry."""
    return DeviceRegistry().device_shares()


class Generator:
    """Deterministic observation factory for one ``--seed``.

    Each call continues the same random stream, so the inputs of a run
    depend only on the seed and on the order the workload asks for them.
    """

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        shares = model_shares()
        self._models = list(shares)
        self._model_p = np.array([shares[name] for name in self._models])
        self._model_p /= self._model_p.sum()
        self._hour_p = DIURNAL / DIURNAL.sum()
        self._next_obs = 1
        self._used_taken: set = set()

    # -- contributors --------------------------------------------------------

    def contributors(self, count: int, prefix: str = "u") -> List[Contributor]:
        """``count`` contributors with Figure 9 models and homes that
        cluster around the city centre."""
        rng = self.rng
        picks = rng.choice(len(self._models), size=count, p=self._model_p)
        homes = self._positions(count)
        return [
            Contributor(f"{prefix}{index:05d}", self._models[pick], homes[index])
            for index, pick in enumerate(picks)
        ]

    def _positions(self, count: int) -> List[Tuple[float, float]]:
        rng = self.rng
        central = rng.random(count) < CENTRE_SHARE
        near = rng.normal(0.0, CENTRE_SIGMA_M, size=(count, 2))
        wide = rng.uniform(-CITY_HALF_M, CITY_HALF_M, size=(count, 2))
        points = np.where(central[:, None], near, wide)
        return [(float(x), float(y)) for x, y in points]

    # -- observations --------------------------------------------------------

    def observations(
        self,
        owners: List[Contributor],
        app_version: Optional[str] = None,
    ) -> List[dict]:
        """One wire-form document per entry of ``owners`` (repeats allowed).

        Fields mirror ``Observation.to_document`` so the same values can
        travel through the phone client or straight into ingest.
        """
        rng = self.rng
        n = len(owners)
        localized = rng.random(n) < LOCALIZED_SHARE
        providers = rng.choice(len(PROVIDERS), size=n, p=PROVIDER_P)
        modes = rng.choice(len(MODES), size=n, p=MODE_P)
        activities = rng.choice(len(ACTIVITIES), size=n, p=ACTIVITY_P)
        confidence = rng.uniform(0.5, 1.0, size=n)
        days = rng.integers(0, CAMPAIGN_DAYS, size=n)
        hours = rng.choice(24, size=n, p=self._hour_p)
        seconds = rng.uniform(0.0, 3600.0, size=n)
        jitter = rng.normal(0.0, 250.0, size=(n, 2))
        accuracy = self._accuracies(providers)
        noise = np.clip(
            rng.normal(52.0, 9.0, size=n) + (hours >= 7) * 6.0, 28.0, 95.0
        )
        docs = []
        for i in range(n):
            owner = owners[i]
            taken = round(float(days[i] * 86400 + hours[i] * 3600 + seconds[i]), 3)
            while taken in self._used_taken:
                taken = round(taken + 0.001, 3)
            self._used_taken.add(taken)
            doc = {
                "observation_id": self._next_obs,
                "user_id": owner.user_id,
                "model": owner.model,
                "taken_at": taken,
                "mode": MODES[modes[i]],
                "noise_dba": round(float(noise[i]), 2),
                "activity": {
                    "label": ACTIVITIES[activities[i]],
                    "confidence": round(float(confidence[i]), 3),
                },
            }
            self._next_obs += 1
            if localized[i]:
                doc["location"] = {
                    "provider": PROVIDERS[providers[i]],
                    "accuracy_m": round(float(accuracy[i]), 1),
                    "x_m": round(owner.home[0] + float(jitter[i, 0]), 1),
                    "y_m": round(owner.home[1] + float(jitter[i, 1]), 1),
                }
            if app_version is not None:
                doc["app_version"] = app_version
            docs.append(doc)
        return docs

    def _accuracies(self, providers: np.ndarray) -> np.ndarray:
        """Figures 10-13: GPS 6-20 m bulk, network 20-50 m bulk with a
        ~90 m cell-tower peak and a coarse tail, fused coarse."""
        rng = self.rng
        n = len(providers)
        gps = rng.lognormal(math.log(12.0), 0.45, size=n)
        branch = rng.random(n)
        network = np.where(
            branch < 0.72,
            rng.lognormal(math.log(33.0), 0.30, size=n),
            np.where(
                branch < 0.94,
                rng.normal(90.0, 6.0, size=n),
                rng.lognormal(math.log(300.0), 0.60, size=n),
            ),
        )
        fused = rng.lognormal(math.log(120.0), 0.80, size=n)
        picked = np.choose(providers, [network, gps, fused])
        return np.clip(picked, 2.0, 3000.0)

    def stamp_ids(self, docs: List[dict], prefix: str) -> None:
        """Give wire documents a stable ``obs_id`` (what a client stamps)."""
        for doc in docs:
            doc["obs_id"] = f"{prefix}:{doc['observation_id']}"


def to_observation(doc: dict):
    """The phone-side ``Observation`` a wire document serializes from."""
    from repro.sensing.activity import ActivityReading
    from repro.sensing.location import LocationFix
    from repro.sensing.microphone import NoiseReading
    from repro.sensing.modes import SensingMode
    from repro.sensing.scheduler import Observation

    location = doc.get("location")
    fix = None
    if location is not None:
        fix = LocationFix(
            provider=location["provider"],
            accuracy_m=location["accuracy_m"],
            x_m=location["x_m"],
            y_m=location["y_m"],
            true_x_m=location["x_m"],
            true_y_m=location["y_m"],
        )
    return Observation(
        observation_id=doc["observation_id"],
        user_id=doc["user_id"],
        model=doc["model"],
        taken_at=doc["taken_at"],
        mode=SensingMode(doc["mode"]),
        noise=NoiseReading(measured_dba=doc["noise_dba"], true_dba=doc["noise_dba"]),
        location=fix,
        activity=ActivityReading(
            label=doc["activity"]["label"],
            confidence=doc["activity"]["confidence"],
            true_activity=doc["activity"]["label"],
        ),
    )
