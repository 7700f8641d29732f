"""Plain-Python answers computed from the benchmark's own documents.

Nothing here calls into the program under test. The documents are the
wire forms the generator built (they still carry ``user_id``); the one
bridge to the program's naming is a pseudonym map handed in by the
caller, used only to name contributors in the contributor-keyed figures.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Figures 10-13 accuracy intervals (the analytics engine's $bucket)
ACCURACY_BOUNDARIES = [0, 6, 20, 50, 100, 200, 500]


def close(a: Any, b: Any) -> bool:
    """Equality with a float tolerance: vectorized and row-at-a-time
    engines may sum in a different order."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def totals(docs: List[dict]) -> Dict[str, int]:
    return {"total": len(docs), "localized": sum(1 for d in docs if "location" in d)}


def per_model(docs: List[dict]) -> Dict[str, Dict[str, int]]:
    rows: Dict[str, Dict[str, Any]] = {}
    users: Dict[str, set] = defaultdict(set)
    for doc in docs:
        row = rows.setdefault(doc["model"], {"measurements": 0, "localized": 0})
        row["measurements"] += 1
        row["localized"] += 1 if doc.get("location") else 0
        users[doc["model"]].add(doc["user_id"])
    for model, row in rows.items():
        row["devices"] = len(users[model])
    return rows


def check_per_model(answer: List[dict], docs: List[dict]) -> bool:
    expected = per_model(docs)
    got = {
        row["model"]: {
            "measurements": row["measurements"],
            "localized": row["localized"],
            "devices": row["devices"],
        }
        for row in answer
    }
    ordered = all(
        answer[i]["localized"] >= answer[i + 1]["localized"]
        for i in range(len(answer) - 1)
    )
    return ordered and len(got) == len(answer) and got == expected


def cumulative_by_day(docs: List[dict]) -> List[dict]:
    days = Counter(math.floor(d["taken_at"] / 86400) for d in docs)
    out, running = [], 0
    for day in sorted(days):
        running += days[day]
        out.append({"day": day, "count": days[day], "cumulative": running})
    return out


def provider_shares(docs: List[dict], mode: Optional[str] = None) -> Dict[str, float]:
    counts = Counter(
        d["location"]["provider"]
        for d in docs
        if "location" in d and (mode is None or d["mode"] == mode)
    )
    total = sum(counts.values())
    return {p: c / total for p, c in counts.items()} if total else {}


def accuracy_values(docs: List[dict], provider: Optional[str] = None) -> List[float]:
    return sorted(
        d["location"]["accuracy_m"]
        for d in docs
        if "location" in d and (provider is None or d["location"]["provider"] == provider)
    )


def accuracy_buckets(docs: List[dict], provider: Optional[str] = None) -> Dict[Any, dict]:
    groups: Dict[Any, List[float]] = defaultdict(list)
    for value in accuracy_values(docs, provider):
        key: Any = "coarse"
        for low, high in zip(ACCURACY_BOUNDARIES, ACCURACY_BOUNDARIES[1:]):
            if low <= value < high:
                key = low
                break
        groups[key].append(value)
    return {
        key: {"count": len(values), "mean": sum(values) / len(values)}
        for key, values in groups.items()
    }


def spl_values(docs: List[dict], model: str) -> List[float]:
    return sorted(d["noise_dba"] for d in docs if d["model"] == model)


def contributor_counts(docs: List[dict], model: str) -> Counter:
    return Counter(d["user_id"] for d in docs if d["model"] == model)


def check_top_contributors(
    answer: List[str], docs: List[dict], model: str, limit: int, pseudonym: Callable[[str], str]
) -> bool:
    """Property check (ties may order either way): the answer is the
    right length, ranked by count, and nothing left out beats it."""
    counts = {pseudonym(user): n for user, n in contributor_counts(docs, model).items()}
    if len(answer) != min(limit, len(counts)) or len(set(answer)) != len(answer):
        return False
    if any(name not in counts for name in answer):
        return False
    ranked = [counts[name] for name in answer]
    if ranked != sorted(ranked, reverse=True):
        return False
    rest = [n for name, n in counts.items() if name not in set(answer)]
    return not rest or not ranked or max(rest) <= ranked[-1]


def _hour(taken_at: float) -> int:
    return int(math.floor((taken_at % 86400) / 3600))


def hourly_distribution(docs: List[dict], model: Optional[str] = None) -> List[float]:
    counts = Counter(
        _hour(d["taken_at"]) for d in docs if model is None or d["model"] == model
    )
    total = sum(counts.values())
    if not total:
        return [0.0] * 24
    return [counts.get(h, 0) / total for h in range(24)]


def hourly_by_contributor(
    docs: List[dict], model: str, pseudonym: Callable[[str], str]
) -> Dict[str, List[float]]:
    per_user: Dict[str, Counter] = defaultdict(Counter)
    for doc in docs:
        if doc["model"] == model:
            per_user[doc["user_id"]][_hour(doc["taken_at"])] += 1
    out = {}
    for user, counts in per_user.items():
        total = sum(counts.values())
        out[pseudonym(user)] = [counts.get(h, 0) / total for h in range(24)]
    return out


def activity_distribution(docs: List[dict]) -> Dict[str, float]:
    counts = Counter(d["activity"]["label"] for d in docs)
    total = sum(counts.values())
    return {label: n / total for label, n in counts.items()} if total else {}


def matches_query(doc: dict, params: Dict[str, str]) -> bool:
    """The REST data filters the benchmark uses: time window, model,
    provider."""
    taken = doc["taken_at"]
    if "since" in params and taken < float(params["since"]):
        return False
    if "until" in params and taken >= float(params["until"]):
        return False
    if "model" in params and doc["model"] != params["model"]:
        return False
    if "provider" in params:
        location = doc.get("location")
        if location is None or location["provider"] != params["provider"]:
            return False
    return True


def newest_taken(docs: Iterable[dict], params: Dict[str, str], limit: int) -> List[float]:
    return sorted(
        (d["taken_at"] for d in docs if matches_query(d, params)), reverse=True
    )[:limit]


def count(docs: Iterable[dict], params: Dict[str, str]) -> int:
    return sum(1 for d in docs if matches_query(d, params))


def group_by_model(docs: List[dict], mode: str, limit: int) -> List[dict]:
    """``$match mode / $group model (n, avg dB) / $sort n desc, _id / $limit``."""
    groups: Dict[str, List[float]] = defaultdict(list)
    for doc in docs:
        if doc["mode"] == mode:
            groups[doc["model"]].append(doc["noise_dba"])
    rows = [
        {"_id": model, "n": len(values), "avg": sum(values) / len(values)}
        for model, values in groups.items()
    ]
    rows.sort(key=lambda row: (-row["n"], row["_id"]))
    return rows[:limit]


def group_by_provider(docs: List[dict], since: float, until: float) -> List[dict]:
    """``$match localized + window / $group provider / $sort _id``."""
    counts = Counter(
        d["location"]["provider"]
        for d in docs
        if "location" in d and since <= d["taken_at"] < until
    )
    return [{"_id": p, "n": counts[p]} for p in sorted(counts)]


def group_by_activity(docs: List[dict], model: str) -> List[dict]:
    """``$match model / $group activity (n, max dB) / $sort _id``."""
    groups: Dict[str, List[float]] = defaultdict(list)
    for doc in docs:
        if doc["model"] == model:
            groups[doc["activity"]["label"]].append(doc["noise_dba"])
    return [
        {"_id": label, "n": len(groups[label]), "max": max(groups[label])}
        for label in sorted(groups)
    ]


def region_key(doc: dict) -> str:
    """Which live-map tile a document belongs to: its 500 m cell when
    localized, its campaign day otherwise (the map's keying)."""
    location = doc.get("location")
    if location is not None:
        return f"g{math.floor(location['x_m'] / 500.0)}:{math.floor(location['y_m'] / 500.0)}"
    return f"d{math.floor(doc['taken_at'] / 86400.0)}"


def tiles(docs: Iterable[dict]) -> Dict[str, dict]:
    """Noise-map tiles (count, samples, sum/min/max dB(A)) per region."""
    out: Dict[str, dict] = {}
    for doc in docs:
        tile = out.setdefault(
            region_key(doc),
            {"count": 0, "samples": 0, "sum_dba": 0.0, "min_dba": None, "max_dba": None},
        )
        value = float(doc["noise_dba"])
        tile["count"] += 1
        tile["samples"] += 1
        tile["sum_dba"] += value
        tile["min_dba"] = value if tile["min_dba"] is None else min(tile["min_dba"], value)
        tile["max_dba"] = value if tile["max_dba"] is None else max(tile["max_dba"], value)
    return out
